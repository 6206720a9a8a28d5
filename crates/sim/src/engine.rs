//! Per-query execution: samples every duration, builds per-level policy
//! contexts, and drives the Pseudocode-1 state machines through the event
//! queue. The machines do the pass — dedupe, accumulation, timers,
//! departure; the event loop only routes each arrival and timer to its
//! aggregator and turns what comes back into events.
//!
//! ## Levels
//!
//! For an `n`-stage tree there are `n - 1` aggregator levels. The level-ℓ
//! aggregator (1-based) collects stage-ℓ outputs; its own
//! aggregate-and-ship duration is drawn from stage ℓ+1's distribution
//! (`X_{ℓ+1}`), matching Figure 5 of the paper. The root is not an
//! aggregator: it includes whatever arrives by the deadline.
//!
//! ## What policies know
//!
//! Policies see the *prior* (population) tree: upper-level quality
//! profiles and initial waits are computed from it. The per-query *true*
//! tree drives the sampling; only [`WaitPolicyKind::Ideal`] is shown the
//! true bottom-stage distribution (`true_lower`), reproducing §3's oracle.
//! Upper stages vary little across queries (§4.1), so prior and true
//! upper profiles coincide in the paper's workloads.

use crate::events::{EventKind, EventQueue};
use crate::metrics::QueryOutcome;
use crate::runner::SimConfig;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::{AggregatorAction, AggregatorState, PreparedContexts};
use cedar_distrib::ContinuousDist;
use rand::rngs::StdRng;

/// One aggregator level's runtime state.
struct Level {
    /// One Pseudocode-1 machine per aggregator: what it collected, its
    /// armed timer and its departure.
    states: Vec<AggregatorState>,
    /// Own (aggregate-and-ship) durations, pre-sampled for determinism.
    own_durations: Vec<f64>,
}

/// Executes one query and returns its outcome; builds the prior contexts
/// fresh (use [`execute_prepared`] to amortize them over many queries).
pub fn execute(cfg: &SimConfig, kind: WaitPolicyKind, rng: &mut StdRng) -> QueryOutcome {
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        kind,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    );
    execute_prepared(cfg, kind, rng, &prepared)
}

/// Executes one query using prior contexts built for `kind` from
/// `cfg.priors` (the expensive part — quality-profile tabulation — only
/// depends on the priors, deadline, and policy, so one build serves
/// every query of a workload).
///
/// Sampling order is fixed (processes bottom-up, then per-level own
/// durations), so a given `rng` state always produces the same query.
pub fn execute_prepared(
    cfg: &SimConfig,
    kind: WaitPolicyKind,
    rng: &mut StdRng,
    prepared: &PreparedContexts,
) -> QueryOutcome {
    let n = cfg.tree.levels();
    let total_processes = cfg.tree.total_processes();

    // Pre-sample every duration from the *true* tree.
    let mut process_durations = cfg.tree.stage(0).dist.sample_vec(rng, total_processes);

    // Straggler mitigation (§7 interplay): processes slower than the
    // launch quantile race a speculative copy started at that instant;
    // the earlier finisher wins and the loser is killed.
    if let Some(spec) = cfg.speculation {
        let launch_at = cfg.tree.stage(0).dist.quantile(spec.launch_quantile);
        if launch_at.is_finite() {
            for d in &mut process_durations {
                if *d > launch_at {
                    let copy = launch_at + cfg.tree.stage(0).dist.sample(rng);
                    *d = d.min(copy);
                }
            }
        }
    }

    // Appendix-A weighting: every process output carries a weight.
    let weights: Option<&[f64]> = cfg.weights.as_deref().map(|w| {
        assert_eq!(
            w.len(),
            total_processes,
            "one weight per leaf process required"
        );
        w.as_slice()
    });
    let weight_of = |pi: usize| weights.map_or(1.0, |w| w[pi]);
    let total_weight: f64 = match weights {
        Some(w) => w.iter().sum(),
        None => total_processes as f64,
    };

    if n == 1 {
        // Degenerate single-level tree: processes report straight to the
        // root.
        let mut included = 0usize;
        let mut included_weight = 0.0f64;
        for (pi, &t) in process_durations.iter().enumerate() {
            if t <= cfg.deadline {
                included += 1;
                included_weight += weight_of(pi);
            }
        }
        return QueryOutcome {
            quality: included as f64 / total_processes.max(1) as f64,
            included_outputs: included,
            total_processes,
            root_arrivals: included,
            included_weight,
            total_weight,
            level1_departures: Vec::new(),
        };
    }

    let agg_levels = n - 1;
    let contexts = prepared.for_query(&cfg.tree);

    let mut levels: Vec<Level> = (1..=agg_levels)
        .map(|level| {
            let count = cfg.tree.nodes_at(level);
            let own_durations = cfg.tree.stage(level).dist.sample_vec(rng, count);
            let ctx = &contexts[level - 1];
            let first_child = cfg.tree.origin_base(level - 1);
            let states = (0..count)
                .map(|agg| {
                    let first = first_child + agg * ctx.fanout;
                    let policy = kind.instantiate(ctx.fanout, cfg.model);
                    let children = first..first + ctx.fanout;
                    AggregatorState::for_children(policy, ctx.clone(), children, None)
                })
                .collect();
            Level {
                states,
                own_durations,
            }
        })
        .collect();

    let mut queue = EventQueue::new();

    // Initial timers.
    for (li, level) in levels.iter_mut().enumerate() {
        for (ai, st) in level.states.iter_mut().enumerate() {
            queue.push(
                st.start(),
                EventKind::Timer {
                    level: li + 1,
                    agg: ai,
                },
            );
        }
    }

    // Process outputs: each leaf is a payload-1 result from its own
    // origin, addressed to its level-1 aggregator.
    let k1 = cfg.tree.stage(0).fanout;
    for (pi, &d) in process_durations.iter().enumerate() {
        if d <= cfg.deadline {
            queue.push(
                d,
                EventKind::AggregatorResult {
                    level: 1,
                    agg: pi / k1,
                    origin: pi,
                    payload: 1,
                    weight: weight_of(pi),
                },
            );
        }
    }

    let mut root_payload = 0usize;
    let mut root_weight = 0.0f64;
    let mut root_arrivals = 0usize;

    while let Some(ev) = queue.pop() {
        if ev.time > cfg.deadline {
            // Nothing after the deadline can affect the response.
            break;
        }
        let (level, agg, action) = match ev.kind {
            EventKind::AggregatorResult {
                level,
                payload,
                weight,
                ..
            } if level > agg_levels => {
                // Root: level-L aggregator results arriving by D.
                root_payload += payload;
                root_weight += weight;
                root_arrivals += 1;
                continue;
            }
            EventKind::AggregatorResult {
                level,
                agg,
                origin,
                payload,
                weight,
            } => {
                let state = &mut levels[level - 1].states[agg];
                (
                    level,
                    agg,
                    state.on_arrival(origin, payload, weight, ev.time),
                )
            }
            EventKind::Timer { level, agg } => {
                (level, agg, levels[level - 1].states[agg].on_timer(ev.time))
            }
        };
        match action {
            AggregatorAction::SetTimer(w) => queue.push(w, EventKind::Timer { level, agg }),
            AggregatorAction::Depart => {
                let lv = &levels[level - 1];
                let (state, arrive) = (&lv.states[agg], ev.time + lv.own_durations[agg]);
                // An empty result adds nothing to quality (production
                // systems still send headers, but they carry no process
                // outputs), and one arriving after the deadline cannot
                // influence the response: neither takes the upstream hop.
                if state.payload() > 0 && arrive <= cfg.deadline {
                    queue.push(
                        arrive,
                        EventKind::AggregatorResult {
                            level: level + 1,
                            agg: agg / cfg.tree.stage(level).fanout,
                            origin: cfg.tree.origin_base(level) + agg,
                            payload: state.payload(),
                            weight: state.value(),
                        },
                    );
                }
            }
            _ => {}
        }
    }

    let level1_departures = levels[0]
        .states
        .iter()
        .map(|st| st.departed_at().unwrap_or(f64::NAN))
        .collect();
    QueryOutcome {
        quality: root_payload as f64 / total_processes.max(1) as f64,
        included_outputs: root_payload,
        total_processes,
        root_arrivals,
        included_weight: root_weight,
        total_weight,
        level1_departures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::{StageSpec, TreeSpec};
    use cedar_distrib::{LogNormal, Uniform};
    use rand::SeedableRng;

    fn small_tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 10),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 5),
        )
    }

    #[test]
    fn quality_is_a_fraction() {
        let cfg = SimConfig::new(small_tree(), 30.0).with_seed(1);
        let mut rng = StdRng::seed_from_u64(1);
        let out = execute(&cfg, WaitPolicyKind::ProportionalSplit, &mut rng);
        assert!((0.0..=1.0).contains(&out.quality));
        assert_eq!(out.total_processes, 50);
        assert!(out.included_outputs <= 50);
        assert!(out.root_arrivals <= 5);
    }

    #[test]
    fn generous_deadline_perfect_quality() {
        // Uniform durations bounded well inside the deadline: every output
        // must make it with any sensible policy.
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(0.1, 1.0).unwrap(), 8),
            StageSpec::new(Uniform::new(0.1, 1.0).unwrap(), 4),
        );
        let cfg = SimConfig::new(tree, 1000.0).with_seed(3);
        let mut rng = StdRng::seed_from_u64(3);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        assert!((out.quality - 1.0).abs() < 1e-12, "quality {}", out.quality);
        assert_eq!(out.root_arrivals, 4);
    }

    #[test]
    fn zero_deadline_zero_quality() {
        let cfg = SimConfig::new(small_tree(), 0.0).with_seed(4);
        let mut rng = StdRng::seed_from_u64(4);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        assert_eq!(out.quality, 0.0);
    }

    #[test]
    fn single_level_tree_counts_direct_arrivals() {
        let tree = TreeSpec::new(vec![StageSpec::new(Uniform::new(0.0, 2.0).unwrap(), 100)]);
        let cfg = SimConfig::new(tree, 1.0).with_seed(5);
        let mut rng = StdRng::seed_from_u64(5);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        // Uniform(0,2) below 1.0 with probability 1/2.
        assert!((out.quality - 0.5).abs() < 0.15, "quality {}", out.quality);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = SimConfig::new(small_tree(), 20.0).with_seed(9);
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = execute(&cfg, WaitPolicyKind::Cedar, &mut r1);
        let b = execute(&cfg, WaitPolicyKind::Cedar, &mut r2);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.included_outputs, b.included_outputs);
        assert_eq!(a.level1_departures, b.level1_departures);
    }

    #[test]
    fn three_level_tree_runs() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 6),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 3),
        ]);
        let cfg = SimConfig::new(tree, 60.0).with_seed(11);
        let mut rng = StdRng::seed_from_u64(11);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        assert_eq!(out.total_processes, 72);
        assert!((0.0..=1.0).contains(&out.quality));
        assert!(out.quality > 0.3, "quality {}", out.quality);
    }

    #[test]
    fn uniform_weights_match_counts() {
        let cfg = SimConfig::new(small_tree(), 25.0).with_seed(21);
        let mut rng = StdRng::seed_from_u64(21);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        assert!((out.included_weight - out.included_outputs as f64).abs() < 1e-9);
        assert!((out.total_weight - out.total_processes as f64).abs() < 1e-9);
        assert!((out.weighted_quality() - out.quality).abs() < 1e-12);
    }

    #[test]
    fn weighted_quality_reflects_weights() {
        // All the weight on the first aggregator's processes: weighted
        // quality is driven entirely by that subtree.
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(0.1, 1.0).unwrap(), 5),
            StageSpec::new(Uniform::new(0.1, 1.0).unwrap(), 2),
        );
        let mut weights = vec![0.0; 10];
        for w in weights.iter_mut().take(5) {
            *w = 2.0;
        }
        let cfg = SimConfig::new(tree, 100.0)
            .with_seed(22)
            .with_weights(std::sync::Arc::new(weights));
        let mut rng = StdRng::seed_from_u64(22);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        // Generous deadline: everything arrives, weighted quality 1.
        assert!((out.weighted_quality() - 1.0).abs() < 1e-12);
        assert!((out.total_weight - 10.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_improves_straggler_heavy_queries() {
        use crate::runner::SpeculationConfig;
        // Heavy-tailed processes under a tight deadline: speculative
        // copies cut the tail, so quality must not decrease (and
        // typically improves).
        let tree = TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 1.4).unwrap(), 20),
            StageSpec::new(LogNormal::new(0.5, 0.3).unwrap(), 5),
        );
        let base_cfg = SimConfig::new(tree.clone(), 15.0).with_seed(23);
        let spec_cfg = SimConfig::new(tree, 15.0)
            .with_seed(23)
            .with_speculation(SpeculationConfig::new(0.75));
        let mut q_base = 0.0;
        let mut q_spec = 0.0;
        for s in 0..20 {
            let mut r1 = StdRng::seed_from_u64(1000 + s);
            let mut r2 = StdRng::seed_from_u64(1000 + s);
            q_base += execute(&base_cfg, WaitPolicyKind::Ideal, &mut r1).quality;
            q_spec += execute(&spec_cfg, WaitPolicyKind::Ideal, &mut r2).quality;
        }
        assert!(q_spec >= q_base, "speculation hurt: {q_spec} vs {q_base}");
        assert!(q_spec > q_base + 0.3, "speculation had no effect");
    }

    #[test]
    #[should_panic(expected = "one weight per leaf")]
    fn wrong_weight_count_panics() {
        let cfg =
            SimConfig::new(small_tree(), 25.0).with_weights(std::sync::Arc::new(vec![1.0; 3]));
        let mut rng = StdRng::seed_from_u64(24);
        execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
    }

    #[test]
    fn level1_departures_bounded_by_deadline() {
        let cfg = SimConfig::new(small_tree(), 25.0).with_seed(13);
        let mut rng = StdRng::seed_from_u64(13);
        let out = execute(&cfg, WaitPolicyKind::Cedar, &mut rng);
        for &d in out.level1_departures.iter().filter(|d| !d.is_nan()) {
            assert!(d <= 25.0 + 1e-9);
        }
    }
}
