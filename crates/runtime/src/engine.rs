//! Query execution on the tokio runtime: aggregators and root wired by
//! channels, timers driven by the wall clock.
//!
//! One task per aggregator runs the Pseudocode-1 pass. A bottom
//! aggregator walks its leaves' sorted [`Timeline`], sampled when the
//! query starts, in model time, then sleeps once, to its ship; watchdog
//! retries are entries on it. A leaf that completes after the deadline
//! cannot be counted by anybody, so it never enters the timeline: its
//! aggregator leaves on its own timer, as it would with that leaf on its
//! way. A top-level aggregator whose result ships by the deadline
//! promises it to the root before it sleeps, and one whose result ships
//! later does not send it, so the root counts a result by when it
//! ships, as the simulator does, however late the host runs either task.
//!
//! Under a fault plan every task's send goes through [`FaultPlan::send`]:
//! a leaf whose result is never sent is held back like a late one, and an
//! aggregator whose result is never sent holds its parent's channel past
//! the deadline, so neither can be told from a hang. The root books the
//! plan's faults once, when the query starts ([`FaultPlan::book`]).

use crate::faults::{FailureReport, FaultPlan, Ledger, StageLog};
use crate::metrics::RuntimeMetrics;
use crate::pass::{gather, walk, Children, Leaf, PassConfig, Retries, Timeline};
use crate::scale::TimeScale;
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::setup::PreparedContexts;
use cedar_core::wait::REFERENCE_SCAN_STEPS;
use cedar_core::TreeSpec;
use cedar_distrib::ContinuousDist;
use cedar_estimate::Model;
use cedar_telemetry::{QueryTrace, TraceEventKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tokio::sync::mpsc;
use tokio::time::Instant;

/// The engine's channel-send boundary type, shared with the mesh's
/// remote child adapter so a partial result decoded off a socket flows
/// through the identical aggregation path as a local one.
use crate::pass::Arrival as PartialResult;

/// An aggregator's own work once its pass has departed: whom it reports
/// as upstream, and when its result is sent and how many copies go
/// ([`FaultPlan::send`]).
struct Own {
    origin: usize,
    send: Option<(f64, usize)>,
    /// When an aggregator that never sends releases its parent's
    /// channel: past the deadline, so its silence can never close a
    /// channel before the aggregator behind it has timed out.
    hang_until: Instant,
    /// For a top-level aggregator: the root's deadline, and its count of
    /// the results promised by then ([`gather`]).
    root: Option<(Instant, Arc<AtomicUsize>)>,
}

/// Configuration of one runtime query.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The query's true stage distributions and fan-outs.
    pub tree: TreeSpec,
    /// The population tree the policies learned offline.
    pub priors: TreeSpec,
    /// End-to-end deadline in model units.
    pub deadline: f64,
    /// Model-to-wall time mapping.
    pub scale: TimeScale,
    /// Family assumed by Cedar's online estimator.
    pub model: Model,
    /// The finest ε-scan resolution allowed: each prepared context scans
    /// the coarsest grid nested in it that its loss bound allows
    /// ([`PreparedContexts::new`]).
    pub scan_steps: usize,
    /// Quality-profile resolution.
    pub profile: ProfileConfig,
    /// RNG seed for duration sampling.
    pub seed: u64,
    /// Optional fault-injection plan. `None` (the default) runs the
    /// engine exactly as before — the clean path is byte-identical.
    pub faults: Option<Arc<FaultPlan>>,
    /// Optional per-query decision trace. When attached, every
    /// Pseudocode-1 timeline event (arrivals, estimates, re-arms,
    /// watchdog/retry/fault events, ship decisions) is recorded into it
    /// and policies run in explain mode.
    pub trace: Option<Arc<QueryTrace>>,
    /// Optional shared runtime metrics (wait-scan latency, fault and
    /// outcome counters). One instance is typically shared across every
    /// query of a service.
    pub metrics: Option<Arc<RuntimeMetrics>>,
    /// Epoch of the priors snapshot this query planned against (surfaced
    /// in the trace's `QueryStart` event; 0 when priors are static).
    pub priors_epoch: u64,
}

impl RuntimeConfig {
    /// Creates a config with priors equal to the true tree and a
    /// 1 model unit = 1 ms scale.
    pub fn new(tree: TreeSpec, deadline: f64) -> Self {
        Self {
            priors: tree.clone(),
            tree,
            deadline,
            scale: TimeScale::millis(),
            model: Model::LogNormal,
            scan_steps: REFERENCE_SCAN_STEPS,
            profile: ProfileConfig::default(),
            seed: 0xCEDA2,
            faults: None,
            trace: None,
            metrics: None,
            priors_epoch: 0,
        }
    }

    /// Replaces the prior tree.
    pub fn with_priors(mut self, priors: TreeSpec) -> Self {
        self.priors = priors;
        self
    }

    /// Sets the time scale.
    pub fn with_scale(mut self, scale: TimeScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the estimator family.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Installs a fault-injection plan (and its recovery policy).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Attaches a decision trace (turns on policy explain mode).
    pub fn with_trace(mut self, trace: Arc<QueryTrace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches shared runtime metrics.
    pub fn with_metrics(mut self, metrics: Arc<RuntimeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Sets the priors epoch surfaced in the trace.
    pub fn with_priors_epoch(mut self, epoch: u64) -> Self {
        self.priors_epoch = epoch;
        self
    }
}

/// What the root collected by the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeOutcome {
    /// Fraction of process outputs included in the response.
    pub quality: f64,
    /// Number of process outputs included.
    pub included_outputs: usize,
    /// Total leaf processes.
    pub total_processes: usize,
    /// Top-level results that made the deadline.
    pub root_arrivals: usize,
    /// Sum of the included workers' partial values (the "answer" of the
    /// aggregation query).
    pub value_sum: f64,
    /// Wall-clock time from the engine's call to the outcome: the set-up
    /// (duration sampling, task spawning) and any overrun past the scaled
    /// deadline included.
    pub wall_elapsed: Duration,
    /// The per-stage durations the engine actually ran with (model
    /// units): `realized_durations[0]` is one entry per leaf process,
    /// `realized_durations[level]` one entry per aggregator at `level`.
    /// These are what an online estimator should refit from — they are
    /// the ground truth of this execution, not a fresh model draw.
    ///
    /// Under a fault plan this holds only the durations that were
    /// actually *observed* upstream (delivered and counted), sorted by
    /// task origin — crashed, hung and dropped tasks are excluded here
    /// and surface in [`RuntimeOutcome::censored_durations`] instead.
    pub realized_durations: Vec<Vec<f64>>,
    /// Per-query fault/recovery summary. [`FailureReport::is_clean`] on
    /// runs without a fault plan.
    pub failures: FailureReport,
    /// Right-censoring thresholds, same shape as `realized_durations`:
    /// `censored_durations[0]` has one entry per leaf worker that never
    /// arrived at a departed aggregator (censored at the departure
    /// time). Feeding these to a censored MLE keeps the online refit
    /// unbiased when crashes thin out the slow tail. Aggregator stages
    /// are never censored (their non-arrival is absorbed by the stage
    /// above); all stages are empty when no fault plan is installed.
    pub censored_durations: Vec<Vec<f64>>,
}

/// Runs one aggregation query; every worker contributes the value `1.0`
/// (so `value_sum == included_outputs as f64`).
pub async fn run_query(cfg: &RuntimeConfig, kind: WaitPolicyKind) -> RuntimeOutcome {
    let n = cfg.tree.total_processes();
    run_query_with_values(cfg, kind, crate::pool::ones(n)).await
}

/// Runs one aggregation query with explicit per-worker partial values
/// (`values[i]` is worker `i`'s contribution; aggregators sum them).
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count or the
/// tree has fewer than two levels (a real partition-aggregate job always
/// has at least one aggregator stage).
pub async fn run_query_with_values(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
) -> RuntimeOutcome {
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        kind,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    );
    run_query_prepared(cfg, kind, values, &prepared).await
}

/// Like [`run_query_with_values`], but reuses an already-built
/// [`PreparedContexts`]. Building one is the expensive, query-independent
/// part of setup (quality profiles + offline wait chain over the priors),
/// so callers issuing many queries against the same priors and deadline —
/// notably the aggregation service's profile cache — should build it once
/// and pass it here.
///
/// The deadline clock starts when this is called. Sampling every
/// duration and spawning the tree's tasks are spent inside `D`, and every
/// instant of the query — each leaf's completion, each aggregator's
/// timer, the root's deadline — is anchored on that one start.
///
/// # Panics
///
/// Panics if `values.len()` differs from the tree's process count, the
/// tree has fewer than two levels, or `prepared` was built for a tree
/// shape other than `cfg.tree`'s.
pub async fn run_query_prepared(
    cfg: &RuntimeConfig,
    kind: WaitPolicyKind,
    values: Arc<Vec<f64>>,
    prepared: &PreparedContexts,
) -> RuntimeOutcome {
    let n = cfg.tree.levels();
    assert!(n >= 2, "runtime queries need at least one aggregator level");
    let total_processes = cfg.tree.total_processes();
    assert_eq!(
        values.len(),
        total_processes,
        "one value per leaf process required"
    );

    // The deadline runs from the call: the set-up below is spent inside
    // it, not added on top.
    let start = Instant::now();
    let deadline_instant = start + cfg.scale.to_wall(cfg.deadline);

    // Sample all durations up front (same order as the simulator).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let process_durations = cfg.tree.stage(0).dist.sample_vec(&mut rng, total_processes);
    let agg_levels = n - 1;
    let own_durations: Vec<Vec<f64>> = (1..=agg_levels)
        .map(|level| {
            let count = cfg.tree.nodes_at(level);
            cfg.tree.stage(level).dist.sample_vec(&mut rng, count)
        })
        .collect();

    let contexts = prepared.for_query(&cfg.tree);

    // The root collector sits above the top aggregator stage, so it
    // reports as level `n`.
    let record_root = |at: f64, kind: TraceEventKind| {
        if let Some(t) = &cfg.trace {
            t.record(at, n, 0, kind);
        }
    };
    record_root(
        0.0,
        TraceEventKind::QueryStart {
            deadline: cfg.deadline,
            total_processes,
            priors_epoch: cfg.priors_epoch,
        },
    );

    // Fault wiring (none on clean runs; the clean path below is
    // byte-identical to the fault-free engine): the query's ledger, into
    // which every planned fault of the tree is booked now.
    let ledger = cfg.faults.as_ref().map(|plan| {
        let ledger = Arc::new(Ledger::new(n));
        let origin = |level| cfg.tree.origin_base(level);
        let origins: Vec<_> = (0..n).map(|l| origin(l)..origin(l + 1)).collect();
        plan.book(&origins, &ledger, cfg.trace.as_deref());
        ledger
    });
    let send = |level, index, dur| {
        (cfg.faults.as_ref()).map_or(Some((dur, 1)), |p| p.send(level, index, dur))
    };
    let hang_until = deadline_instant + cfg.scale.to_wall(1.0);
    let watchdog = cfg
        .faults
        .as_ref()
        .and_then(|plan| plan.watchdog_at(&*cfg.priors.stage(0).dist, cfg.deadline));

    // Root channel, and the count of results promised on it by the
    // deadline.
    let promised = Arc::new(AtomicUsize::new(0));
    let top_fanout = cfg.tree.stage(agg_levels - 1).fanout.max(1);
    let (root_tx, root_rx) =
        mpsc::channel::<PartialResult>(cfg.tree.nodes_at(agg_levels).max(top_fanout));

    // Build aggregator channels level by level, top-down, so each level
    // knows its parent's senders. The bottom level has none: it walks
    // its leaves' timelines.
    let mut upper_txs: Vec<mpsc::Sender<PartialResult>> = vec![root_tx];
    for level in (1..=agg_levels).rev() {
        let count = cfg.tree.nodes_at(level);
        let fan_in = cfg.tree.stage(level - 1).fanout;
        let parent_fanout = if level == agg_levels {
            // All top-level aggregators share the single root receiver.
            count
        } else {
            cfg.tree.stage(level).fanout
        };
        let mut txs = Vec::new();
        for agg in 0..count {
            let parent_tx = if level == agg_levels {
                upper_txs[0].clone()
            } else {
                upper_txs[agg / parent_fanout.max(1)].clone()
            };
            let child_base = cfg.tree.origin_base(level - 1) + agg * fan_in;
            // Only bottom-level aggregators watch for dead workers.
            let watchdog = watchdog.filter(|_| level == 1);
            let children = if level == 1 {
                let leaves = &process_durations[child_base..child_base + fan_in];
                let retries = cfg.faults.as_ref().zip(watchdog).map(|(plan, _)| Retries {
                    plan: plan.clone(),
                    dist: cfg.tree.stage(0).dist.clone(),
                    values: values.clone(),
                });
                let base = child_base;
                let timeline = leaf_timeline(cfg, start, leaves, base, &values, retries, send);
                Children::Timeline(timeline)
            } else {
                let (tx, rx) = mpsc::channel::<PartialResult>(fan_in.max(1));
                txs.push(tx);
                // Upper levels arm no watchdog.
                Children::Channel(rx, |_: &[usize]| Vec::new())
            };
            let pass = PassConfig {
                ctx: contexts[level - 1].clone(),
                kind,
                model: cfg.model,
                scale: cfg.scale,
                start,
                index: agg,
                expected: child_base..child_base + fan_in,
                watchdog,
                trace: cfg.trace.clone(),
                metrics: cfg.metrics.clone(),
                ledger: ledger.clone(),
            };
            let own = Own {
                origin: cfg.tree.origin_base(level) + agg,
                send: send(level, agg, own_durations[level - 1][agg]),
                hang_until,
                root: (level == agg_levels).then(|| (deadline_instant, promised.clone())),
            };
            // cedar-lint: allow(L10): one task per aggregator of a tree already validated against MAX_STAGES at decode; the loop bound is the tree shape, not raw client input
            tokio::spawn(aggregator_task(pass, children, parent_tx, own));
        }
        upper_txs = txs;
    }
    // Drop our clones so channels close when tasks finish.
    drop(upper_txs);

    // Root: gather the top level's results until the deadline.
    let top_base = cfg.tree.origin_base(agg_levels);
    let top = top_base..top_base + cfg.tree.nodes_at(agg_levels);
    let gathered = gather(
        root_rx,
        deadline_instant,
        top,
        Some(&promised),
        ledger.as_deref(),
        |kind| record_root(cfg.scale.to_model(start.elapsed()), kind),
    )
    .await;

    let (failures, realized_durations, censored_durations) = match &ledger {
        Some(l) => {
            // Sorted by origin; the refit path wants only the durations.
            let (failures, delivered, censored) = l.finish();
            let durations = |stages: StageLog| -> Vec<Vec<f64>> {
                stages
                    .iter()
                    .map(|stage| stage.iter().map(|&(_, d)| d).collect())
                    .collect()
            };
            (failures, durations(delivered), durations(censored))
        }
        None => {
            let mut realized = Vec::with_capacity(1 + own_durations.len());
            realized.push(process_durations);
            realized.extend(own_durations);
            (FailureReport::default(), realized, vec![Vec::new(); n])
        }
    };

    let outcome = RuntimeOutcome {
        quality: gathered.included as f64 / total_processes.max(1) as f64,
        included_outputs: gathered.included,
        total_processes,
        root_arrivals: gathered.arrivals,
        value_sum: gathered.value_sum,
        wall_elapsed: start.elapsed(),
        realized_durations,
        failures,
        censored_durations,
    };
    record_root(
        cfg.scale.to_model(outcome.wall_elapsed),
        TraceEventKind::QueryEnd {
            quality: outcome.quality,
            included: outcome.included_outputs,
            reason: gathered.reason,
        },
    );
    if let Some(m) = &cfg.metrics {
        m.observe_outcome(&outcome);
    }
    outcome
}

/// The timeline of the leaves `base..` of one bottom aggregator of a
/// query started at `start`, whose sampled durations are `durations`.
/// Each leaf lands when `send` says, as often as it says; a leaf it
/// never sends is held back, and so is one due past the deadline: nobody
/// can count either. The timeline carries `retries` for its watchdog,
/// under a fault plan.
fn leaf_timeline(
    cfg: &RuntimeConfig,
    start: Instant,
    durations: &[f64],
    base: usize,
    values: &[f64],
    retries: Option<Retries>,
    send: impl Fn(usize, usize, f64) -> Option<(f64, usize)>,
) -> Timeline {
    let deadline = start + cfg.scale.to_wall(cfg.deadline);
    let mut leaves = Vec::with_capacity(durations.len());
    let mut held_back = false;
    for (origin, &dur) in (base..).zip(durations) {
        let sent =
            send(0, origin, dur).map(|(dur, copies)| (start + cfg.scale.to_wall(dur), dur, copies));
        let Some((at, dur, copies)) = sent.filter(|&(at, ..)| at <= deadline) else {
            held_back = true;
            continue;
        };
        let arrival = PartialResult {
            payload: 1,
            value: values[origin],
            origin,
            duration: dur,
            retry: false,
        };
        leaves.push(Leaf {
            at,
            arrival,
            copies,
        });
    }
    Timeline::new(leaves, held_back, retries)
}

/// One aggregator: run the shared Pseudocode-1 pass over this
/// aggregator's `children`, then aggregate (its own duration past the
/// departure) and ship upstream, as [`FaultPlan::send`] says: a bottom
/// aggregator's only real-time wait, as its timeline pass never waits.
///
/// Under a fault plan the pass's watchdog re-executes each worker still
/// missing at the learned-quantile timeout exactly once. Once the pass
/// has departed no child is heard from again.
async fn aggregator_task(
    pass: PassConfig,
    mut children: Children<impl FnMut(&[usize]) -> Vec<usize> + Send>,
    parent_tx: mpsc::Sender<PartialResult>,
    own: Own,
) {
    let (scale, start, level) = (pass.scale, pass.start, pass.ctx.level);
    let ledger = pass.ledger.clone();
    let out = walk(pass, &mut children).await;
    let departed = start + scale.to_wall(out.departed_at);
    // A pass's channel closes here, so its children's sends fail fast.
    drop(children);
    match own.send {
        // Nothing to ship; the parent's channel stays open to the departure.
        _ if out.payload == 0 => tokio::time::sleep_until(departed).await,
        Some((duration, mut copies)) => {
            let ship = departed + scale.to_wall(duration);
            // The root counts a result by when it ships, as the simulator
            // does: one due by the deadline is promised, so the root waits
            // for it however late the host runs this task; one past it is
            // not sent.
            match &own.root {
                Some((deadline, promised)) if ship <= *deadline => {
                    promised.fetch_add(copies, Ordering::Release);
                }
                Some(_) => copies = 0,
                None => {}
            }
            tokio::time::sleep_until(ship).await;
            if let Some(l) = &ledger {
                l.delivered(level, own.origin, duration);
            }
            let msg = PartialResult {
                payload: out.payload,
                value: out.value,
                origin: own.origin,
                duration,
                retry: false,
            };
            for _ in 0..copies {
                let _ = parent_tx.send(msg).await;
            }
        }
        // Never sent: the parent cannot tell this from a hang.
        None => tokio::time::sleep_until(own.hang_until).await,
    }
    // The parent hears nothing more from here.
    drop(parent_tx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::StageSpec;
    use cedar_distrib::{LogNormal, Uniform};

    fn small_tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(2.0, 0.6).unwrap(), 8),
            StageSpec::new(LogNormal::new(2.0, 0.4).unwrap(), 4),
        )
    }

    #[tokio::test(start_paused = true)]
    async fn generous_deadline_collects_everything() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 6),
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 3),
        );
        let cfg = RuntimeConfig::new(tree, 1000.0).with_seed(1);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 18);
        assert_eq!(out.quality, 1.0);
        assert_eq!(out.root_arrivals, 3);
        assert!((out.value_sum - 18.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn zero_like_deadline_collects_nothing() {
        let cfg = RuntimeConfig::new(small_tree(), 0.001).with_seed(2);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 0);
        assert_eq!(out.quality, 0.0);
    }

    #[tokio::test(start_paused = true)]
    async fn quality_is_fraction_under_tight_deadline() {
        let cfg = RuntimeConfig::new(small_tree(), 20.0).with_seed(3);
        let out = run_query(&cfg, WaitPolicyKind::ProportionalSplit).await;
        assert!((0.0..=1.0).contains(&out.quality));
        assert_eq!(out.total_processes, 32);
    }

    #[tokio::test(start_paused = true)]
    async fn values_are_aggregated() {
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 2),
        );
        let cfg = RuntimeConfig::new(tree, 100.0).with_seed(4);
        let values: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let out = run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(values)).await;
        // 0 + 1 + ... + 7 = 28.
        assert!((out.value_sum - 28.0).abs() < 1e-9);
    }

    #[tokio::test(start_paused = true)]
    async fn cedar_beats_or_matches_bad_fixed_wait() {
        // A fixed wait of ~0 ships immediately with almost nothing;
        // Cedar must do better on the same sampled query.
        let cfg = RuntimeConfig::new(small_tree(), 40.0).with_seed(5);
        let cedar = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let hasty = run_query(&cfg, WaitPolicyKind::FixedWait(0.01)).await;
        assert!(
            cedar.included_outputs >= hasty.included_outputs,
            "cedar {} vs hasty {}",
            cedar.included_outputs,
            hasty.included_outputs
        );
    }

    #[tokio::test(start_paused = true)]
    async fn three_level_runtime_works() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(6);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.total_processes, 24);
        assert!(out.quality > 0.3, "quality {}", out.quality);
        assert!(out.root_arrivals <= 2);
    }

    #[tokio::test(start_paused = true)]
    async fn deterministic_under_seed_and_paused_time() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(7);
        let a = run_query(&cfg, WaitPolicyKind::Ideal).await;
        let b = run_query(&cfg, WaitPolicyKind::Ideal).await;
        assert_eq!(a.included_outputs, b.included_outputs);
    }

    #[tokio::test(start_paused = true)]
    async fn realized_durations_cover_every_stage() {
        let tree = TreeSpec::new(vec![
            StageSpec::new(LogNormal::new(1.5, 0.5).unwrap(), 4),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 3),
            StageSpec::new(LogNormal::new(1.5, 0.4).unwrap(), 2),
        ]);
        let cfg = RuntimeConfig::new(tree, 60.0).with_seed(11);
        let out = run_query(&cfg, WaitPolicyKind::Cedar).await;
        assert_eq!(out.realized_durations.len(), 3);
        assert_eq!(out.realized_durations[0].len(), 24);
        assert_eq!(out.realized_durations[1].len(), 6);
        assert_eq!(out.realized_durations[2].len(), 2);
        assert!(out
            .realized_durations
            .iter()
            .flatten()
            .all(|d| d.is_finite() && *d >= 0.0));
    }

    #[tokio::test(start_paused = true)]
    async fn prepared_contexts_reuse_matches_fresh_build() {
        let cfg = RuntimeConfig::new(small_tree(), 30.0).with_seed(9);
        let prepared = PreparedContexts::new(
            &cfg.priors,
            cfg.deadline,
            WaitPolicyKind::Cedar,
            cfg.model,
            cfg.scan_steps,
            &cfg.profile,
        );
        let n = cfg.tree.total_processes();
        let values = Arc::new(vec![1.0; n]);
        let fresh = run_query(&cfg, WaitPolicyKind::Cedar).await;
        let cached = run_query_prepared(&cfg, WaitPolicyKind::Cedar, values, &prepared).await;
        assert_eq!(fresh.included_outputs, cached.included_outputs);
        assert_eq!(fresh.root_arrivals, cached.root_arrivals);
        assert_eq!(fresh.realized_durations, cached.realized_durations);
    }

    /// A traced two-level run; the trace comes back beside the outcome.
    async fn traced(
        tree: TreeSpec,
        deadline: f64,
        kind: WaitPolicyKind,
    ) -> (RuntimeOutcome, Vec<cedar_telemetry::TraceEvent>) {
        let trace = Arc::new(QueryTrace::new());
        let cfg = RuntimeConfig::new(tree, deadline)
            .with_seed(12)
            .with_trace(trace.clone());
        let out = run_query(&cfg, kind).await;
        (out, trace.events())
    }

    #[tokio::test(start_paused = true)]
    async fn leaves_past_the_deadline_keep_their_aggregator_on_its_timer() {
        // Half the leaves finish within 5 units, half after the 100-unit
        // deadline. An aggregator holding both kinds has all it can get
        // by 5, but it must still wait for its timer at 50, as it would
        // with the late leaves on their way: its channel stays open.
        let leaves = cedar_distrib::Mixture::new(vec![
            (0.5, Box::new(Uniform::new(1.0, 5.0).unwrap()) as _),
            (0.5, Box::new(Uniform::new(200.0, 300.0).unwrap()) as _),
        ])
        .unwrap();
        let tree = TreeSpec::two_level(
            StageSpec::new(leaves, 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 4),
        );
        let (out, events) = traced(tree, 100.0, WaitPolicyKind::FixedWait(50.0)).await;
        let mixed: Vec<usize> = (0..4)
            .filter(|&agg| {
                let mine = &out.realized_durations[0][agg * 4..agg * 4 + 4];
                mine.iter().any(|&d| d < 5.0) && mine.iter().any(|&d| d > 100.0)
            })
            .collect();
        assert!(
            !mixed.is_empty(),
            "no aggregator holds early and late leaves"
        );
        for agg in mixed {
            let mine: Vec<_> = events
                .iter()
                .filter(|e| e.level == 1 && e.index == agg)
                .collect();
            let at_timer = |at: f64| (at - 50.0).abs() < 1e-9;
            assert!(
                mine.iter()
                    .any(|e| at_timer(e.at) && e.kind == TraceEventKind::TimerFired),
                "aggregator {agg} left before its timer: {mine:?}"
            );
            assert!(
                mine.last().is_some_and(
                    |e| at_timer(e.at) && matches!(e.kind, TraceEventKind::Departed { .. })
                ),
                "aggregator {agg}: {mine:?}"
            );
        }
    }

    #[tokio::test(start_paused = true)]
    async fn same_instant_leaves_ship_in_origin_order() {
        // Every leaf takes 5 units to well under a nanosecond of wall
        // time, so each aggregator's leaves all land at one instant.
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(5.0, 5.0 + 1e-9).unwrap(), 6),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 3),
        );
        let (out, events) = traced(tree, 100.0, WaitPolicyKind::Cedar).await;
        assert_eq!(out.included_outputs, 18);
        for agg in 0..3 {
            let origins: Vec<usize> = events
                .iter()
                .filter(|e| e.level == 1 && e.index == agg)
                .filter_map(|e| match e.kind {
                    TraceEventKind::Arrival { origin, .. } => Some(origin),
                    _ => None,
                })
                .collect();
            assert_eq!(origins, (agg * 6..agg * 6 + 6).collect::<Vec<_>>());
        }
    }

    /// What a [`lone_aggregator`]'s parent heard.
    #[derive(Debug, PartialEq)]
    struct Heard {
        /// The result shipped (origin and payload), if one was.
        shipped: Option<(usize, usize)>,
        /// When the parent's channel closed, and when the task ended.
        closed: Duration,
        ended: Duration,
        /// Results promised to the root, when its parent is the root.
        promised: usize,
    }

    /// Runs one bottom aggregator of a query started now over leaves
    /// `0..4` landing `ms` after the start (the leaf at `m` ms is origin
    /// `m - 1`; `held_back` says one more never lands), under a fixed wait
    /// of 1.5 ms; its own work takes 1 ms and ships as origin 4. Its
    /// parent is the root when `root_deadline` (ms) is given.
    async fn lone_aggregator(ms: &[u64], held_back: bool, root_deadline: Option<u64>) -> Heard {
        let t0 = Instant::now();
        let leaf = |ms: u64| Leaf {
            at: t0 + Duration::from_millis(ms),
            arrival: PartialResult {
                payload: 1,
                value: 1.0,
                origin: ms as usize - 1,
                duration: ms as f64,
                retry: false,
            },
            copies: 1,
        };
        let tree = TreeSpec::two_level(
            StageSpec::new(Uniform::new(1.0, 5.0).unwrap(), 4),
            StageSpec::new(Uniform::new(1.0, 2.0).unwrap(), 1),
        );
        let kind = WaitPolicyKind::FixedWait(1.5);
        let prepared = PreparedContexts::new(
            &tree,
            100.0,
            kind,
            Model::LogNormal,
            64,
            &ProfileConfig::default(),
        );
        let pass = PassConfig {
            ctx: prepared.for_query(&tree).remove(0),
            kind,
            model: Model::LogNormal,
            scale: TimeScale::millis(),
            start: t0,
            index: 0,
            expected: 0..4,
            watchdog: None,
            trace: None,
            metrics: None,
            ledger: Some(Arc::new(Ledger::new(2))),
        };
        let promised = Arc::new(AtomicUsize::new(0));
        let own = Own {
            origin: 4,
            send: Some((1.0, 1)),
            hang_until: t0 + Duration::from_millis(100),
            root: root_deadline.map(|d| (t0 + Duration::from_millis(d), promised.clone())),
        };
        let (parent_tx, mut parent_rx) = mpsc::channel(1);
        let timeline = Timeline::new(ms.iter().map(|&m| leaf(m)).collect(), held_back, None);
        let children: Children = Children::Timeline(timeline);
        let task = tokio::spawn(aggregator_task(pass, children, parent_tx, own));
        let shipped = parent_rx.recv().await.map(|m| (m.origin, m.payload));
        while parent_rx.recv().await.is_some() {}
        let closed = t0.elapsed();
        task.await.unwrap();
        Heard {
            shipped,
            closed,
            ended: t0.elapsed(),
            promised: promised.load(Ordering::Acquire),
        }
    }

    #[tokio::test(start_paused = true)]
    async fn a_departed_aggregator_wakes_for_none_of_its_leaves() {
        // Leaves at 1, 2, 3 and 4 ms; the fixed wait departs the
        // aggregator at 1.5 ms with the first, and its own work ships at
        // 2.5 ms. The task ends there: the leaves at 2 and 4 ms are never
        // woken for, nor is the one at 3 ms when it crashes before its
        // send (held back, as a hang is).
        for crashed in [false, true] {
            let ms: Vec<u64> = [1, 2, 3, 4]
                .into_iter()
                .filter(|&m| !crashed || m != 3)
                .collect();
            let heard = lone_aggregator(&ms, crashed, None).await;
            let shipped_at = Duration::from_micros(2500);
            assert_eq!(
                heard,
                Heard {
                    shipped: Some((4, 1)),
                    closed: shipped_at,
                    ended: shipped_at,
                    promised: 0,
                }
            );
        }
    }

    #[tokio::test(start_paused = true)]
    async fn an_empty_departure_holds_the_parents_channel_until_its_instant() {
        // Both leaves land after the fixed wait: the pass departs at
        // 1.5 ms with nothing, in model time, before the clock moves. Its
        // parent's channel must stay open until then, as it would while
        // the aggregator waited; closing it at once would tell the parent
        // that nothing more can come before the aggregator left.
        let heard = lone_aggregator(&[2, 3], false, None).await;
        let departed = Duration::from_micros(1500);
        assert_eq!(
            heard,
            Heard {
                shipped: None,
                closed: departed,
                ended: departed,
                promised: 0,
            }
        );
    }

    #[tokio::test(start_paused = true)]
    async fn a_top_level_result_is_promised_to_the_root_by_its_ship() {
        // The result ships at 2.5 ms. Under a root deadline of 3 ms it is
        // promised when the pass departs, then sent; under one of 2 ms
        // the root could not count it, so it is not sent, and the
        // channel stays open to the ship all the same.
        let shipped_at = Duration::from_micros(2500);
        for (deadline, shipped, promised) in [(3, Some((4, 1)), 1), (2, None, 0)] {
            let heard = lone_aggregator(&[1, 2], false, Some(deadline)).await;
            let want = Heard {
                shipped,
                closed: shipped_at,
                ended: shipped_at,
                promised,
            };
            assert_eq!(heard, want, "root deadline {deadline} ms");
        }
    }

    #[test]
    #[should_panic(expected = "one value per leaf")]
    fn rejects_wrong_value_count() {
        let rt = tokio::runtime::Builder::new_current_thread()
            .enable_time()
            .build()
            .unwrap();
        rt.block_on(async {
            let cfg = RuntimeConfig::new(small_tree(), 30.0);
            run_query_with_values(&cfg, WaitPolicyKind::Cedar, Arc::new(vec![1.0])).await;
        });
    }
}
