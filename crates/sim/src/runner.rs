//! Simulation configuration and batch-run helpers.

use crate::engine;
use crate::metrics::{PolicyComparison, QueryOutcome};
use cedar_core::policy::WaitPolicyKind;
use cedar_core::profile::ProfileConfig;
use cedar_core::wait::REFERENCE_SCAN_STEPS;
use cedar_core::{PreparedContexts, TreeSpec};
use cedar_estimate::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Straggler-mitigation model: speculative re-execution of slow
/// processes, as deployed in the clusters the paper's traces come from
/// (LATE/Mantri-style). A process whose duration would exceed the
/// per-query distribution's `launch_quantile` gets a speculative copy at
/// that time; the effective duration is the earlier finisher
/// (`min(original, launch_time + fresh_sample)`), matching the paper's
/// note that the loser copy is killed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationConfig {
    /// Quantile of the per-query duration distribution at which a
    /// speculative copy launches (e.g. 0.9).
    pub launch_quantile: f64,
}

impl SpeculationConfig {
    /// Creates a config; the quantile must be in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range quantile.
    pub fn new(launch_quantile: f64) -> Self {
        assert!(
            launch_quantile > 0.0 && launch_quantile < 1.0,
            "speculation quantile must be in (0, 1)"
        );
        Self { launch_quantile }
    }
}

/// Everything needed to simulate one query.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The query's true stage distributions and fan-outs.
    pub tree: TreeSpec,
    /// The population-level tree the policies believe in (defaults to
    /// `tree`; experiments with per-query variation pass the population
    /// fit here).
    pub priors: TreeSpec,
    /// End-to-end deadline `D`.
    pub deadline: f64,
    /// Family assumed by Cedar's online estimator.
    pub model: Model,
    /// The finest ε-scan resolution allowed for wait optimization: each
    /// prepared context scans the coarsest grid nested in it that its
    /// loss bound allows ([`PreparedContexts::new`]).
    pub scan_steps: usize,
    /// Quality-profile tabulation resolution.
    pub profile: ProfileConfig,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-process output weights (Appendix A's weighted-quality model).
    /// `None` means unit weights; otherwise one weight per leaf process.
    pub weights: Option<std::sync::Arc<Vec<f64>>>,
    /// Optional straggler-mitigation (speculation) model applied to the
    /// process stage.
    pub speculation: Option<SpeculationConfig>,
}

impl SimConfig {
    /// Creates a config where the policies know the true distributions
    /// (no per-query variation).
    pub fn new(tree: TreeSpec, deadline: f64) -> Self {
        Self {
            priors: tree.clone(),
            tree,
            deadline,
            model: Model::LogNormal,
            scan_steps: REFERENCE_SCAN_STEPS,
            profile: ProfileConfig::default(),
            seed: 0xCEDA2,
            weights: None,
            speculation: None,
        }
    }

    /// Replaces the population tree the policies learn offline.
    pub fn with_priors(mut self, priors: TreeSpec) -> Self {
        self.priors = priors;
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

    /// Sets the finest ε-scan resolution allowed (at least 10 steps).
    pub fn with_scan_steps(mut self, steps: usize) -> Self {
        self.scan_steps = steps.max(10);
        self
    }

    /// Sets the profile tabulation resolution.
    pub fn with_profile(mut self, profile: ProfileConfig) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches per-process output weights (Appendix A). The vector
    /// length must equal the tree's process count (checked at execution).
    pub fn with_weights(mut self, weights: std::sync::Arc<Vec<f64>>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Enables speculative straggler mitigation on the process stage.
    pub fn with_speculation(mut self, spec: SpeculationConfig) -> Self {
        self.speculation = Some(spec);
        self
    }
}

/// Simulates a single query under `kind`, seeding the RNG from
/// `cfg.seed`.
pub fn simulate_query(cfg: &SimConfig, kind: WaitPolicyKind) -> QueryOutcome {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    engine::execute(cfg, kind, &mut rng)
}

/// Simulates `trials` independent queries (seeds `seed..seed+trials`),
/// returning per-query outcomes.
///
/// Matched seeds across policies mean matched randomness: comparing two
/// policies with the same config compares them on identical queries.
pub fn run_trials(cfg: &SimConfig, kind: WaitPolicyKind, trials: usize) -> Vec<QueryOutcome> {
    (0..trials)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
            engine::execute(cfg, kind, &mut rng)
        })
        .collect()
}

/// Runs `candidate` and `baseline` on identical query sets and compares
/// them (Fig. 8-style filtering with the paper's 5% baseline-quality
/// threshold).
pub fn compare_policies(
    cfg: &SimConfig,
    candidate: WaitPolicyKind,
    baseline: WaitPolicyKind,
    trials: usize,
) -> PolicyComparison {
    let cand = run_trials(cfg, candidate, trials);
    let base = run_trials(cfg, baseline, trials);
    PolicyComparison::new(candidate.name(), baseline.name(), &cand, &base, 0.05)
}

/// Runs `trials` queries of a [`Workload`](cedar_workloads::Workload): each trial draws a fresh true
/// tree from the workload's per-query generator (seeded, so different
/// policies replay identical query sequences) and simulates it.
///
/// The prior contexts (quality profiles, offline waits) are built once
/// and shared across trials, mirroring how a deployed system learns them
/// offline.
pub fn run_workload(
    workload: &cedar_workloads::Workload,
    cfg: &SimConfig,
    kind: WaitPolicyKind,
    trials: usize,
) -> Vec<QueryOutcome> {
    let base = cfg.clone().with_priors(workload.priors.clone());
    let prepared = PreparedContexts::new(
        &base.priors,
        base.deadline,
        kind,
        base.model,
        base.scan_steps,
        &base.profile,
    );
    (0..trials)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(base.seed.wrapping_add(i as u64));
            let mut qcfg = base.clone();
            qcfg.tree = workload.query_tree(&mut rng);
            crate::engine::execute_prepared(&qcfg, kind, &mut rng, &prepared)
        })
        .collect()
}

/// [`run_workload`] for candidate and baseline on identical query
/// sequences, compared with the paper's Fig. 8 filtering.
pub fn compare_on_workload(
    workload: &cedar_workloads::Workload,
    cfg: &SimConfig,
    candidate: WaitPolicyKind,
    baseline: WaitPolicyKind,
    trials: usize,
) -> PolicyComparison {
    let cand = run_workload(workload, cfg, candidate, trials);
    let base = run_workload(workload, cfg, baseline, trials);
    PolicyComparison::new(candidate.name(), baseline.name(), &cand, &base, 0.05)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::StageSpec;
    use cedar_distrib::LogNormal;

    fn tree() -> TreeSpec {
        TreeSpec::two_level(
            StageSpec::new(LogNormal::new(1.0, 0.7).unwrap(), 10),
            StageSpec::new(LogNormal::new(1.2, 0.4).unwrap(), 8),
        )
    }

    #[test]
    fn run_trials_is_deterministic() {
        let cfg = SimConfig::new(tree(), 25.0).with_seed(42);
        let a = run_trials(&cfg, WaitPolicyKind::ProportionalSplit, 5);
        let b = run_trials(&cfg, WaitPolicyKind::ProportionalSplit, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SimConfig::new(tree(), 25.0);
        let a = simulate_query(&cfg.clone().with_seed(1), WaitPolicyKind::Cedar);
        let b = simulate_query(&cfg.with_seed(2), WaitPolicyKind::Cedar);
        // Not a hard guarantee, but overwhelmingly likely for 80 samples.
        assert_ne!(a.level1_departures, b.level1_departures);
    }

    #[test]
    fn comparison_runs() {
        let cfg = SimConfig::new(tree(), 20.0)
            .with_seed(7)
            .with_scan_steps(100);
        let cmp = compare_policies(
            &cfg,
            WaitPolicyKind::Cedar,
            WaitPolicyKind::ProportionalSplit,
            8,
        );
        assert_eq!(cmp.candidate_name, "Cedar");
        assert!((0.0..=1.0).contains(&cmp.candidate_quality));
        assert!((0.0..=1.0).contains(&cmp.baseline_quality));
    }

    #[test]
    fn ideal_beats_or_matches_fixed_waits_on_average() {
        // The oracle should not lose to arbitrary fixed waits by more than
        // sampling noise.
        let cfg = SimConfig::new(tree(), 15.0)
            .with_seed(21)
            .with_scan_steps(150);
        let ideal = crate::metrics::mean_quality(&run_trials(&cfg, WaitPolicyKind::Ideal, 40));
        for w in [1.0, 5.0, 12.0] {
            let fixed =
                crate::metrics::mean_quality(&run_trials(&cfg, WaitPolicyKind::FixedWait(w), 40));
            assert!(ideal >= fixed - 0.05, "ideal {ideal} vs fixed({w}) {fixed}");
        }
    }
}
