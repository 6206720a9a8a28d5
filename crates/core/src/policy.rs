//! Wait policies: Cedar, the paper's straw-man baselines, the Ideal
//! oracle, and the ablation variants.
//!
//! A policy decides, for one aggregator and one query, the absolute time
//! (measured from query start) at which the aggregator stops waiting and
//! ships its partial result upstream. Policies may revise the decision on
//! every arrival (Cedar does — that is its online learning); the
//! state machine driving timers lives in [`crate::aggregator`].

use crate::profile::QualityProfile;
use crate::wait::{calculate_wait_with_grid, coarsest_stride, gain_loss_at, QupGrid, WaitDecision};
use cedar_distrib::ContinuousDist;
use cedar_estimate::{
    CedarEstimator, DurationEstimator, EmpiricalEstimator, Model, PairwiseCedarEstimator,
};
use std::sync::{Arc, OnceLock};

/// Everything a policy may consult when choosing a wait.
///
/// `prior_lower` is the *population* arrival-time distribution of this
/// aggregator's inputs, learned offline from completed queries (§4.1:
/// upper-level distributions vary little across queries, so they are
/// learned offline; the bottom level additionally gets per-query online
/// learning). For a bottom-level aggregator the inputs are the processes
/// themselves (`X_1`); for higher levels the inputs are lower aggregators'
/// shipped results, so the arrival distribution embeds the lower level's
/// departure time.
#[derive(Debug, Clone)]
pub struct PolicyContext {
    /// End-to-end deadline `D`, common knowledge across the tree.
    pub deadline: f64,
    /// Fan-in of this aggregator (`k` of the stage below).
    pub fanout: usize,
    /// Upstream quality profile `q_{m}` covering every stage above this
    /// aggregator.
    pub upper: Arc<QualityProfile>,
    /// Population arrival-time distribution of this aggregator's inputs.
    pub prior_lower: Arc<dyn ContinuousDist>,
    /// The query's *true* arrival-time distribution, if an oracle is
    /// allowed to see it (used by [`WaitPolicyKind::Ideal`]).
    pub true_lower: Option<Arc<dyn ContinuousDist>>,
    /// Sum of mean stage durations up to and including the stage feeding
    /// this aggregator (numerator of Proportional-split).
    pub mean_below: f64,
    /// Sum of mean stage durations across all stages (denominator of
    /// Proportional-split).
    pub mean_total: f64,
    /// This aggregator's level, 1-based from the bottom.
    pub level: usize,
    /// Total number of stages `n`.
    pub levels_total: usize,
    /// ε-scan resolution: `epsilon = deadline / scan_steps`. A context
    /// is built with the finest resolution allowed;
    /// [`PolicyContext::choose_scan_steps`] replaces it with the coarsest
    /// one its prior's loss bound allows.
    pub scan_steps: usize,
    /// Memo of the upstream quality function on the ε-grid of
    /// `scan_steps` steps: built on the first scan, or filled by
    /// [`PolicyContext::choose_scan_steps`].
    ///
    /// `upper` and `deadline` are fixed for the life of a context, and
    /// `scan_steps` once chosen, so the grid is computed once and then
    /// shared: cloning the context — as the runtime's prepared-context
    /// cache does per query — clones the initialized cell, so every
    /// arrival of every query on the same (priors epoch, deadline) reuses
    /// one table. Construct with [`OnceLock::new`].
    pub qup_grid: OnceLock<Arc<QupGrid>>,
    /// Lazily computed memo of the scan against `prior_lower`, the
    /// decision every aggregator of every query makes before its first
    /// arrival ([`PolicyContext::prior_scan`]). Like `qup_grid` it is
    /// filled once — by the probe in
    /// [`PreparedContexts::new`](crate::PreparedContexts::new) — and
    /// carried by every clone. Construct with [`OnceLock::new`].
    pub prior_decision: OnceLock<WaitDecision>,
}

impl PolicyContext {
    fn epsilon(&self) -> f64 {
        (self.deadline / self.scan_steps as f64).max(f64::MIN_POSITIVE)
    }

    /// The memoized upstream quality grid, built on first use.
    fn grid(&self) -> &Arc<QupGrid> {
        self.qup_grid.get_or_init(|| {
            Arc::new(QupGrid::build(self.deadline, self.epsilon(), |rem| {
                self.upper.eval(rem)
            }))
        })
    }

    /// Runs the CALCULATEWAIT scan against an arbitrary lower
    /// distribution, memoizing the upstream quality grid on first use.
    pub fn scan(&self, lower: &dyn ContinuousDist) -> WaitDecision {
        if self.deadline <= 0.0 {
            return WaitDecision {
                wait: 0.0,
                quality: 0.0,
            };
        }
        calculate_wait_with_grid(lower, self.fanout, self.grid())
    }

    /// Sets `scan_steps` and the grid memo to the coarsest grid whose
    /// loss bound on `prior_lower` is within
    /// [`SCAN_TOLERANCE`](crate::wait::SCAN_TOLERANCE)
    /// ([`coarsest_stride`]), and empties `prior_decision`.
    ///
    /// The choice is made against the reference grid: the one the memo's
    /// grid was cut from, else the grid of `scan_steps` steps, built
    /// here. So a context whose `prior_lower` is replaced after a choice
    /// can choose again, and gets what a fresh build would; a memo that
    /// is already the chosen cut is kept.
    pub fn choose_scan_steps(&mut self) {
        if self.deadline <= 0.0 {
            return;
        }
        let current = Arc::clone(self.grid());
        let reference = current.reference();
        let stride = coarsest_stride(&*self.prior_lower, self.fanout, &reference);
        let grid = if stride == 1 {
            reference
        } else if current.steps() * stride == reference.steps() {
            current
        } else {
            Arc::new(reference.strided(stride))
        };
        self.scan_steps = grid.steps();
        self.qup_grid = OnceLock::from(grid);
        self.prior_decision = OnceLock::new();
    }

    /// [`PolicyContext::scan`] against `prior_lower`, computed on first
    /// use and then read from `prior_decision`.
    pub fn prior_scan(&self) -> WaitDecision {
        *self
            .prior_decision
            .get_or_init(|| self.scan(&self.prior_lower))
    }

    /// Marginal quality gain/loss of the ε-step ending at `wait`, using
    /// the same memoized upstream grid as [`PolicyContext::scan`]. The
    /// explain-path probe behind [`DecisionDetail`]; not on the default
    /// hot path.
    pub fn gain_loss(&self, lower: &dyn ContinuousDist, wait: f64) -> (f64, f64) {
        if self.deadline <= 0.0 {
            return (0.0, 0.0);
        }
        gain_loss_at(lower, self.fanout, self.grid(), wait)
    }
}

/// A snapshot of the inputs and outputs of one wait decision, captured
/// by policies when explain mode is on (see [`WaitPolicy::set_explain`]).
/// The runtime turns these into decision-trace events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionDetail {
    /// Estimated location parameter of the input distribution.
    pub mu: f64,
    /// Estimated scale parameter of the input distribution.
    pub sigma: f64,
    /// Samples behind the estimate.
    pub samples: usize,
    /// The chosen wait `t`.
    pub wait: f64,
    /// Expected quality `q(t)` at the chosen wait.
    pub expected_quality: f64,
    /// Marginal quality gain at the chosen ε-step.
    pub gain: f64,
    /// Marginal quality loss at the chosen ε-step.
    pub loss: f64,
}

/// A per-(aggregator, query) wait decision maker.
pub trait WaitPolicy: Send + std::fmt::Debug {
    /// The wait chosen before any arrival has been observed, as an
    /// absolute time from query start.
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64;

    /// Notifies the policy of an input arriving at absolute time
    /// `arrival`. Returns `Some(new_wait)` to revise the departure time,
    /// `None` to keep the current one.
    fn on_arrival(&mut self, ctx: &PolicyContext, arrival: f64) -> Option<f64>;

    /// Asks the policy to capture a [`DecisionDetail`] on every revision.
    /// Off by default; policies without online learning may ignore it.
    fn set_explain(&mut self, _on: bool) {}

    /// The detail captured by the most recent revision, if explain mode
    /// is on and the policy recomputed at least once.
    fn last_detail(&self) -> Option<DecisionDetail> {
        None
    }
}

/// Which estimator Cedar runs online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EstimatorKind {
    /// Least-squares over all order-statistic equations (default).
    #[default]
    OrderStats,
    /// The paper's literal consecutive-pair averaging.
    PairwiseOrderStats,
    /// Biased empirical moments (the Fig. 10 ablation).
    Empirical,
    /// Exact Type-II censored MLE (the expensive alternative the paper
    /// declines; see `cedar_estimate::censored`).
    CensoredMle,
}

/// Serializable policy selector; [`WaitPolicyKind::instantiate`] builds a
/// fresh policy per aggregator per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WaitPolicyKind {
    /// Cedar: online learning + optimal wait (the paper's contribution).
    Cedar,
    /// Cedar with an explicit estimator choice (ablation studies).
    CedarWith(EstimatorKind),
    /// Cedar with an explicit re-optimization cadence: wait for
    /// `min_samples` arrivals, then re-scan every `every`-th arrival
    /// (ablation studies; `Cedar` is `min_samples = 3, every = 1`).
    CedarCadence {
        /// Arrivals before the first re-optimization.
        min_samples: usize,
        /// Re-optimize every this many arrivals thereafter.
        every: usize,
    },
    /// Fully custom Cedar: estimator and cadence both explicit.
    CedarCustom {
        /// Which online estimator feeds the scan.
        estimator: EstimatorKind,
        /// Arrivals before the first re-optimization.
        min_samples: usize,
        /// Re-optimize every this many arrivals thereafter.
        every: usize,
    },
    /// Cedar's scan fed by the biased empirical estimator (Fig. 10).
    CedarEmpirical,
    /// Cedar's scan computed once from the offline prior, never revised
    /// online (Fig. 11's "without online learning").
    CedarOffline,
    /// Oracle: Cedar's scan fed the query's true distribution (§3).
    Ideal,
    /// Straw-man: split `D` across levels proportionally to mean stage
    /// durations (§3.1, deployed at Google per the paper's reference 18).
    ProportionalSplit,
    /// Straw-man: split `D` equally across levels.
    EqualSplit,
    /// Straw-man: wait `D` minus the mean durations of the stages above.
    SubtractUpper,
    /// Fixed absolute wait (useful for sweeps and tests).
    FixedWait(f64),
}

impl WaitPolicyKind {
    /// Builds a fresh policy instance. `model` selects the distribution
    /// family Cedar's online estimator assumes.
    pub fn instantiate(&self, fanout: usize, model: Model) -> Box<dyn WaitPolicy> {
        match *self {
            WaitPolicyKind::Cedar => {
                Box::new(CedarPolicy::new(fanout, model, EstimatorKind::OrderStats))
            }
            WaitPolicyKind::CedarWith(est) => Box::new(CedarPolicy::new(fanout, model, est)),
            WaitPolicyKind::CedarCadence { min_samples, every } => Box::new(
                CedarPolicy::new(fanout, model, EstimatorKind::OrderStats)
                    .with_cadence(min_samples, every),
            ),
            WaitPolicyKind::CedarCustom {
                estimator,
                min_samples,
                every,
            } => Box::new(
                CedarPolicy::new(fanout, model, estimator).with_cadence(min_samples, every),
            ),
            WaitPolicyKind::CedarEmpirical => {
                Box::new(CedarPolicy::new(fanout, model, EstimatorKind::Empirical))
            }
            WaitPolicyKind::CedarOffline => Box::new(CedarOfflinePolicy),
            WaitPolicyKind::Ideal => Box::new(IdealPolicy),
            WaitPolicyKind::ProportionalSplit => Box::new(ProportionalSplitPolicy),
            WaitPolicyKind::EqualSplit => Box::new(EqualSplitPolicy),
            WaitPolicyKind::SubtractUpper => Box::new(SubtractUpperPolicy),
            WaitPolicyKind::FixedWait(w) => Box::new(FixedWaitPolicy(w)),
        }
    }

    /// Human-readable name matching the paper's terminology.
    pub fn name(&self) -> &'static str {
        match self {
            WaitPolicyKind::Cedar => "Cedar",
            WaitPolicyKind::CedarWith(EstimatorKind::OrderStats) => "Cedar (regression)",
            WaitPolicyKind::CedarWith(EstimatorKind::PairwiseOrderStats) => "Cedar (pairwise)",
            WaitPolicyKind::CedarWith(EstimatorKind::Empirical) => "Cedar (empirical)",
            WaitPolicyKind::CedarWith(EstimatorKind::CensoredMle) => "Cedar (censored MLE)",
            WaitPolicyKind::CedarCadence { .. } => "Cedar (cadence)",
            WaitPolicyKind::CedarCustom { .. } => "Cedar (custom)",
            WaitPolicyKind::CedarEmpirical => "Cedar (empirical estimates)",
            WaitPolicyKind::CedarOffline => "Cedar (no online learning)",
            WaitPolicyKind::Ideal => "Ideal",
            WaitPolicyKind::ProportionalSplit => "Proportional-split",
            WaitPolicyKind::EqualSplit => "Equal-split",
            WaitPolicyKind::SubtractUpper => "Subtract-upper",
            WaitPolicyKind::FixedWait(_) => "Fixed-wait",
        }
    }
}

/// Cedar (Pseudocode 1): start from the offline prior, then re-estimate
/// the input distribution on every arrival and re-run CALCULATEWAIT.
#[derive(Debug)]
pub struct CedarPolicy {
    estimator: Box<dyn DurationEstimator>,
    /// Re-run the scan only when at least this many inputs have arrived
    /// (two-parameter estimates need two points; the first few are very
    /// noisy).
    min_samples: usize,
    /// Re-run the scan every `recompute_every` arrivals past
    /// `min_samples` (1 = every arrival, the paper's behaviour).
    recompute_every: usize,
    arrivals_seen: usize,
    /// When set, each recomputation also records a [`DecisionDetail`]
    /// (including the gain/loss probe, an extra partial scan) — only the
    /// explain path pays for it.
    explain: bool,
    detail: Option<DecisionDetail>,
}

impl CedarPolicy {
    /// Creates the policy with the default cadence (re-optimize on every
    /// arrival once three samples are in).
    pub fn new(fanout: usize, model: Model, estimator: EstimatorKind) -> Self {
        let estimator: Box<dyn DurationEstimator> = match estimator {
            EstimatorKind::OrderStats => Box::new(CedarEstimator::new(fanout.max(2), model)),
            EstimatorKind::PairwiseOrderStats => {
                Box::new(PairwiseCedarEstimator::new(fanout.max(2), model))
            }
            EstimatorKind::Empirical => Box::new(EmpiricalEstimator::new(model)),
            EstimatorKind::CensoredMle => Box::new(cedar_estimate::CensoredMleEstimator::new(
                fanout.max(2),
                model,
            )),
        };
        Self {
            estimator,
            min_samples: 3,
            recompute_every: 1,
            arrivals_seen: 0,
            explain: false,
            detail: None,
        }
    }

    /// Overrides the re-optimization cadence.
    pub fn with_cadence(mut self, min_samples: usize, recompute_every: usize) -> Self {
        self.min_samples = min_samples.max(2);
        self.recompute_every = recompute_every.max(1);
        self
    }
}

impl WaitPolicy for CedarPolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        ctx.prior_scan().wait
    }

    fn on_arrival(&mut self, ctx: &PolicyContext, arrival: f64) -> Option<f64> {
        self.estimator.observe(arrival);
        self.arrivals_seen += 1;
        if self.arrivals_seen < self.min_samples
            || !(self.arrivals_seen - self.min_samples).is_multiple_of(self.recompute_every)
        {
            return None;
        }
        let est = self.estimator.estimate()?;
        est.with_dist(|dist| {
            let dec = ctx.scan(dist);
            if self.explain {
                let (gain, loss) = ctx.gain_loss(dist, dec.wait);
                self.detail = Some(DecisionDetail {
                    mu: est.mu,
                    sigma: est.sigma,
                    samples: self.arrivals_seen,
                    wait: dec.wait,
                    expected_quality: dec.quality,
                    gain,
                    loss,
                });
            }
            dec.wait
        })
        .ok()
    }

    fn set_explain(&mut self, on: bool) {
        self.explain = on;
    }

    fn last_detail(&self) -> Option<DecisionDetail> {
        self.detail
    }
}

/// The Ideal oracle: runs the same scan as Cedar but against the query's
/// true input distribution, known a priori (§3). Upper bound on any
/// learning scheme.
#[derive(Debug)]
pub struct IdealPolicy;

impl WaitPolicy for IdealPolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        let lower = ctx.true_lower.as_ref().unwrap_or(&ctx.prior_lower);
        ctx.scan(lower).wait
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

/// Cedar's scan from the stale offline prior, never revised online — the
/// Fig. 11 ablation showing why online learning matters under load shift.
#[derive(Debug)]
pub struct CedarOfflinePolicy;

impl WaitPolicy for CedarOfflinePolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        ctx.prior_scan().wait
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

/// Proportional-split (§3.1): wait at a level-`j` aggregator is the
/// deadline share of all stages up to and including its inputs:
/// `D * sum(mu_1..mu_j) / sum(mu_1..mu_n)`.
#[derive(Debug)]
pub struct ProportionalSplitPolicy;

impl WaitPolicy for ProportionalSplitPolicy {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-safe: catches non-finite totals
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        if !(ctx.mean_total > 0.0) {
            return ctx.deadline;
        }
        let ratio = ctx.mean_below / ctx.mean_total;
        if !ratio.is_finite() {
            // Heavy tails can make stage means infinite (e.g. Pareto with
            // shape <= 1); an even split is the only defensible fallback.
            return ctx.deadline * ctx.level as f64 / ctx.levels_total as f64;
        }
        ctx.deadline * ratio.clamp(0.0, 1.0)
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

/// Equal-split: level-`j` aggregator departs at `D * j / n`.
#[derive(Debug)]
pub struct EqualSplitPolicy;

impl WaitPolicy for EqualSplitPolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        ctx.deadline * ctx.level as f64 / ctx.levels_total as f64
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

/// Subtract-upper: wait `D` minus the mean time the stages above will
/// need — the other straw-man footnoted in §3.1.
#[derive(Debug)]
pub struct SubtractUpperPolicy;

impl WaitPolicy for SubtractUpperPolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        let upper_mean = ctx.mean_total - ctx.mean_below;
        if !upper_mean.is_finite() {
            // Infinite upper-stage mean: no budget is ever "enough";
            // fold immediately rather than propagate a NaN wait.
            return 0.0;
        }
        (ctx.deadline - upper_mean).max(0.0)
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

/// A fixed absolute wait; clamped to the deadline.
#[derive(Debug)]
pub struct FixedWaitPolicy(pub f64);

impl WaitPolicy for FixedWaitPolicy {
    fn initial_wait(&mut self, ctx: &PolicyContext) -> f64 {
        self.0.clamp(0.0, ctx.deadline)
    }

    fn on_arrival(&mut self, _ctx: &PolicyContext, _arrival: f64) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::QualityProfile;
    use cedar_distrib::LogNormal;

    fn ctx_two_level(deadline: f64) -> PolicyContext {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let upper = QualityProfile::single(&x2, deadline, 512);
        PolicyContext {
            deadline,
            fanout: 50,
            upper: Arc::new(upper),
            prior_lower: Arc::new(x1),
            true_lower: None,
            mean_below: x1.mean(),
            mean_total: x1.mean() + x2.mean(),
            level: 1,
            levels_total: 2,
            scan_steps: 300,
            qup_grid: OnceLock::new(),
            prior_decision: OnceLock::new(),
        }
    }

    #[test]
    fn proportional_split_formula() {
        let ctx = ctx_two_level(1000.0);
        let mut p = ProportionalSplitPolicy;
        let w = p.initial_wait(&ctx);
        let want = 1000.0 * ctx.mean_below / ctx.mean_total;
        assert!((w - want).abs() < 1e-9);
        assert!(p.on_arrival(&ctx, 5.0).is_none());
    }

    #[test]
    fn equal_split_formula() {
        let ctx = ctx_two_level(1000.0);
        let mut p = EqualSplitPolicy;
        assert!((p.initial_wait(&ctx) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn subtract_upper_formula() {
        let ctx = ctx_two_level(1000.0);
        let mut p = SubtractUpperPolicy;
        let upper_mean = ctx.mean_total - ctx.mean_below;
        assert!((p.initial_wait(&ctx) - (1000.0 - upper_mean)).abs() < 1e-9);
    }

    #[test]
    fn subtract_upper_clamps_at_zero() {
        let mut ctx = ctx_two_level(10.0);
        ctx.mean_total = ctx.mean_below + 100.0;
        let mut p = SubtractUpperPolicy;
        assert_eq!(p.initial_wait(&ctx), 0.0);
    }

    #[test]
    fn fixed_wait_clamps_to_deadline() {
        let ctx = ctx_two_level(100.0);
        let mut p = FixedWaitPolicy(1e9);
        assert_eq!(p.initial_wait(&ctx), 100.0);
        let mut p = FixedWaitPolicy(-5.0);
        assert_eq!(p.initial_wait(&ctx), 0.0);
    }

    /// A context where the wait decision is genuinely sensitive to the
    /// lower distribution: the deadline is tight enough that the lower
    /// stage's arrival mass overlaps the window where shipping upstream
    /// becomes risky (the `q_up` knee).
    fn ctx_knee() -> PolicyContext {
        let x1 = LogNormal::new(0.5, 0.5).unwrap(); // fast prior, median 1.6
        let x2 = LogNormal::new(2.0, 0.6).unwrap(); // wide upper stage
        let deadline = 40.0;
        PolicyContext {
            deadline,
            fanout: 50,
            upper: Arc::new(QualityProfile::single(&x2, deadline, 512)),
            prior_lower: Arc::new(x1),
            true_lower: None,
            mean_below: x1.mean(),
            mean_total: x1.mean() + x2.mean(),
            level: 1,
            levels_total: 2,
            scan_steps: 800,
            qup_grid: OnceLock::new(),
            prior_decision: OnceLock::new(),
        }
    }

    #[test]
    fn ideal_uses_true_distribution_when_present() {
        let mut ctx = ctx_knee();
        let mut ideal = IdealPolicy;
        let w_prior = ideal.initial_wait(&ctx);
        // The oracle learns the query is much slower (median 13.5 vs 1.6):
        // its arrivals keep coming inside the risk window, so it should
        // hold the fold longer.
        ctx.true_lower = Some(Arc::new(LogNormal::new(2.6, 0.5).unwrap()));
        let w_true = ideal.initial_wait(&ctx);
        assert!(
            w_true > w_prior + 2.0,
            "true-dist wait {w_true} vs prior wait {w_prior}"
        );
    }

    #[test]
    fn cedar_initial_equals_offline_initial() {
        let ctx = ctx_two_level(1000.0);
        let mut cedar = CedarPolicy::new(50, Model::LogNormal, EstimatorKind::OrderStats);
        let mut offline = CedarOfflinePolicy;
        assert_eq!(cedar.initial_wait(&ctx), offline.initial_wait(&ctx));
    }

    #[test]
    fn cedar_adapts_to_slow_arrivals() {
        // Arrivals drawn from a much slower distribution than the prior:
        // after enough arrivals Cedar must push its wait out (Fig. 11's
        // load-increase scenario).
        let ctx = ctx_knee();
        let slow = LogNormal::new(2.6, 0.5).unwrap();
        let mut cedar = CedarPolicy::new(50, Model::LogNormal, EstimatorKind::OrderStats);
        let w0 = cedar.initial_wait(&ctx);
        let mut arrivals: Vec<f64> = {
            use cedar_distrib::ContinuousDist;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            slow.sample_vec(&mut rng, 50)
        };
        arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = None;
        for &t in arrivals.iter().take(15) {
            if let Some(w) = cedar.on_arrival(&ctx, t) {
                last = Some(w);
            }
        }
        let w = last.expect("cedar should have recomputed");
        assert!(w > w0 + 2.0, "adapted wait {w} vs initial {w0}");
    }

    #[test]
    fn cedar_respects_cadence() {
        let ctx = ctx_two_level(1000.0);
        let mut cedar =
            CedarPolicy::new(50, Model::LogNormal, EstimatorKind::OrderStats).with_cadence(5, 3);
        let mut updates = 0;
        for i in 1..=12 {
            if cedar.on_arrival(&ctx, i as f64).is_some() {
                updates += 1;
            }
        }
        // Updates at arrivals 5, 8, 11.
        assert_eq!(updates, 3);
    }

    #[test]
    fn explain_captures_decision_detail() {
        let ctx = ctx_knee();
        let slow = LogNormal::new(2.6, 0.5).unwrap();
        let mut cedar = CedarPolicy::new(50, Model::LogNormal, EstimatorKind::OrderStats);
        cedar.set_explain(true);
        assert!(cedar.last_detail().is_none());
        let mut arrivals: Vec<f64> = {
            use cedar_distrib::ContinuousDist;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            slow.sample_vec(&mut rng, 50)
        };
        arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last_wait = None;
        for &t in arrivals.iter().take(10) {
            if let Some(w) = cedar.on_arrival(&ctx, t) {
                last_wait = Some(w);
            }
        }
        let detail = cedar.last_detail().expect("explain detail captured");
        assert_eq!(Some(detail.wait), last_wait);
        assert!(detail.samples >= 3);
        assert!(detail.sigma > 0.0);
        assert!((0.0..=1.0).contains(&detail.expected_quality));
        assert!(detail.gain.is_finite() && detail.loss.is_finite());

        // Explain off: no detail is captured (and no probe cost paid).
        let mut plain = CedarPolicy::new(50, Model::LogNormal, EstimatorKind::OrderStats);
        for &t in arrivals.iter().take(10) {
            let _ = plain.on_arrival(&ctx, t);
        }
        assert!(plain.last_detail().is_none());
    }

    #[test]
    fn kind_instantiation_and_names() {
        for kind in [
            WaitPolicyKind::Cedar,
            WaitPolicyKind::CedarEmpirical,
            WaitPolicyKind::CedarOffline,
            WaitPolicyKind::Ideal,
            WaitPolicyKind::ProportionalSplit,
            WaitPolicyKind::EqualSplit,
            WaitPolicyKind::SubtractUpper,
            WaitPolicyKind::FixedWait(3.0),
        ] {
            let mut p = kind.instantiate(50, Model::LogNormal);
            let ctx = ctx_two_level(500.0);
            let w = p.initial_wait(&ctx);
            assert!((0.0..=500.0).contains(&w), "{kind:?} gave {w}");
            assert!(!kind.name().is_empty());
        }
    }
}
