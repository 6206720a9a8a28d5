//! Online duration-distribution estimation from censored arrivals.
//!
//! An aggregator with fan-out `k` sees process outputs arrive one by one.
//! After `r < k` arrivals it knows only the `r` *smallest* of `k` draws —
//! a biased sample. Estimating distribution parameters naively from those
//! `r` values (the "empirical" baseline of the paper's Fig. 9/10)
//! systematically underestimates both location and spread.
//!
//! Cedar's fix (§4.2.2): treat the `i`-th arrival `t_i` as one draw from
//! the `i`-th order statistic `X_(i:k)`. For a log-normal parent,
//! `ln t_i ≈ mu + sigma * m_i` with `m_i = E[Z_(i:k)]` the expected
//! standard-normal order statistic, so each consecutive pair of arrivals
//! yields one `(mu, sigma)` estimate and the final estimate is the average
//! over pairs. The same scheme without the logarithm serves normal
//! parents.
//!
//! - [`CedarEstimator`] — the de-biased online estimator;
//! - [`EmpiricalEstimator`] — the biased baseline;
//! - [`DurationEstimator`] — the common trait the aggregator policies use;
//! - [`SlidingWindow`] — the bounded window of sufficient statistics the
//!   cross-query learners refit population priors from;
//! - [`eval`] — the accuracy harness behind the paper's Fig. 9.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod censored;
pub mod eval;
pub mod window;

pub use censored::{fit_right_censored, CensoredMleEstimator};
pub use window::SlidingWindow;

use cedar_distrib::{ContinuousDist, DistError, LogNormal, Normal};
use cedar_mathx::order_stats::NormalOrderStats;
use std::sync::Arc;

/// Which parent family the estimator assumes.
///
/// The paper's traces all fit log-normals; the normal variant covers the
/// Gaussian robustness experiment (Fig. 17). The distribution *type* is
/// learned offline (see `cedar_distrib::fit`); only the parameters are
/// learned online.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Model {
    /// `ln X ~ Normal(mu, sigma^2)`.
    #[default]
    LogNormal,
    /// `X ~ Normal(mu, sigma^2)`.
    Normal,
}

/// A location/scale estimate produced by an estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamEstimate {
    /// The family the parameters belong to.
    pub model: Model,
    /// Location parameter (`mu`).
    pub mu: f64,
    /// Scale parameter (`sigma`), always positive.
    pub sigma: f64,
}

impl ParamEstimate {
    /// Runs `f` on the estimate as a distribution, built on the stack: a
    /// Cedar aggregator does this on every re-scan, so nothing is boxed.
    pub fn with_dist<R>(&self, f: impl FnOnce(&dyn ContinuousDist) -> R) -> Result<R, DistError> {
        Ok(match self.model {
            Model::LogNormal => f(&LogNormal::new(self.mu, self.sigma)?),
            Model::Normal => f(&Normal::new(self.mu, self.sigma)?),
        })
    }
}

/// Common interface for online duration estimators.
///
/// Arrivals must be observed in non-decreasing order (they are completion
/// *times* of parallel processes, so this is automatic).
pub trait DurationEstimator: Send + std::fmt::Debug {
    /// Records the next process completion time.
    fn observe(&mut self, duration: f64);

    /// Number of arrivals observed so far.
    fn count(&self) -> usize;

    /// Current parameter estimate, or `None` until enough arrivals have
    /// been seen (two, for two-parameter families).
    fn estimate(&self) -> Option<ParamEstimate>;

    /// Clears all observations for reuse on the next query.
    fn reset(&mut self);
}

/// Cedar's order-statistics de-biased estimator (§4.2.2).
///
/// Every arrival contributes one linear equation
/// `y_i = mu + sigma * m_i` (with `y_i` the transformed arrival time and
/// `m_i = E[Z_(i:k)]`); the estimator combines all equations seen so far by
/// least squares, updated in O(1) per arrival through running sums. This
/// is the natural generalization of the paper's "estimate from each
/// consecutive pair, then average" description, and it meets the paper's
/// reported accuracy (mu error below 5% once ~10 of 50 processes have
/// completed — Fig. 9a). The literal pairwise variant is kept as
/// [`PairwiseCedarEstimator`] for the ablation benchmarks.
///
/// # Examples
///
/// ```
/// use cedar_estimate::{CedarEstimator, DurationEstimator, Model};
///
/// // 50-way fan-out, log-normal parent.
/// let mut est = CedarEstimator::new(50, Model::LogNormal);
/// // Feed the first few (sorted) completion times.
/// for t in [2.1, 2.9, 3.4, 3.8, 4.4, 4.9, 5.6, 6.0, 6.8, 7.5] {
///     est.observe(t);
/// }
/// let p = est.estimate().unwrap();
/// assert!(p.sigma > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CedarEstimator {
    k: usize,
    model: Model,
    order_stats: Arc<NormalOrderStats>,
    /// Number of arrivals observed (also the next order-statistic index).
    count: usize,
    /// Number of arrivals that contributed a regression equation
    /// (positive, finite, within the fan-out).
    used: usize,
    /// Running sums for the least-squares solve over (m_i, y_i) pairs.
    sum_m: f64,
    sum_mm: f64,
    sum_y: f64,
    sum_my: f64,
}

impl CedarEstimator {
    /// Creates an estimator for fan-out `k` (the total number of parallel
    /// processes feeding this aggregator), using Blom's approximation for
    /// the expected order statistics.
    ///
    /// The order-statistic table comes from the process-wide
    /// [`NormalOrderStats::shared`] cache: one aggregator is instantiated
    /// per query, so rebuilding the `k`-entry table (one quantile solve
    /// per entry) on every query is pure waste once two queries share a
    /// fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` — with fewer than two processes there are no
    /// pairs to estimate from.
    pub fn new(k: usize, model: Model) -> Self {
        Self::with_order_stats(NormalOrderStats::shared(k), model)
    }

    /// Creates an estimator reusing a precomputed order-statistic table
    /// (shared across the aggregators of a level).
    ///
    /// # Panics
    ///
    /// Panics if the table covers fewer than two order statistics.
    pub fn with_order_stats(order_stats: Arc<NormalOrderStats>, model: Model) -> Self {
        assert!(
            order_stats.k() >= 2,
            "Cedar estimation needs fan-out of at least 2"
        );
        Self {
            k: order_stats.k(),
            model,
            order_stats,
            count: 0,
            used: 0,
            sum_m: 0.0,
            sum_mm: 0.0,
            sum_y: 0.0,
            sum_my: 0.0,
        }
    }

    /// The fan-out this estimator assumes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The assumed parent family.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Transforms an observation into the (possibly log) domain.
    fn transform(&self, t: f64) -> f64 {
        match self.model {
            Model::LogNormal => t.max(f64::MIN_POSITIVE).ln(),
            Model::Normal => t,
        }
    }
}

impl DurationEstimator for CedarEstimator {
    fn observe(&mut self, duration: f64) {
        if !duration.is_finite() {
            return;
        }
        if self.count >= self.k {
            // More arrivals than the assumed fan-out: ignore the surplus
            // rather than index out of the order-statistic table.
            return;
        }
        self.count += 1;
        if duration <= 0.0 {
            // Rectified workloads clamp durations at zero (e.g. the
            // paper's Gaussian experiment). A zero arrival is
            // left-censored: it still consumes its order-statistic index
            // (done above), but contributes no usable equation.
            return;
        }
        let m = self.order_stats.mean(self.count);
        let y = self.transform(duration);
        self.used += 1;
        self.sum_m += m;
        self.sum_mm += m * m;
        self.sum_y += y;
        self.sum_my += m * y;
    }

    fn count(&self) -> usize {
        self.count
    }

    fn estimate(&self) -> Option<ParamEstimate> {
        if self.used < 2 {
            return None;
        }
        let n = self.used as f64;
        let s_mm = self.sum_mm - self.sum_m * self.sum_m / n;
        let s_my = self.sum_my - self.sum_m * self.sum_y / n;
        if s_mm <= 1e-12 {
            return None;
        }
        let mut sigma = s_my / s_mm;
        let mu = (self.sum_y - sigma * self.sum_m) / n;
        if sigma <= 0.0 {
            // Ties or pathological inputs can produce sigma <= 0; fall back
            // to a tiny positive scale so downstream CDFs stay defined.
            sigma = 1e-9;
        }
        Some(ParamEstimate {
            model: self.model,
            mu,
            sigma,
        })
    }

    fn reset(&mut self) {
        self.count = 0;
        self.used = 0;
        self.sum_m = 0.0;
        self.sum_mm = 0.0;
        self.sum_y = 0.0;
        self.sum_my = 0.0;
    }
}

/// The literal estimator described in the paper's §4.2.2 prose: each
/// consecutive pair of arrivals `(t_i, t_{i+1})` yields one `(mu, sigma)`
/// solve, and the final estimate is the plain average of the per-pair
/// estimates.
///
/// Noisier than the least-squares [`CedarEstimator`] (adjacent
/// order-statistic spacings have high relative variance); kept for the
/// estimator ablation study.
#[derive(Debug, Clone)]
pub struct PairwiseCedarEstimator {
    k: usize,
    model: Model,
    order_stats: Arc<NormalOrderStats>,
    count: usize,
    prev_y: f64,
    prev_valid: bool,
    mu_sum: f64,
    sigma_sum: f64,
    pairs: usize,
}

impl PairwiseCedarEstimator {
    /// Creates a pairwise estimator for fan-out `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize, model: Model) -> Self {
        assert!(k >= 2, "Cedar estimation needs fan-out of at least 2");
        Self {
            k,
            model,
            order_stats: NormalOrderStats::shared(k),
            count: 0,
            prev_y: 0.0,
            prev_valid: false,
            mu_sum: 0.0,
            sigma_sum: 0.0,
            pairs: 0,
        }
    }

    fn transform(&self, t: f64) -> f64 {
        match self.model {
            Model::LogNormal => t.max(f64::MIN_POSITIVE).ln(),
            Model::Normal => t,
        }
    }
}

impl DurationEstimator for PairwiseCedarEstimator {
    fn observe(&mut self, duration: f64) {
        if !duration.is_finite() || self.count >= self.k {
            return;
        }
        self.count += 1;
        if duration <= 0.0 {
            // Left-censored (rectified) arrival: consumes its index but
            // yields no usable pair.
            self.prev_valid = false;
            return;
        }
        let y = self.transform(duration);
        if self.prev_valid {
            let m_prev = self.order_stats.mean(self.count - 1);
            let m_cur = self.order_stats.mean(self.count);
            let dm = m_cur - m_prev;
            if dm.abs() > 1e-12 {
                let sigma_i = (y - self.prev_y) / dm;
                let mu_i = self.prev_y - sigma_i * m_prev;
                self.sigma_sum += sigma_i;
                self.mu_sum += mu_i;
                self.pairs += 1;
            }
        }
        self.prev_y = y;
        self.prev_valid = true;
    }

    fn count(&self) -> usize {
        self.count
    }

    fn estimate(&self) -> Option<ParamEstimate> {
        if self.pairs == 0 {
            return None;
        }
        let mu = self.mu_sum / self.pairs as f64;
        let mut sigma = self.sigma_sum / self.pairs as f64;
        if sigma <= 0.0 {
            sigma = 1e-9;
        }
        Some(ParamEstimate {
            model: self.model,
            mu,
            sigma,
        })
    }

    fn reset(&mut self) {
        self.count = 0;
        self.prev_y = 0.0;
        self.prev_valid = false;
        self.mu_sum = 0.0;
        self.sigma_sum = 0.0;
        self.pairs = 0;
    }
}

/// The biased baseline: sample mean and standard deviation of the raw
/// arrivals (of their logarithms, for the log-normal model), with no
/// order-statistics correction.
///
/// This is "Cedar with empirical estimates" from the paper's Fig. 10 — the
/// wait optimization is identical, only the learned parameters differ.
///
/// Maintains running sufficient statistics instead of the observation
/// vector, so both `observe` and `estimate` are O(1) — matching the other
/// online estimators and keeping the per-arrival decision path free of
/// O(n) refolds. The sums are anchored at the first observation
/// (`Σ(y − y_0)`, `Σ(y − y_0)²`, Kahan-compensated): arrival times within
/// one query cluster tightly, so centering before squaring avoids the
/// catastrophic cancellation a raw `Σy² − (Σy)²/n` would suffer.
#[derive(Debug, Clone)]
pub struct EmpiricalEstimator {
    model: Model,
    count: usize,
    /// Anchor `y_0` for the shifted moments; the first transformed
    /// observation.
    shift: f64,
    /// `Σ (y_i − y_0)`, compensated.
    sum: cedar_mathx::KahanSum,
    /// `Σ (y_i − y_0)²`, compensated.
    sum_sq: cedar_mathx::KahanSum,
}

impl EmpiricalEstimator {
    /// Creates an empty empirical estimator.
    pub fn new(model: Model) -> Self {
        Self {
            model,
            count: 0,
            shift: 0.0,
            sum: cedar_mathx::KahanSum::new(),
            sum_sq: cedar_mathx::KahanSum::new(),
        }
    }

    /// The assumed parent family.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Snapshots the sufficient statistics for persistence.
    ///
    /// The pair is lossless: [`restore`](Self::restore) rebuilds an
    /// estimator whose every future `observe`/`estimate` matches the
    /// original bit for bit, because the Kahan compensation terms ride
    /// along instead of being collapsed into the sums.
    pub fn stats(&self) -> EmpiricalStats {
        let (sum, sum_comp) = self.sum.parts();
        let (sum_sq, sum_sq_comp) = self.sum_sq.parts();
        EmpiricalStats {
            count: self.count as u64,
            shift: self.shift,
            sum,
            sum_comp,
            sum_sq,
            sum_sq_comp,
        }
    }

    /// Rebuilds an estimator from persisted sufficient statistics.
    pub fn restore(model: Model, stats: &EmpiricalStats) -> Self {
        Self {
            model,
            count: usize::try_from(stats.count).unwrap_or(usize::MAX),
            shift: stats.shift,
            sum: cedar_mathx::KahanSum::from_parts(stats.sum, stats.sum_comp),
            sum_sq: cedar_mathx::KahanSum::from_parts(stats.sum_sq, stats.sum_sq_comp),
        }
    }
}

/// The portable sufficient statistics of an [`EmpiricalEstimator`]:
/// everything a checkpoint needs to resurrect the estimator exactly.
/// Plain public fields so serializers in other crates (the checkpoint
/// codec lives in `cedar-runtime`) can stream them without this crate
/// knowing about any wire format.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmpiricalStats {
    /// Observations folded in so far.
    pub count: u64,
    /// Anchor `y_0` for the shifted moments.
    pub shift: f64,
    /// Raw sum component of `Σ (y_i − y_0)`.
    pub sum: f64,
    /// Kahan compensation of `sum`.
    pub sum_comp: f64,
    /// Raw sum component of `Σ (y_i − y_0)²`.
    pub sum_sq: f64,
    /// Kahan compensation of `sum_sq`.
    pub sum_sq_comp: f64,
}

impl DurationEstimator for EmpiricalEstimator {
    fn observe(&mut self, duration: f64) {
        if !duration.is_finite() {
            return;
        }
        let y = match self.model {
            Model::LogNormal => duration.max(f64::MIN_POSITIVE).ln(),
            Model::Normal => duration,
        };
        if self.count == 0 {
            self.shift = y;
        }
        self.count += 1;
        let c = y - self.shift;
        self.sum.add(c);
        self.sum_sq.add(c * c);
    }

    fn count(&self) -> usize {
        self.count
    }

    fn estimate(&self) -> Option<ParamEstimate> {
        if self.count < 2 {
            return None;
        }
        let n = self.count as f64;
        let centered_mean = self.sum.value() / n;
        let mu = self.shift + centered_mean;
        // Population variance around the anchor, re-centered at the mean:
        // Var = Σc²/n − (Σc/n)², identical (in exact arithmetic) to the
        // two-pass Σ(y−ȳ)²/n this replaces.
        let variance = self.sum_sq.value() / n - centered_mean * centered_mean;
        let mut sigma = variance.max(0.0).sqrt();
        if sigma <= 0.0 {
            sigma = 1e-9;
        }
        Some(ParamEstimate {
            model: self.model,
            mu,
            sigma,
        })
    }

    fn reset(&mut self) {
        self.count = 0;
        self.shift = 0.0;
        self.sum = cedar_mathx::KahanSum::new();
        self.sum_sq = cedar_mathx::KahanSum::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_distrib::ContinuousDist;
    use rand::{rngs::StdRng, SeedableRng};

    /// Draws `k` samples, sorts them, returns the first `r`.
    fn earliest(parent: &dyn ContinuousDist, k: usize, r: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut xs = parent.sample_vec(rng, k);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs.truncate(r);
        xs
    }

    #[test]
    fn cedar_debiases_lognormal_estimates() {
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let (k, r, trials) = (50, 15, 400);
        let mut rng = StdRng::seed_from_u64(1);
        let mut cedar_bias = 0.0;
        let mut emp_bias = 0.0;
        let mut cedar_abs = 0.0;
        let mut emp_abs = 0.0;
        for _ in 0..trials {
            let arrivals = earliest(&parent, k, r, &mut rng);
            let mut cedar = CedarEstimator::new(k, Model::LogNormal);
            let mut emp = EmpiricalEstimator::new(Model::LogNormal);
            for &t in &arrivals {
                cedar.observe(t);
                emp.observe(t);
            }
            let c = cedar.estimate().unwrap().mu - 2.77;
            let e = emp.estimate().unwrap().mu - 2.77;
            cedar_bias += c;
            emp_bias += e;
            cedar_abs += c.abs();
            emp_abs += e.abs();
        }
        let n = trials as f64;
        let (cedar_bias, emp_bias) = (cedar_bias / n, emp_bias / n);
        let (cedar_abs, emp_abs) = (cedar_abs / n, emp_abs / n);
        // The empirical estimate is strongly biased low (it sees only the
        // fastest 30%); Cedar's order-statistics correction removes the
        // bias — the paper reports <5% error after ~10 arrivals (Fig. 9a).
        assert!(
            cedar_bias.abs() < 0.05 * 2.77,
            "cedar mu bias {cedar_bias} too high"
        );
        assert!(
            emp_bias < -0.3,
            "empirical bias should be large and negative"
        );
        // Per-query error must also improve markedly.
        assert!(
            cedar_abs < 0.5 * emp_abs,
            "cedar {cedar_abs} vs empirical {emp_abs}"
        );
    }

    #[test]
    fn cedar_sigma_estimate_reasonable() {
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let (k, r, trials) = (50, 20, 400);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sigma_err = 0.0;
        for _ in 0..trials {
            let arrivals = earliest(&parent, k, r, &mut rng);
            let mut cedar = CedarEstimator::new(k, Model::LogNormal);
            for &t in &arrivals {
                cedar.observe(t);
            }
            sigma_err += (cedar.estimate().unwrap().sigma - 0.84).abs();
        }
        sigma_err /= trials as f64;
        // Paper: sigma error ~20%; allow 30% slack.
        assert!(sigma_err < 0.30 * 0.84, "sigma err {sigma_err}");
    }

    #[test]
    fn normal_model_recovers_gaussian_parameters() {
        let parent = Normal::new(40.0, 10.0).unwrap();
        let (k, r, trials) = (50, 20, 300);
        let mut rng = StdRng::seed_from_u64(3);
        let mut mu_err = 0.0;
        for _ in 0..trials {
            let arrivals = earliest(&parent, k, r, &mut rng);
            let mut cedar = CedarEstimator::new(k, Model::Normal);
            for &t in &arrivals {
                cedar.observe(t);
            }
            mu_err += (cedar.estimate().unwrap().mu - 40.0).abs();
        }
        mu_err /= trials as f64;
        assert!(mu_err < 2.0, "normal mu err {mu_err}");
    }

    #[test]
    fn needs_two_observations() {
        let mut est = CedarEstimator::new(10, Model::LogNormal);
        assert!(est.estimate().is_none());
        est.observe(1.0);
        assert!(est.estimate().is_none());
        est.observe(2.0);
        assert!(est.estimate().is_some());
        assert_eq!(est.count(), 2);
    }

    #[test]
    fn reset_clears_state() {
        let mut est = CedarEstimator::new(10, Model::LogNormal);
        est.observe(1.0);
        est.observe(2.0);
        est.reset();
        assert_eq!(est.count(), 0);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn surplus_arrivals_are_ignored() {
        let mut est = CedarEstimator::new(2, Model::LogNormal);
        est.observe(1.0);
        est.observe(2.0);
        est.observe(3.0); // beyond k; must not panic or skew indexing
        assert_eq!(est.count(), 2);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut est = CedarEstimator::new(10, Model::LogNormal);
        est.observe(f64::NAN);
        est.observe(f64::INFINITY);
        assert_eq!(est.count(), 0);
    }

    #[test]
    fn tied_arrivals_do_not_produce_zero_sigma() {
        let mut est = CedarEstimator::new(10, Model::LogNormal);
        for _ in 0..5 {
            est.observe(3.0);
        }
        let p = est.estimate().unwrap();
        assert!(p.sigma > 0.0);
    }

    #[test]
    fn estimate_with_dist_round_trip() {
        let p = ParamEstimate {
            model: Model::LogNormal,
            mu: 1.0,
            sigma: 0.5,
        };
        let median = p.with_dist(|d| d.quantile(0.5)).unwrap();
        assert!((median - 1.0f64.exp()).abs() < 1e-9);
        let p = ParamEstimate {
            model: Model::Normal,
            mu: 40.0,
            sigma: 10.0,
        };
        let median = p.with_dist(|d| d.quantile(0.5)).unwrap();
        assert!((median - 40.0).abs() < 1e-9);
        let bad = ParamEstimate { sigma: 0.0, ..p };
        assert!(bad.with_dist(|_| ()).is_err());
    }

    #[test]
    fn empirical_stats_round_trip_bit_exactly() {
        let mut a = EmpiricalEstimator::new(Model::LogNormal);
        for d in [3.0, 5.5, 2.25, 9.0, 0.125, 1e6, 1e-6] {
            a.observe(d);
        }
        let mut b = EmpiricalEstimator::restore(Model::LogNormal, &a.stats());
        assert_eq!(b.count(), a.count());
        assert_eq!(b.estimate(), a.estimate());
        // The restored estimator keeps learning identically: the Kahan
        // compensation terms came back intact, not collapsed.
        for d in [4.5, 0.75] {
            a.observe(d);
            b.observe(d);
        }
        let (pa, pb) = (a.estimate().unwrap(), b.estimate().unwrap());
        assert_eq!(pa.mu.to_bits(), pb.mu.to_bits());
        assert_eq!(pa.sigma.to_bits(), pb.sigma.to_bits());
        // An empty estimator round-trips too.
        let empty = EmpiricalEstimator::new(Model::Normal);
        let back = EmpiricalEstimator::restore(Model::Normal, &empty.stats());
        assert_eq!(back.count(), 0);
        assert!(back.estimate().is_none());
    }

    #[test]
    fn empirical_is_biased_low_on_censored_data() {
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = earliest(&parent, 50, 15, &mut rng);
        let mut emp = EmpiricalEstimator::new(Model::LogNormal);
        for &t in &arrivals {
            emp.observe(t);
        }
        // Seeing only the fastest 30% of 50 draws, the naive mu estimate
        // must be far below the truth.
        assert!(emp.estimate().unwrap().mu < 2.77 - 0.3);
    }

    /// Two-pass reference for the empirical estimator: mean, then Σ(y−ȳ)²,
    /// exactly the formula the incremental version replaced.
    fn two_pass_empirical(transformed: &[f64], model: Model) -> Option<ParamEstimate> {
        if transformed.len() < 2 {
            return None;
        }
        let mu = cedar_mathx::kahan::mean(transformed);
        let n = transformed.len() as f64;
        let ss: f64 = transformed.iter().map(|y| (y - mu) * (y - mu)).sum();
        Some(ParamEstimate {
            model,
            mu,
            sigma: (ss / n).sqrt().max(1e-9),
        })
    }

    #[test]
    fn incremental_empirical_matches_two_pass() {
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let arrivals = earliest(&parent, 50, 50, &mut rng);
        let mut inc = EmpiricalEstimator::new(Model::LogNormal);
        let mut seen = Vec::new();
        for &t in &arrivals {
            inc.observe(t);
            seen.push(t.max(f64::MIN_POSITIVE).ln());
            // At *every* prefix the O(1) sufficient statistics must agree
            // with the from-scratch two-pass refit.
            match (inc.estimate(), two_pass_empirical(&seen, Model::LogNormal)) {
                (Some(a), Some(b)) => {
                    assert!((a.mu - b.mu).abs() < 1e-12, "{} vs {}", a.mu, b.mu);
                    assert!(
                        (a.sigma - b.sigma).abs() < 1e-10,
                        "{} vs {}",
                        a.sigma,
                        b.sigma
                    );
                }
                (None, None) => {}
                (a, b) => panic!("availability mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn empirical_is_stable_with_large_offsets() {
        // Arrivals with a huge common offset (e.g. absolute epoch
        // timestamps): the anchored sums must not cancel catastrophically.
        let mut est = EmpiricalEstimator::new(Model::Normal);
        let base = 1.0e12;
        let mut seen = Vec::new();
        for t in [1.0, 2.0, 3.0, 5.0, 8.0] {
            est.observe(base + t);
            seen.push(base + t);
        }
        let got = est.estimate().unwrap();
        let want = two_pass_empirical(&seen, Model::Normal).unwrap();
        assert!((got.mu - want.mu).abs() < 1e-3);
        // True population stddev of {1,2,3,5,8} is sqrt(6.16).
        assert!((got.sigma - 6.16_f64.sqrt()).abs() < 1e-6, "{}", got.sigma);
    }

    #[test]
    fn shared_order_stats_are_reused_across_estimators() {
        let a = CedarEstimator::new(37, Model::LogNormal);
        let b = CedarEstimator::new(37, Model::LogNormal);
        assert!(
            Arc::ptr_eq(&a.order_stats, &b.order_stats),
            "same fan-out must share one order-stat table"
        );
    }

    #[test]
    fn pairwise_estimator_is_roughly_unbiased() {
        // The paper's literal pairwise scheme: noisier than the
        // regression but without the censoring bias.
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let (k, r, trials) = (50, 15, 300);
        let mut rng = StdRng::seed_from_u64(6);
        let mut bias = 0.0;
        for _ in 0..trials {
            let arrivals = earliest(&parent, k, r, &mut rng);
            let mut est = PairwiseCedarEstimator::new(k, Model::LogNormal);
            for &t in &arrivals {
                est.observe(t);
            }
            bias += est.estimate().unwrap().mu - 2.77;
        }
        bias /= trials as f64;
        assert!(bias.abs() < 0.1, "pairwise bias {bias}");
    }

    #[test]
    fn pairwise_matches_regression_at_two_points() {
        // With exactly two arrivals the pairwise solve and the two-point
        // regression are the same 2x2 linear system.
        let mut pair = PairwiseCedarEstimator::new(10, Model::LogNormal);
        let mut reg = CedarEstimator::new(10, Model::LogNormal);
        for t in [2.0, 3.5] {
            pair.observe(t);
            reg.observe(t);
        }
        let (p, r) = (pair.estimate().unwrap(), reg.estimate().unwrap());
        assert!((p.mu - r.mu).abs() < 1e-9, "{} vs {}", p.mu, r.mu);
        assert!((p.sigma - r.sigma).abs() < 1e-9);
    }

    #[test]
    fn pairwise_handles_censoring_and_reset() {
        let mut est = PairwiseCedarEstimator::new(10, Model::LogNormal);
        // A zero arrival breaks the pair chain but keeps its index.
        est.observe(1.0);
        est.observe(0.0);
        est.observe(2.0);
        est.observe(3.0);
        // Pairs formed: only (2.0, 3.0) — the (1.0, censored) and
        // (censored, 2.0) pairs are invalid.
        let p = est.estimate().expect("one valid pair");
        assert!(p.mu.is_finite() && p.sigma > 0.0);
        assert_eq!(est.count(), 4);
        est.reset();
        assert_eq!(est.count(), 0);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn pairwise_ignores_surplus_and_non_finite() {
        let mut est = PairwiseCedarEstimator::new(2, Model::LogNormal);
        est.observe(f64::NAN);
        est.observe(1.0);
        est.observe(2.0);
        est.observe(9.0); // beyond k
        assert_eq!(est.count(), 2);
        assert!(est.estimate().is_some());
    }

    #[test]
    #[should_panic(expected = "fan-out of at least 2")]
    fn pairwise_rejects_unit_fanout() {
        PairwiseCedarEstimator::new(1, Model::LogNormal);
    }
}
