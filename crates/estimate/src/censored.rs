//! Exact maximum-likelihood estimation from Type-II right-censored
//! samples — the estimator the paper declines to run online
//! ("it is computationally expensive to maximize the above likelihood
//! expression in an online setting", §4.2.2) — provided here as an
//! extension so the approximation's cost/accuracy trade-off can be
//! measured instead of assumed.
//!
//! Observing the `r` smallest of `k` i.i.d. normal (or log-normal, after
//! taking logs) durations, the log-likelihood is
//!
//! ```text
//! LL(mu, sigma) = sum_i ln phi(z_i) - r ln sigma
//!               + (k - r) ln(1 - Phi(z_r)),      z_i = (y_i - mu)/sigma
//! ```
//!
//! (each observed point contributes its density; the `k - r` unseen
//! points are known only to exceed the largest observation). The solver
//! runs a damped Newton iteration in `(mu, ln sigma)` with the analytic
//! gradient and a finite-difference Hessian, warm-started from the
//! order-statistics regression estimate.

use crate::window::{log_of, Moments};
use crate::{CedarEstimator, DurationEstimator, Model, ParamEstimate};
use cedar_mathx::special::{norm_pdf, norm_sf};

/// Exact MLE from fully-observed durations plus independently
/// right-censored ones (Type-I / progressive censoring): entry `j` of
/// `censored_at` is a duration known only to *exceed* its threshold —
/// e.g. a worker that had not arrived when its aggregator departed, or
/// one that crashed mid-flight. Each observed point contributes its
/// density, each censored point its survival `ln(1 - Phi((c_j - mu)/sigma))`:
///
/// ```text
/// LL(mu, sigma) = sum_i ln phi(z_i) - r ln sigma + sum_j ln(1 - Phi(z_cj))
/// ```
///
/// This generalizes [`CensoredMleEstimator`] (whose Type-II scheme pins
/// every threshold to the largest observation) to per-point thresholds,
/// which is what fault-induced non-arrivals produce: dropping them
/// instead would bias a refit toward fast completions, since only the
/// fast tail gets observed. With `censored_at` empty this is the plain
/// uncensored MLE.
///
/// The observed side is folded into its moments in one pass and the
/// thresholds are transformed once; a learner that fits repeatedly
/// should keep a [`SlidingWindow`](crate::SlidingWindow) instead, which
/// does that fold at ingest.
///
/// Returns `None` when fewer than two usable observed points remain
/// after filtering (non-finite anywhere; non-positive under
/// [`Model::LogNormal`], which also drops non-positive thresholds — a
/// censoring time of zero carries no information).
pub fn fit_right_censored(
    model: Model,
    observed: &[f64],
    censored_at: &[f64],
) -> Option<ParamEstimate> {
    let transform = |t: f64| -> Option<f64> {
        match model {
            Model::LogNormal => log_of(t),
            Model::Normal => t.is_finite().then_some(t),
        }
    };
    let mut obs = Moments::default();
    for y in observed.iter().copied().filter_map(transform) {
        obs.push(y);
    }
    let cs: Vec<f64> = censored_at.iter().copied().filter_map(transform).collect();
    let (mu, sigma) = solve_censored(&obs, cs.iter().map(|&c| (c, 1.0)), None)?;
    Some(ParamEstimate { model, mu, sigma })
}

/// The crate's one censored-likelihood solver: damped Newton ascent in
/// `(mu, ln sigma)` with the analytic gradient and a finite-difference
/// Hessian. The observed side enters only through its [`Moments`] —
///
/// ```text
/// g_mu = n (ybar - mu)/sigma                     + sum_j w_j h(z_j)
/// g_ls = (M2 + n (ybar - mu)^2)/sigma^2 - n      + sum_j w_j z_j h(z_j)
/// ```
///
/// (`h = phi / (1 - Phi)` the normal hazard, the gradient scaled by
/// `sigma`, a common positive factor that does not move the root) — so
/// one iteration costs `O(#thresholds)` however many points were
/// observed. `censored` yields `(threshold, weight)` pairs in the
/// transformed domain; a weight above one stands for that many points
/// tied at one threshold (the Type-II scheme). `start` is
/// `(mu, ln sigma)`; without one the iteration starts from the observed
/// moments. Returns `(mu, sigma)` with `sigma >= 1e-9`, or `None` below
/// two observed points or when the iteration leaves the finite plane.
pub(crate) fn solve_censored(
    obs: &Moments,
    censored: impl Iterator<Item = (f64, f64)> + Clone,
    start: Option<(f64, f64)>,
) -> Option<(f64, f64)> {
    if obs.count() < 2 {
        return None;
    }
    let n = obs.count() as f64;
    let gradient = |mu: f64, ln_sigma: f64| -> (f64, f64) {
        let sigma = ln_sigma.exp();
        let d = (obs.mean() - mu) / sigma;
        let mut g_mu = n * d;
        let mut g_ls = obs.m2() / (sigma * sigma) + n * d * d - n;
        for (c, weight) in censored.clone() {
            let z = (c - mu) / sigma;
            let hazard = weight * norm_pdf(z) / norm_sf(z).max(1e-300);
            g_mu += hazard;
            g_ls += z * hazard;
        }
        (g_mu, g_ls)
    };
    let (mut mu, mut ln_sigma) = start.unwrap_or_else(|| {
        let sample_sd = (obs.m2() / (n - 1.0)).sqrt();
        (obs.mean(), sample_sd.max(1e-3).ln())
    });

    const H: f64 = 1e-5;
    for _ in 0..60 {
        let (g1, g2) = gradient(mu, ln_sigma);
        if g1.abs() < 1e-10 && g2.abs() < 1e-10 {
            break;
        }
        // Finite-difference Jacobian of the gradient.
        let (a1, a2) = gradient(mu + H, ln_sigma);
        let (b1, b2) = gradient(mu, ln_sigma + H);
        let j11 = (a1 - g1) / H;
        let j21 = (a2 - g2) / H;
        let j12 = (b1 - g1) / H;
        let j22 = (b2 - g2) / H;
        let det = j11 * j22 - j12 * j21;
        let (mut dmu, mut dls) = if det.abs() > 1e-12 {
            (-(g1 * j22 - g2 * j12) / det, -(j11 * g2 - j21 * g1) / det)
        } else {
            // Singular curvature: fall back to a small ascent step.
            (0.05 * g1.signum(), 0.05 * g2.signum())
        };
        // Damping: cap the step to keep the iteration stable.
        let norm = dmu.hypot(dls);
        if norm > 2.0 {
            dmu *= 2.0 / norm;
            dls *= 2.0 / norm;
        }
        mu += dmu;
        ln_sigma += dls;
        ln_sigma = ln_sigma.clamp(-20.0, 20.0);
        if dmu.abs() < 1e-11 && dls.abs() < 1e-11 {
            break;
        }
    }
    let sigma = ln_sigma.exp();
    if !(mu.is_finite() && sigma.is_finite() && sigma > 0.0) {
        return None;
    }
    Some((mu, sigma.max(1e-9)))
}

/// Exact censored-sample MLE estimator.
///
/// `estimate()` runs the Newton solve (typically 4–8 iterations, each a
/// handful of normal-tail evaluations), versus one closed-form
/// regression update for [`CedarEstimator`] — the trade the paper
/// alludes to. Accuracy approaches the Cramér–Rao bound for censored
/// samples; the benchmark suite compares both.
#[derive(Debug, Clone)]
pub struct CensoredMleEstimator {
    k: usize,
    model: Model,
    /// Moments of the transformed (log-domain for log-normal)
    /// observations; non-positive raw durations are left-censored
    /// placeholders and excluded from the likelihood.
    obs: Moments,
    /// The latest usable observation: arrivals come in ascending order,
    /// so this is the Type-II censoring point of the unseen tail.
    largest: f64,
    /// Warm-start provider.
    warm: CedarEstimator,
}

impl CensoredMleEstimator {
    /// Creates an estimator for fan-out `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn new(k: usize, model: Model) -> Self {
        Self {
            k,
            model,
            obs: Moments::default(),
            largest: f64::NEG_INFINITY,
            warm: CedarEstimator::new(k, model),
        }
    }

    fn transform(&self, t: f64) -> Option<f64> {
        if t <= 0.0 && self.model == Model::LogNormal {
            return None;
        }
        Some(match self.model {
            Model::LogNormal => t.ln(),
            Model::Normal => t,
        })
    }
}

impl DurationEstimator for CensoredMleEstimator {
    fn observe(&mut self, duration: f64) {
        if !duration.is_finite() || self.obs.count() >= self.k as u64 {
            return;
        }
        self.warm.observe(duration);
        if let Some(y) = self.transform(duration) {
            self.obs.push(y);
            self.largest = y;
        }
    }

    fn count(&self) -> usize {
        self.warm.count()
    }

    fn estimate(&self) -> Option<ParamEstimate> {
        // The `k - r` unseen points all exceed the largest observation.
        let unseen = (self.k as u64).saturating_sub(self.obs.count()) as f64;
        // Warm start from the regression estimate when it is usable.
        let start = self
            .warm
            .estimate()
            .filter(|p| p.sigma > 1e-8)
            .map(|p| (p.mu, p.sigma.ln()));
        let (mu, sigma) =
            solve_censored(&self.obs, std::iter::once((self.largest, unseen)), start)?;
        Some(ParamEstimate {
            model: self.model,
            mu,
            sigma,
        })
    }

    fn reset(&mut self) {
        self.obs = Moments::default();
        self.largest = f64::NEG_INFINITY;
        self.warm.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_distrib::{ContinuousDist, LogNormal, Normal};
    use rand::{rngs::StdRng, SeedableRng};

    fn earliest(parent: &dyn ContinuousDist, k: usize, r: usize, rng: &mut StdRng) -> Vec<f64> {
        let mut xs = parent.sample_vec(rng, k);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs.truncate(r);
        xs
    }

    #[test]
    fn matches_uncensored_mle_when_complete() {
        // With r = k the censored term vanishes; the solution is the
        // plain normal MLE of the logs.
        let parent = LogNormal::new(2.0, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let xs = earliest(&parent, 200, 200, &mut rng);
        let mut est = CensoredMleEstimator::new(200, Model::LogNormal);
        for &x in &xs {
            est.observe(x);
        }
        let p = est.estimate().unwrap();
        let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let mu_mle = cedar_mathx::kahan::mean(&logs);
        let var: f64 = logs
            .iter()
            .map(|l| (l - mu_mle) * (l - mu_mle))
            .sum::<f64>()
            / logs.len() as f64;
        assert!((p.mu - mu_mle).abs() < 1e-6, "mu {} vs {}", p.mu, mu_mle);
        assert!((p.sigma - var.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn censored_estimates_are_nearly_unbiased() {
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let (k, r, trials) = (50, 15, 200);
        let mut rng = StdRng::seed_from_u64(2);
        let mut bias = 0.0;
        for _ in 0..trials {
            let xs = earliest(&parent, k, r, &mut rng);
            let mut est = CensoredMleEstimator::new(k, Model::LogNormal);
            for &x in &xs {
                est.observe(x);
            }
            bias += est.estimate().unwrap().mu - 2.77;
        }
        bias /= trials as f64;
        assert!(bias.abs() < 0.08, "bias {bias}");
    }

    #[test]
    fn at_least_as_accurate_as_regression() {
        // Per-query absolute error of the exact MLE must not exceed the
        // regression estimator's by any meaningful margin (it should in
        // fact be lower).
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let (k, r, trials) = (50, 10, 150);
        let mut rng = StdRng::seed_from_u64(3);
        let mut err_mle = 0.0;
        let mut err_reg = 0.0;
        for _ in 0..trials {
            let xs = earliest(&parent, k, r, &mut rng);
            let mut mle = CensoredMleEstimator::new(k, Model::LogNormal);
            let mut reg = CedarEstimator::new(k, Model::LogNormal);
            for &x in &xs {
                mle.observe(x);
                reg.observe(x);
            }
            err_mle += (mle.estimate().unwrap().mu - 2.77).abs();
            err_reg += (reg.estimate().unwrap().mu - 2.77).abs();
        }
        assert!(
            err_mle <= err_reg * 1.05,
            "MLE {err_mle} vs regression {err_reg}"
        );
    }

    #[test]
    fn normal_model_works() {
        let parent = Normal::new(40.0, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let xs = earliest(&parent, 50, 20, &mut rng);
        let mut est = CensoredMleEstimator::new(50, Model::Normal);
        for &x in &xs {
            est.observe(x);
        }
        let p = est.estimate().unwrap();
        assert!((p.mu - 40.0).abs() < 6.0, "mu {}", p.mu);
        assert!(p.sigma > 3.0 && p.sigma < 25.0, "sigma {}", p.sigma);
    }

    #[test]
    fn needs_two_usable_observations() {
        let mut est = CensoredMleEstimator::new(10, Model::LogNormal);
        assert!(est.estimate().is_none());
        est.observe(1.0);
        assert!(est.estimate().is_none());
        est.observe(2.0);
        assert!(est.estimate().is_some());
    }

    #[test]
    fn reset_clears_state() {
        let mut est = CensoredMleEstimator::new(10, Model::LogNormal);
        est.observe(1.0);
        est.observe(2.0);
        est.reset();
        assert_eq!(est.count(), 0);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn fit_right_censored_matches_plain_mle_without_censoring() {
        let parent = LogNormal::new(2.0, 0.7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = parent.sample_vec(&mut rng, 300);
        let p = fit_right_censored(Model::LogNormal, &xs, &[]).unwrap();
        let logs: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
        let mu_mle = cedar_mathx::kahan::mean(&logs);
        let var: f64 = logs
            .iter()
            .map(|l| (l - mu_mle) * (l - mu_mle))
            .sum::<f64>()
            / logs.len() as f64;
        assert!((p.mu - mu_mle).abs() < 1e-6, "mu {} vs {}", p.mu, mu_mle);
        assert!((p.sigma - var.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn fit_right_censored_matches_type_ii_special_case() {
        // Pinning every threshold to the largest observation reproduces
        // the Type-II estimator exactly (same likelihood, same solver).
        let parent = LogNormal::new(2.77, 0.84).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let (k, r) = (60, 25);
        let xs = earliest(&parent, k, r, &mut rng);
        let mut type2 = CensoredMleEstimator::new(k, Model::LogNormal);
        for &x in &xs {
            type2.observe(x);
        }
        let a = type2.estimate().unwrap();
        let thresholds = vec![*xs.last().unwrap(); k - r];
        let b = fit_right_censored(Model::LogNormal, &xs, &thresholds).unwrap();
        assert!((a.mu - b.mu).abs() < 1e-6, "mu {} vs {}", a.mu, b.mu);
        assert!((a.sigma - b.sigma).abs() < 1e-6);
    }

    #[test]
    fn fit_right_censored_corrects_truncation_bias() {
        // Keep only durations below a cutoff (what a crashed slow tail
        // looks like); censoring the removed points at the cutoff must
        // pull mu back up toward the truth versus ignoring them.
        let parent = LogNormal::new(2.0, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let xs = parent.sample_vec(&mut rng, 500);
        let cutoff = parent.quantile(0.7);
        let fast: Vec<f64> = xs.iter().copied().filter(|&x| x < cutoff).collect();
        let thresholds = vec![cutoff; xs.len() - fast.len()];
        let naive = fit_right_censored(Model::LogNormal, &fast, &[]).unwrap();
        let corrected = fit_right_censored(Model::LogNormal, &fast, &thresholds).unwrap();
        assert!(
            (corrected.mu - 2.0).abs() < (naive.mu - 2.0).abs(),
            "corrected {} naive {}",
            corrected.mu,
            naive.mu
        );
        assert!((corrected.mu - 2.0).abs() < 0.1, "mu {}", corrected.mu);
    }

    #[test]
    fn fit_right_censored_needs_two_observations() {
        assert!(fit_right_censored(Model::LogNormal, &[1.0], &[2.0, 3.0]).is_none());
        assert!(fit_right_censored(Model::LogNormal, &[], &[]).is_none());
        // Non-positive values are unusable under the log model.
        assert!(fit_right_censored(Model::LogNormal, &[0.0, -1.0, 2.0], &[]).is_none());
    }

    #[test]
    fn zero_durations_are_left_censored_for_lognormal() {
        let mut est = CensoredMleEstimator::new(10, Model::LogNormal);
        est.observe(0.0);
        est.observe(1.0);
        est.observe(2.0);
        // The zero must not poison the likelihood with ln(0).
        let p = est.estimate().unwrap();
        assert!(p.mu.is_finite());
    }
}
