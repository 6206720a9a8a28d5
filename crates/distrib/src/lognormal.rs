//! The log-normal distribution — the family every production trace in the
//! paper fits best (§4.2.1): Facebook task durations (<1% error in mean and
//! median), Google search (<5% even at p99) and Bing RTTs (1–2% error).

use crate::traits::{ContinuousDist, DistError};
use cedar_mathx::special::{norm_cdf_fast, norm_quantile, SQRT_2PI};
use serde::{Deserialize, Serialize};

/// Points per stack chunk of the batched CDF.
const CHUNK: usize = 64;

/// Log-normal distribution: `ln X ~ Normal(mu, sigma^2)`.
///
/// The paper's published fits, reused throughout the workload library:
/// Facebook map `LN(2.77, 0.84)` (seconds), Bing `LN(5.9, 1.25)`
/// (microseconds), Google `LN(2.94, 0.55)` (milliseconds).
///
/// # Examples
///
/// ```
/// use cedar_distrib::{ContinuousDist, LogNormal};
///
/// let fb_map = LogNormal::new(2.77, 0.84).unwrap();
/// // Median of a log-normal is exp(mu).
/// assert!((fb_map.quantile(0.5) - 2.77f64.exp()).abs() < 1e-9);
/// assert!((fb_map.cdf(fb_map.quantile(0.9)) - 0.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma > 0`
    /// (parameters of the underlying normal).
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter("lognormal mu must be finite"));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal sigma must be finite and positive",
            ));
        }
        Ok(Self { mu, sigma })
    }

    /// Builds the log-normal with the given mean and standard deviation of
    /// the distribution itself (not of its logarithm).
    pub fn from_mean_stddev(mean: f64, stddev: f64) -> Result<Self, DistError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal mean must be finite and positive",
            ));
        }
        if !(stddev.is_finite() && stddev > 0.0) {
            return Err(DistError::InvalidParameter(
                "lognormal stddev must be finite and positive",
            ));
        }
        let cv2 = (stddev / mean) * (stddev / mean);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Location parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Returns a copy with a different `sigma`, keeping `mu` — the knob the
    /// paper turns in its variability sweeps (Fig. 16).
    pub fn with_sigma(&self, sigma: f64) -> Result<Self, DistError> {
        Self::new(self.mu, sigma)
    }

    /// Returns a copy with a different `mu`, keeping `sigma` — the knob the
    /// paper turns in its load-shift experiment (Fig. 11).
    pub fn with_mu(&self, mu: f64) -> Result<Self, DistError> {
        Self::new(mu, self.sigma)
    }
}

impl ContinuousDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * SQRT_2PI)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        norm_cdf_fast((x.ln() - self.mu) / self.sigma)
    }

    /// Takes the logs a chunk at a time, then runs
    /// [`ContinuousDist::cdf_batch_ln`]'s kernel on them.
    fn cdf_batch(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "cdf_batch slice length mismatch");
        let mut ln = [0.0_f64; CHUNK];
        for (ts_chunk, out_chunk) in ts.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            let ln_ts = &mut ln[..ts_chunk.len()];
            for (slot, &t) in ln_ts.iter_mut().zip(ts_chunk) {
                *slot = t.ln();
            }
            self.cdf_batch_ln(ts_chunk, ln_ts, out_chunk);
        }
    }

    fn cdf_batch_ln(&self, ts: &[f64], ln_ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "cdf_batch slice length mismatch");
        assert_eq!(ts.len(), ln_ts.len(), "cdf_batch_ln slice length mismatch");
        let mu = self.mu;
        let inv_sigma = 1.0 / self.sigma;
        let mut z = [0.0_f64; CHUNK];
        let chunks = ts.chunks(CHUNK).zip(ln_ts.chunks(CHUNK));
        for ((ts_chunk, ln_chunk), out_chunk) in chunks.zip(out.chunks_mut(CHUNK)) {
            let zs = &mut z[..ts_chunk.len()];
            for ((slot, &t), &ln_t) in zs.iter_mut().zip(ts_chunk).zip(ln_chunk) {
                // Out-of-support points map to -inf, which the CDF
                // kernel takes to exactly +0.0 — the same value the
                // scalar guard returns — so one lane path serves the
                // whole chunk. NaN stays NaN through `ln`.
                *slot = if t <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    (ln_t - mu) * inv_sigma
                };
            }
            cedar_mathx::simd::norm_cdf_fast_slice(zs, out_chunk);
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        (self.mu + self.sigma * norm_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn rejects_bad_parameters() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
        assert!(LogNormal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn moments_match_closed_form() {
        let d = LogNormal::new(2.77, 0.84).unwrap();
        let want_mean = (2.77f64 + 0.5 * 0.84 * 0.84).exp();
        assert!((d.mean() - want_mean).abs() < 1e-9);
        let s2 = 0.84f64 * 0.84;
        let want_var = (s2.exp() - 1.0) * (2.0 * 2.77 + s2).exp();
        assert!((d.variance() - want_var).abs() < 1e-6);
        assert!((d.stddev() - want_var.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn from_mean_stddev_round_trips() {
        let d = LogNormal::from_mean_stddev(25.0, 40.0).unwrap();
        assert!((d.mean() - 25.0).abs() < 1e-9);
        assert!((d.stddev() - 40.0).abs() < 1e-7);
    }

    #[test]
    fn cdf_quantile_round_trip() {
        let d = LogNormal::new(5.9, 1.25).unwrap();
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn bing_fit_percentiles() {
        // Paper Fig. 4: Bing RTT median 330us; LN(5.9, 1.25) has median
        // exp(5.9) ~ 365us, matching the paper's 1% median-error claim for
        // the *fit* (the fit is in us).
        let bing = LogNormal::new(5.9, 1.25).unwrap();
        let median = bing.quantile(0.5);
        assert!((300.0..450.0).contains(&median));
        // p99 should be an order of magnitude above the median (long tail).
        assert!(bing.quantile(0.99) / median > 10.0);
    }

    #[test]
    fn support_edges() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.cdf(0.0), 0.0);
        assert_eq!(d.cdf(-5.0), 0.0);
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), f64::INFINITY);
    }

    #[test]
    fn sampling_matches_moments() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let xs = d.sample_vec(&mut rng, 200_000);
        let m = cedar_mathx::kahan::mean(&xs);
        assert!(
            (m / d.mean() - 1.0).abs() < 0.02,
            "sample mean {m} vs {}",
            d.mean()
        );
        let sd = cedar_mathx::kahan::sample_stddev(&xs);
        assert!((sd / d.stddev() - 1.0).abs() < 0.05);
    }

    #[test]
    fn pdf_integrates_to_cdf_increment() {
        let d = LogNormal::new(0.5, 0.7).unwrap();
        let mass = cedar_mathx::integrate::adaptive_simpson(|x| d.pdf(x), 0.0, 200.0, 1e-10);
        assert!((mass - 1.0).abs() < 1e-6);
    }

    #[test]
    fn with_sigma_and_mu() {
        let d = LogNormal::new(2.0, 0.5).unwrap();
        let d2 = d.with_sigma(1.0).unwrap();
        assert_eq!(d2.mu(), 2.0);
        assert_eq!(d2.sigma(), 1.0);
        let d3 = d.with_mu(3.0).unwrap();
        assert_eq!(d3.mu(), 3.0);
        assert_eq!(d3.sigma(), 0.5);
    }

    #[test]
    fn cdf_batch_ln_is_bit_identical_to_cdf_batch() {
        // At every instruction-set level, against `cdf_batch` at the
        // baseline.
        use cedar_mathx::simd::{with_level, Level};
        use rand::Rng;
        for level in Level::supported() {
            let mut rng = StdRng::seed_from_u64(29);
            for _ in 0..if cfg!(miri) { 4 } else { 400 } {
                let d = LogNormal::new(rng.gen_range(-2.0..9.0), rng.gen_range(0.05..2.5)).unwrap();
                let deadline: f64 = rng.gen_range(0.5..5000.0);
                let steps: usize = rng.gen_range(1..700);
                let eps = deadline / steps as f64;
                // A wait scan's ε-grid, plus the points off the support.
                let mut ts: Vec<f64> = (0..steps)
                    .map(|i| (i as f64 * eps + eps).min(deadline))
                    .collect();
                ts.extend_from_slice(&[0.0, -0.0, -1.0, f64::NAN, f64::INFINITY]);
                let ln_ts: Vec<f64> = ts.iter().map(|t| t.ln()).collect();
                let (mut want, mut got) = (vec![0.0; ts.len()], vec![0.0; ts.len()]);
                with_level(Level::Baseline, || d.cdf_batch(&ts, &mut want));
                with_level(level, || d.cdf_batch_ln(&ts, &ln_ts, &mut got));
                for ((t, w), g) in ts.iter().zip(&want).zip(&got) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{d:?} at {t} at {level:?}");
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let d = LogNormal::new(2.77, 0.84).unwrap();
        let s = serde_json::to_string(&d).unwrap();
        let back: LogNormal = serde_json::from_str(&s).unwrap();
        assert_eq!(d, back);
    }
}
