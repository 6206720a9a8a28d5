//! The [`ContinuousDist`] trait and shared error type.

use rand::RngCore;

/// Error returned by distribution constructors for invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A parameter violated its domain; the message names the offender.
    InvalidParameter(&'static str),
    /// The input data set was unusable (empty, non-finite, ...).
    InvalidData(&'static str),
}

impl core::fmt::Display for DistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DistError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            DistError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

/// A univariate continuous probability distribution.
///
/// The trait is object-safe: the simulator and the aggregator policies hold
/// stage distributions as `Box<dyn ContinuousDist>` so that a single code
/// path serves log-normal production fits, Gaussian sensitivity runs and
/// empirical trace replays alike.
///
/// Sampling uses inverse-transform by default ([`ContinuousDist::sample`]
/// draws a uniform and maps it through [`ContinuousDist::quantile`]), which
/// makes every sampler deterministic under a seeded RNG.
pub trait ContinuousDist: Send + Sync + core::fmt::Debug {
    /// Probability density function at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P[X <= x]`.
    ///
    /// Must be monotone non-decreasing with limits 0 and 1.
    fn cdf(&self, x: f64) -> f64;

    /// Evaluates the CDF at every point of `ts`, writing into `out`.
    ///
    /// Semantically identical to calling [`ContinuousDist::cdf`] per point;
    /// the default does exactly that. Families with an analytic CDF
    /// override it with a tight loop over fixed-cost kernels (no
    /// per-element virtual dispatch, hoisted parameter arithmetic) so the
    /// wait-duration scan can evaluate a whole ε-grid in one call.
    ///
    /// Implementations must agree with the scalar `cdf` to within a few
    /// ulps (the property tests enforce ≤1e-12 absolute).
    ///
    /// # Panics
    ///
    /// Panics if `ts` and `out` have different lengths.
    fn cdf_batch(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "cdf_batch slice length mismatch");
        for (slot, &t) in out.iter_mut().zip(ts) {
            *slot = self.cdf(t);
        }
    }

    /// [`ContinuousDist::cdf_batch`] for a caller that already holds
    /// `ln_ts[i] == ts[i].ln()`, as a wait scan does for the fixed points
    /// of its ε-grid. Writes exactly what `cdf_batch(ts, out)` writes; the
    /// default ignores `ln_ts` and calls it. Families whose CDF is a
    /// function of `ln t` (the log-normal) skip their per-point `ln`.
    ///
    /// The wait scan evaluates its grid with this a chunk at a time and
    /// stops after the first chunk that ends in exactly 1.0, so every
    /// implementation (and [`ContinuousDist::cdf_batch`] with it) must
    /// keep two properties:
    ///
    /// - along an increasing grid, once a value is exactly `1.0`, every
    ///   later value is `1.0`;
    /// - each value depends only on its own point, so a grid evaluated in
    ///   pieces gets the bits of one call.
    ///
    /// Every family and wrapper in this crate keeps both, as the
    /// `cdf_batch_properties` tests pin.
    ///
    /// # Panics
    ///
    /// Panics if the three slices have different lengths.
    fn cdf_batch_ln(&self, ts: &[f64], ln_ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), ln_ts.len(), "cdf_batch_ln slice length mismatch");
        self.cdf_batch(ts, out);
    }

    /// Quantile function (inverse CDF) for `p in [0, 1]`.
    ///
    /// Implementations return the infimum of the support for `p = 0` and
    /// the supremum (possibly `INFINITY`) for `p = 1`.
    fn quantile(&self, p: f64) -> f64;

    /// Expected value. May be `INFINITY` for heavy-tailed families
    /// (e.g. Pareto with shape <= 1).
    fn mean(&self) -> f64;

    /// Variance. May be `INFINITY` for heavy-tailed families.
    fn variance(&self) -> f64;

    /// Standard deviation; the square root of [`ContinuousDist::variance`].
    fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Draws one sample by inverse transform.
    ///
    /// The uniform variate is confined to the open interval `(0, 1)` so
    /// that distributions with unbounded support never produce infinities.
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u: f64 = rand::Rng::gen(rng);
        // `gen` yields [0, 1); nudge exact zeros into the open interval.
        if u == 0.0 {
            u = f64::MIN_POSITIVE;
        }
        self.quantile(u)
    }

    /// Fills `out` with i.i.d. samples; convenience over
    /// [`ContinuousDist::sample`].
    fn sample_into(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Draws `n` i.i.d. samples into a fresh vector.
    fn sample_vec(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        self.sample_into(rng, &mut v);
        v
    }
}

impl ContinuousDist for Box<dyn ContinuousDist> {
    fn pdf(&self, x: f64) -> f64 {
        self.as_ref().pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        self.as_ref().cdf(x)
    }
    fn cdf_batch(&self, ts: &[f64], out: &mut [f64]) {
        self.as_ref().cdf_batch(ts, out);
    }
    fn cdf_batch_ln(&self, ts: &[f64], ln_ts: &[f64], out: &mut [f64]) {
        self.as_ref().cdf_batch_ln(ts, ln_ts, out);
    }
    fn quantile(&self, p: f64) -> f64 {
        self.as_ref().quantile(p)
    }
    fn mean(&self) -> f64 {
        self.as_ref().mean()
    }
    fn variance(&self) -> f64 {
        self.as_ref().variance()
    }
    fn stddev(&self) -> f64 {
        self.as_ref().stddev()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.as_ref().sample(rng)
    }
}

impl<D: ContinuousDist + ?Sized> ContinuousDist for std::sync::Arc<D> {
    fn pdf(&self, x: f64) -> f64 {
        self.as_ref().pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        self.as_ref().cdf(x)
    }
    fn cdf_batch(&self, ts: &[f64], out: &mut [f64]) {
        self.as_ref().cdf_batch(ts, out);
    }
    fn cdf_batch_ln(&self, ts: &[f64], ln_ts: &[f64], out: &mut [f64]) {
        self.as_ref().cdf_batch_ln(ts, ln_ts, out);
    }
    fn quantile(&self, p: f64) -> f64 {
        self.as_ref().quantile(p)
    }
    fn mean(&self) -> f64 {
        self.as_ref().mean()
    }
    fn variance(&self) -> f64 {
        self.as_ref().variance()
    }
    fn stddev(&self) -> f64 {
        self.as_ref().stddev()
    }
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.as_ref().sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DistError::InvalidParameter("sigma must be positive");
        assert!(e.to_string().contains("sigma"));
        let e = DistError::InvalidData("empty sample");
        assert!(e.to_string().contains("empty"));
    }
}
