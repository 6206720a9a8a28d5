//! Finite mixtures of distributions.
//!
//! The workload library uses mixtures to build tail-faithful models —
//! e.g. "log-normal body + Pareto tail", matching the paper's observation
//! (§4.2.1) that the extreme tail beyond ~p99.5 is Pareto-like — and to
//! inject bimodal straggler populations for failure testing.

use crate::traits::{ContinuousDist, DistError};
use cedar_mathx::roots::brent;
use rand::RngCore;

/// A finite mixture of boxed component distributions with normalized
/// weights.
#[derive(Debug)]
pub struct Mixture {
    components: Vec<(f64, Box<dyn ContinuousDist>)>,
    /// The weighted sum with every component CDF at 1.0, added in the
    /// order the CDF adds: the normalized weights' sum, within an ulp of
    /// 1 but not always exactly 1.
    top: f64,
}

impl Mixture {
    /// Builds a mixture from `(weight, component)` pairs.
    ///
    /// Weights must be positive and finite; they are normalized to sum to
    /// one.
    pub fn new(components: Vec<(f64, Box<dyn ContinuousDist>)>) -> Result<Self, DistError> {
        if components.is_empty() {
            return Err(DistError::InvalidData(
                "mixture needs at least one component",
            ));
        }
        if components.iter().any(|(w, _)| !(w.is_finite() && *w > 0.0)) {
            return Err(DistError::InvalidParameter(
                "mixture weights must be finite and positive",
            ));
        }
        let total: f64 = components.iter().map(|(w, _)| w).sum();
        let components: Vec<_> = components
            .into_iter()
            .map(|(w, d)| (w / total, d))
            .collect();
        let top = components.iter().fold(0.0, |sum, (w, _)| sum + w);
        Ok(Self { components, top })
    }

    /// A weighted sum of the component CDFs as the mixture's CDF: exactly
    /// 1.0 once it reaches `top` (every component saturated) or passes
    /// 1.0, so it never exceeds 1 and, along increasing points, stays at
    /// 1.0 once it is there. NaN stays NaN.
    fn saturate(&self, sum: f64) -> f64 {
        if sum >= self.top || sum > 1.0 {
            1.0
        } else {
            sum
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The normalized weights.
    pub fn weights(&self) -> Vec<f64> {
        self.components.iter().map(|(w, _)| *w).collect()
    }
}

impl ContinuousDist for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.saturate(self.components.iter().map(|(w, d)| w * d.cdf(x)).sum())
    }

    fn cdf_batch(&self, ts: &[f64], out: &mut [f64]) {
        assert_eq!(ts.len(), out.len(), "cdf_batch slice length mismatch");
        // One batched pass per component, accumulated in place through a
        // fixed-size stack scratch chunk (no allocation — this can sit on
        // the steady-state wait-scan path). Keeps the same summation order
        // as the scalar `cdf` (component order), so results agree to
        // rounding of the per-point weighted sum.
        out.fill(0.0);
        const CHUNK: usize = 64;
        let mut scratch = [0.0_f64; CHUNK];
        for (ts_chunk, out_chunk) in ts.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            for (w, d) in &self.components {
                let s = &mut scratch[..ts_chunk.len()];
                d.cdf_batch(ts_chunk, s);
                for (slot, &f) in out_chunk.iter_mut().zip(s.iter()) {
                    *slot += w * f;
                }
            }
            for slot in out_chunk {
                *slot = self.saturate(*slot);
            }
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        if p <= 0.0 {
            return self
                .components
                .iter()
                .map(|(_, d)| d.quantile(0.0))
                .fold(f64::INFINITY, f64::min);
        }
        if p >= 1.0 {
            return self
                .components
                .iter()
                .map(|(_, d)| d.quantile(1.0))
                .fold(f64::NEG_INFINITY, f64::max);
        }
        // No closed form: bracket using component quantiles, then invert
        // the mixture CDF numerically.
        let lo = self
            .components
            .iter()
            .map(|(_, d)| d.quantile(p))
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .components
            .iter()
            .map(|(_, d)| d.quantile(p))
            .fold(f64::NEG_INFINITY, f64::max);
        if lo == hi {
            return lo;
        }
        // Widen slightly: mixture quantile lies within the convex hull of
        // component quantiles, but guard against flat CDF regions.
        let span = (hi - lo).max(1e-12);
        let (lo, hi) = (lo - 1e-9 * span, hi + 1e-9 * span);
        brent(|x| self.cdf(x) - p, lo, hi, 1e-12 * span.max(1.0)).unwrap_or(0.5 * (lo + hi))
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum()
    }

    fn variance(&self) -> f64 {
        // Law of total variance: E[Var] + Var[E].
        let mean = self.mean();
        self.components
            .iter()
            .map(|(w, d)| {
                let dm = d.mean() - mean;
                w * (d.variance() + dm * dm)
            })
            .sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Choose a component by weight, then sample it directly — cheaper
        // and better-conditioned than inverting the mixture CDF.
        let mut u: f64 = rand::Rng::gen(rng);
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating-point slack: fall through to the last component.
        let last = &self.components[self.components.len() - 1];
        last.1.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, LogNormal, Normal, Pareto};
    use rand::{rngs::StdRng, SeedableRng};

    fn body_tail() -> Mixture {
        Mixture::new(vec![
            (0.95, Box::new(LogNormal::new(2.77, 0.84).unwrap()) as _),
            (0.05, Box::new(Pareto::new(60.0, 1.5).unwrap()) as _),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Mixture::new(vec![]).is_err());
        assert!(Mixture::new(vec![(0.0, Box::new(Normal::standard()) as _)]).is_err());
        assert!(Mixture::new(vec![(-1.0, Box::new(Normal::standard()) as _)]).is_err());
    }

    #[test]
    fn weights_are_normalized() {
        let m = Mixture::new(vec![
            (2.0, Box::new(Exponential::new(1.0).unwrap()) as _),
            (6.0, Box::new(Exponential::new(2.0).unwrap()) as _),
        ])
        .unwrap();
        let ws = m.weights();
        assert!((ws[0] - 0.25).abs() < 1e-12);
        assert!((ws[1] - 0.75).abs() < 1e-12);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn cdf_is_weighted_sum() {
        let m = body_tail();
        let x = 30.0;
        let want = 0.95 * LogNormal::new(2.77, 0.84).unwrap().cdf(x)
            + 0.05 * Pareto::new(60.0, 1.5).unwrap().cdf(x);
        assert!((m.cdf(x) - want).abs() < 1e-12);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = body_tail();
        for &p in &[0.05, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let q = m.quantile(p);
            assert!((m.cdf(q) - p).abs() < 1e-8, "p={p}, q={q}");
        }
    }

    #[test]
    fn mean_is_weighted_sum() {
        let m = Mixture::new(vec![
            (0.5, Box::new(Exponential::from_mean(2.0).unwrap()) as _),
            (0.5, Box::new(Exponential::from_mean(6.0).unwrap()) as _),
        ])
        .unwrap();
        assert!((m.mean() - 4.0).abs() < 1e-12);
        // Var = E[Var] + Var[E] = (4 + 36)/2 + 4 = 24.
        assert!((m.variance() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_mixture_mean() {
        let m = Mixture::new(vec![
            (0.7, Box::new(Normal::new(10.0, 1.0).unwrap()) as _),
            (0.3, Box::new(Normal::new(50.0, 5.0).unwrap()) as _),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let xs = m.sample_vec(&mut rng, 100_000);
        let want = 0.7 * 10.0 + 0.3 * 50.0;
        assert!((cedar_mathx::kahan::mean(&xs) / want - 1.0).abs() < 0.01);
    }

    #[test]
    fn tail_follows_pareto_component() {
        let m = body_tail();
        // Far in the tail the Pareto component dominates the survival.
        let x = 5000.0;
        let pareto_sf = 0.05 * (1.0 - Pareto::new(60.0, 1.5).unwrap().cdf(x));
        let sf = 1.0 - m.cdf(x);
        assert!((sf / pareto_sf - 1.0).abs() < 0.05);
    }
}
