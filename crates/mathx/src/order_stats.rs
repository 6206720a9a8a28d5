//! Expected order statistics of the standard normal distribution.
//!
//! Cedar's online estimator (paper §4.2.2) de-biases the first `r` arrival
//! times out of `k` parallel processes by treating the `i`-th arrival as a
//! draw from the `i`-th order statistic `Z_(i:k)` rather than from the
//! parent distribution. The estimator only needs the *expected values*
//! `m_i = E[Z_(i:k)]` — the paper calls these "values that are available
//! online or can be computed quite accurately using a simple simulation".
//!
//! This module computes them two ways:
//!
//! - **exact** — numerical integration of
//!   `E[Z_(i:k)] = Int x · i·C(k,i)·Phi(x)^(i-1)·(1-Phi(x))^(k-i)·phi(x) dx`,
//!   evaluated in log-space so it stays stable for fan-outs in the
//!   thousands;
//! - **Blom's approximation** — `Phi^{-1}((i - 0.375) / (k + 0.25))`,
//!   accurate to a few times `1e-3` for moderate `k` and essentially free.
//!
//! [`NormalOrderStats`] tables hold Blom's values. The crate-level tests
//! cross-check the two and verify the classic closed-form cases
//! (`k = 2`: `±1/sqrt(pi)`; `k = 3`: `±1.5/sqrt(pi)`).

use crate::fxhash::FxHashMap;
use crate::integrate::gauss_legendre;
use crate::special::{ln_gamma, norm_cdf, norm_pdf, norm_quantile, norm_sf};
use std::sync::{Arc, Mutex, OnceLock};

/// Expected value of the `i`-th order statistic (1-indexed, `1 <= i <= k`)
/// of `k` i.i.d. standard normal samples, by numerical integration.
///
/// Accuracy is better than `1e-9` for `k` up to several thousand.
///
/// # Panics
///
/// Panics if `i == 0`, `k == 0`, or `i > k`.
pub fn normal_order_stat_mean(i: usize, k: usize) -> f64 {
    assert!(i >= 1 && i <= k, "order statistic index out of range");
    if k == 1 {
        return 0.0;
    }
    // Exploit antisymmetry to integrate the better-conditioned half:
    // E[Z_(i:k)] = -E[Z_(k+1-i:k)].
    if 2 * i > k + 1 {
        return -normal_order_stat_mean(k + 1 - i, k);
    }
    // ln( i * C(k, i) ) computed via log-gamma to avoid overflow.
    let kf = k as f64;
    let i_f = i as f64;
    let ln_coef = i_f.ln() + ln_gamma(kf + 1.0) - ln_gamma(i_f + 1.0) - ln_gamma(kf - i_f + 1.0);

    let density = move |x: f64| {
        let cdf = norm_cdf(x);
        let sf = norm_sf(x);
        if cdf <= 0.0 || sf <= 0.0 {
            return 0.0;
        }
        let ln_term = ln_coef + (i_f - 1.0) * cdf.ln() + (kf - i_f) * sf.ln() + norm_pdf(x).ln();
        if ln_term < -745.0 {
            0.0
        } else {
            x * ln_term.exp()
        }
    };

    // The density of Z_(i:k) concentrates around the Blom point; integrate
    // a generous window around it. Width shrinks as k grows but a fixed
    // multiple of the parent scale is always sufficient.
    let center = blom_order_stat_mean(i, k);
    let lo = (center - 12.0).min(-12.0);
    let hi = (center + 12.0).max(12.0);
    gauss_legendre(density, lo, hi, 64)
}

/// Blom's approximation to `E[Z_(i:k)]`:
/// `Phi^{-1}((i - alpha) / (k - 2 alpha + 1))` with `alpha = 0.375`.
///
/// # Panics
///
/// Panics if `i == 0`, `k == 0`, or `i > k`.
pub fn blom_order_stat_mean(i: usize, k: usize) -> f64 {
    assert!(i >= 1 && i <= k, "order statistic index out of range");
    const ALPHA: f64 = 0.375;
    norm_quantile((i as f64 - ALPHA) / (k as f64 - 2.0 * ALPHA + 1.0))
}

/// Precomputed `E[Z_(i:k)]` for all `i in 1..=k` at a fixed sample size `k`,
/// by Blom's approximation ([`blom_order_stat_mean`]).
///
/// The Cedar estimator queries these on every process arrival; computing
/// them once per fan-out and sharing the vector keeps the per-arrival cost
/// at O(1).
///
/// # Examples
///
/// ```
/// use cedar_mathx::order_stats::NormalOrderStats;
///
/// let os = NormalOrderStats::new(50);
/// assert_eq!(os.k(), 50);
/// // Means are increasing in i and antisymmetric around the middle.
/// assert!(os.mean(1) < os.mean(25));
/// assert!((os.mean(1) + os.mean(50)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NormalOrderStats {
    k: usize,
    means: Vec<f64>,
}

impl NormalOrderStats {
    /// Computes all `k` expected order statistics.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "sample size must be at least 1");
        let means = (1..=k).map(|i| blom_order_stat_mean(i, k)).collect();
        Self { k, means }
    }

    /// Returns the process-wide shared table for `k`, computing it on
    /// first use.
    ///
    /// Building a table costs `k` quantile evaluations; queries with the
    /// same fan-out arrive constantly in the service, so estimators
    /// should go through this cache instead of calling
    /// [`NormalOrderStats::new`] per query. The map only ever grows, but
    /// it is keyed by fan-out — a handful of distinct values in any real
    /// deployment.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn shared(k: usize) -> Arc<Self> {
        type TableCache = Mutex<FxHashMap<usize, Arc<NormalOrderStats>>>;
        static CACHE: OnceLock<TableCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(FxHashMap::default()));
        if let Some(hit) = cache.lock().expect("order-stat cache poisoned").get(&k) {
            return Arc::clone(hit);
        }
        // Compute outside the lock, so one fan-out's table does not stall
        // every concurrent estimator build. A racing thread may compute
        // the same table; last insert wins and both results are identical.
        let table = Arc::new(Self::new(k));
        cache
            .lock()
            .expect("order-stat cache poisoned")
            .insert(k, Arc::clone(&table));
        table
    }

    /// The sample size these order statistics refer to.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `E[Z_(i:k)]` for 1-indexed `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i == 0` or `i > k`.
    pub fn mean(&self, i: usize) -> f64 {
        assert!(i >= 1 && i <= self.k, "order statistic index out of range");
        self.means[i - 1]
    }

    /// All means as a slice (index 0 holds `i = 1`).
    pub fn means(&self) -> &[f64] {
        &self.means
    }
}

/// CDF of the `i`-th order statistic of `k` samples from a parent with CDF
/// value `p = F(t)`: `P[X_(i:k) <= t] = I_p(i, k - i + 1)`.
///
/// # Panics
///
/// Panics if `i == 0`, `k == 0`, or `i > k`.
pub fn order_stat_cdf(p: f64, i: usize, k: usize) -> f64 {
    assert!(i >= 1 && i <= k, "order statistic index out of range");
    crate::special::beta_inc(i as f64, (k - i + 1) as f64, p.clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAC_1_SQRT_PI: f64 = 0.5641895835477563;

    #[test]
    fn closed_form_k2() {
        // E[max of 2] = 1/sqrt(pi).
        assert!((normal_order_stat_mean(2, 2) - FRAC_1_SQRT_PI).abs() < 1e-9);
        assert!((normal_order_stat_mean(1, 2) + FRAC_1_SQRT_PI).abs() < 1e-9);
    }

    #[test]
    fn closed_form_k3() {
        // E[max of 3] = 1.5/sqrt(pi); the middle one is 0 by symmetry.
        assert!((normal_order_stat_mean(3, 3) - 1.5 * FRAC_1_SQRT_PI).abs() < 1e-9);
        assert!(normal_order_stat_mean(2, 3).abs() < 1e-10);
    }

    #[test]
    fn known_value_k5() {
        // E[Z_(5:5)] = 1.16296447... (tabulated in David & Nagaraja).
        assert!((normal_order_stat_mean(5, 5) - 1.1629644736842425).abs() < 1e-6);
    }

    #[test]
    fn k1_is_parent_mean() {
        assert_eq!(normal_order_stat_mean(1, 1), 0.0);
    }

    #[test]
    fn means_sum_to_zero() {
        // Sum over i of E[Z_(i:k)] equals k * E[Z] = 0.
        for &k in &[2usize, 5, 10, 50] {
            let total: f64 = (1..=k).map(|i| normal_order_stat_mean(i, k)).sum();
            assert!(total.abs() < 1e-8, "k={k}, sum={total}");
        }
    }

    #[test]
    fn means_are_increasing() {
        let os = NormalOrderStats::new(20);
        for i in 1..20 {
            assert!(os.mean(i) < os.mean(i + 1));
        }
    }

    #[test]
    fn blom_matches_exact_to_expected_tolerance() {
        for &k in &[5usize, 20, 50] {
            for i in 1..=k {
                let exact = normal_order_stat_mean(i, k);
                let blom = blom_order_stat_mean(i, k);
                assert!(
                    (exact - blom).abs() < 0.02,
                    "k={k}, i={i}: exact={exact}, blom={blom}"
                );
            }
        }
    }

    #[test]
    fn large_fanout_is_stable() {
        // k = 2500 matches the paper's Facebook setup (50x50). The smallest
        // order statistic of 2500 normals has mean around -3.4.
        let m = normal_order_stat_mean(1, 2500);
        assert!((-3.6..=-3.2).contains(&m), "got {m}");
        let b = blom_order_stat_mean(1, 2500);
        assert!((m - b).abs() < 0.02);
    }

    #[test]
    fn cached_means_match_scalar_function() {
        let os = NormalOrderStats::new(10);
        for i in 1..=10 {
            assert!((os.mean(i) - blom_order_stat_mean(i, 10)).abs() < 1e-12);
        }
        assert_eq!(os.means().len(), 10);
        assert_eq!(os.k(), 10);
    }

    #[test]
    fn shared_cache_returns_same_table() {
        let a = NormalOrderStats::shared(17);
        let b = NormalOrderStats::shared(17);
        assert!(Arc::ptr_eq(&a, &b), "same k must share one table");
        // Contents match a freshly built table.
        let fresh = NormalOrderStats::new(17);
        assert_eq!(a.means(), fresh.means());
    }

    #[test]
    fn shared_cache_is_threadsafe() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| NormalOrderStats::shared(33)))
            .collect();
        let tables: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &tables {
            assert_eq!(t.k(), 33);
            assert_eq!(t.means(), tables[0].means());
        }
    }

    #[test]
    fn order_stat_cdf_extremes() {
        // Minimum of k: P = 1 - (1-p)^k. Maximum of k: P = p^k.
        let k = 9;
        for &p in &[0.1, 0.5, 0.8] {
            assert!((order_stat_cdf(p, 1, k) - (1.0 - (1.0 - p).powi(k as i32))).abs() < 1e-12);
            assert!((order_stat_cdf(p, k, k) - p.powi(k as i32)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_index() {
        normal_order_stat_mean(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_index_above_k() {
        normal_order_stat_mean(6, 5);
    }
}
