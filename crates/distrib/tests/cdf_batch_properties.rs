//! Property tests: every `cdf_batch` override agrees with the scalar
//! `cdf` it specializes.
//!
//! The batched kernels hoist parameters out of the loop and may reassociate
//! the standardization (`* inv_sigma` instead of `/ sigma`), so finite
//! points allow a 1e-12 absolute tolerance rather than demanding bit
//! equality. Non-finite and signed-zero inputs are held to a stricter bar:
//! the batch must agree with the scalar **bit for bit** (NaN in, NaN out;
//! `cdf(+inf)` exactly 1; `-0.0` indistinguishable from `+0.0`), because
//! the SIMD lane kernels take region-classified fast paths that must not
//! invent finite answers for poisoned grids. Families without an override
//! (Gamma, Pareto, Weibull) exercise the trait-default fallback, which must
//! be exactly the scalar path.
//!
//! The wait scan stops at the first chunk of its grid that ends in exactly
//! 1.0, so every family and wrapper is also held to the property
//! `ContinuousDist::cdf_batch_ln` documents: along an increasing grid, once
//! a value is exactly 1.0, every later value is 1.0.

use cedar_distrib::{
    ContinuousDist, Empirical, Exponential, Gamma, LogNormal, Mixture, Normal, Pareto, Rectified,
    Scaled, Shifted, Uniform, Weibull,
};
use proptest::prelude::*;
use rand::SeedableRng;

const TOL: f64 = 1e-12;

/// Evaluation grids long enough to cross the 64-element chunk boundary in
/// the affine wrappers' chunked batch helper.
fn grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    let step = (hi - lo) / (n.max(2) - 1) as f64;
    (0..n).map(|i| lo + step * i as f64).collect()
}

/// The poison values every grid gets salted with: NaN, both infinities,
/// both zeros and the smallest normals of either sign.
const EDGES: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
];

fn assert_batch_matches<D: ContinuousDist>(dist: &D, ts: &[f64]) {
    let mut out = vec![f64::NAN; ts.len()];
    dist.cdf_batch(ts, &mut out);
    for (&t, &f) in ts.iter().zip(out.iter()) {
        let scalar = dist.cdf(t);
        if t.is_finite() {
            assert!(
                (f - scalar).abs() <= TOL,
                "cdf_batch({t}) = {f} but cdf({t}) = {scalar}"
            );
        } else {
            // Non-finite inputs: bit-for-bit with the scalar, no tolerance.
            assert_eq!(
                f.to_bits(),
                scalar.to_bits(),
                "cdf_batch({t}) = {f:?} but cdf({t}) = {scalar:?}"
            );
        }
    }
}

/// Salts a finite grid with the edge values at the front, middle and
/// back, so poisoned lanes land both inside and around SIMD blocks.
fn salt(mut ts: Vec<f64>) -> Vec<f64> {
    let mid = ts.len() / 2;
    for (i, &e) in EDGES.iter().enumerate() {
        ts.insert((mid + i) % ts.len().max(1), e);
    }
    ts.extend_from_slice(&EDGES);
    let mut front = EDGES.to_vec();
    front.extend_from_slice(&ts);
    front
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn normal_batch_matches_scalar(
        mu in -50.0..50.0f64,
        sigma in 0.05..30.0f64,
        n in 1usize..200,
    ) {
        let d = Normal::new(mu, sigma).unwrap();
        assert_batch_matches(&d, &salt(grid(mu - 8.0 * sigma, mu + 8.0 * sigma, n)));
    }

    #[test]
    fn lognormal_batch_matches_scalar(
        mu in -3.0..8.0f64,
        sigma in 0.05..3.0f64,
        n in 1usize..200,
    ) {
        let d = LogNormal::new(mu, sigma).unwrap();
        // Include non-positive ts to hit the `t <= 0 -> 0` branch.
        assert_batch_matches(&d, &salt(grid(-2.0, (mu + 6.0 * sigma).exp(), n)));
    }

    #[test]
    fn exponential_batch_matches_scalar(lambda in 0.01..20.0f64, n in 1usize..200) {
        let d = Exponential::new(lambda).unwrap();
        assert_batch_matches(&d, &salt(grid(-1.0, 10.0 / lambda, n)));
    }

    #[test]
    fn uniform_batch_matches_scalar(a in -100.0..100.0f64, w in 0.1..200.0f64, n in 1usize..200) {
        let d = Uniform::new(a, a + w).unwrap();
        assert_batch_matches(&d, &salt(grid(a - w, a + 2.0 * w, n)));
    }

    #[test]
    fn default_fallback_families_match_scalar(
        shape in 0.3..10.0f64,
        scale in 0.1..50.0f64,
        n in 1usize..120,
    ) {
        let ts = grid(-1.0, 12.0 * scale, n);
        assert_batch_matches(&Gamma::new(shape, scale).unwrap(), &ts);
        assert_batch_matches(&Weibull::new(shape, scale).unwrap(), &ts);
        assert_batch_matches(&Pareto::new(scale, shape + 1.0).unwrap(), &ts);
    }

    #[test]
    fn affine_wrappers_match_scalar(
        mu in 0.0..6.0f64,
        sigma in 0.1..2.0f64,
        factor in 0.05..25.0f64,
        offset in -40.0..40.0f64,
        n in 1usize..200,
    ) {
        let inner = LogNormal::new(mu, sigma).unwrap();
        let hi = (mu + 5.0 * sigma).exp();
        let scaled = Scaled::new(inner, factor).unwrap();
        assert_batch_matches(&scaled, &salt(grid(-1.0, hi * factor, n)));
        let shifted = Shifted::new(inner, offset).unwrap();
        assert_batch_matches(&shifted, &salt(grid(offset - 1.0, offset + hi, n)));
        let rectified = Rectified::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&rectified, &salt(grid(-sigma, mu + 5.0 * sigma, n)));
    }

    #[test]
    fn mixture_batch_matches_scalar(
        mu1 in 0.0..5.0f64,
        mu2 in 0.0..5.0f64,
        w in 0.05..0.95f64,
        n in 1usize..200,
    ) {
        let d = Mixture::new(vec![
            (w, Box::new(LogNormal::new(mu1, 0.7).unwrap()) as Box<dyn ContinuousDist>),
            (1.0 - w, Box::new(Normal::new(mu2, 1.3).unwrap())),
        ])
        .unwrap();
        assert_batch_matches(&d, &salt(grid(-3.0, (mu1.max(mu2) + 4.0).exp(), n)));
    }

    #[test]
    fn boxed_and_arc_forwarding_match_scalar(mu in -5.0..5.0f64, sigma in 0.1..4.0f64) {
        let ts = salt(grid(mu - 6.0 * sigma, mu + 6.0 * sigma, 97));
        let boxed: Box<dyn ContinuousDist> = Box::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&boxed, &ts);
        let arced: std::sync::Arc<dyn ContinuousDist> =
            std::sync::Arc::new(Normal::new(mu, sigma).unwrap());
        assert_batch_matches(&arced, &ts);
    }
}

/// An increasing grid `t(z)` for `z` every 0.05 over `[-10, 100]` and every
/// 1e-4 within 0.5 of `z1`, the first `z` at which the scalar CDF of `t(z)`
/// is exactly 1.0 (found by bisection), plus the points within a few ulps
/// of `t(z1)`. For the families built on `norm_cdf_fast`, `z` is the
/// standard score and `z1 ≈ 8.3`.
fn saturation_grid<D: ContinuousDist + ?Sized>(dist: &D, t: impl Fn(f64) -> f64) -> Vec<f64> {
    let (mut below, mut at_one) = (-10.0f64, 100.0f64);
    assert!(
        dist.cdf(t(below)) < 1.0 && dist.cdf(t(at_one)) == 1.0,
        "{dist:?} does not cross 1.0 over the grid"
    );
    loop {
        let mid = 0.5 * (below + at_one);
        if mid <= below || mid >= at_one {
            break;
        }
        if dist.cdf(t(mid)) == 1.0 {
            at_one = mid;
        } else {
            below = mid;
        }
    }
    let coarse = (0..=2200).map(|i| -10.0 + 0.05 * f64::from(i));
    let dense = (-5000..=5000).map(|i| at_one + 1e-4 * f64::from(i));
    let t1 = t(at_one);
    let half_ulp = 0.5 * f64::EPSILON * t1.abs();
    let ulps = (-64..=64).map(|i| t1 + half_ulp * f64::from(i));
    let mut ts: Vec<f64> = coarse.chain(dense).map(&t).chain(ulps).collect();
    ts.sort_by(f64::total_cmp);
    ts.dedup();
    ts
}

/// Along the increasing grid `ts`, `cdf_batch_ln` and `cdf_batch` reach
/// exactly 1.0 and, once they do, write 1.0 at every later point; and a
/// grid evaluated 32 points at a time gets the bits of one call.
fn assert_stays_at_one<D: ContinuousDist + ?Sized>(dist: &D, ts: &[f64]) {
    let ln_ts: Vec<f64> = ts.iter().map(|t| t.ln()).collect();
    let mut via_ln = vec![f64::NAN; ts.len()];
    dist.cdf_batch_ln(ts, &ln_ts, &mut via_ln);
    let mut plain = vec![f64::NAN; ts.len()];
    dist.cdf_batch(ts, &mut plain);
    for (name, out) in [("cdf_batch_ln", &via_ln), ("cdf_batch", &plain)] {
        let first = out.iter().position(|&f| f == 1.0);
        let first = first.unwrap_or_else(|| panic!("{dist:?}: {name} never reaches 1.0"));
        if let Some(i) = out[first..].iter().position(|&f| f != 1.0) {
            let i = first + i;
            panic!(
                "{dist:?}: {name} is 1.0 at {} but {:?} at {}",
                ts[first], out[i], ts[i]
            );
        }
    }
    let mut chunked = vec![f64::NAN; ts.len()];
    let chunks = ts.chunks(32).zip(ln_ts.chunks(32));
    for ((t, ln_t), out) in chunks.zip(chunked.chunks_mut(32)) {
        dist.cdf_batch_ln(t, ln_t, out);
    }
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&chunked),
        bits(&via_ln),
        "{dist:?}: chunked batch differs"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The property the wait scan's saturation cut rests on, for every
    /// family and wrapper.
    #[test]
    fn cdf_batch_ln_stays_at_one_once_it_reaches_one(
        mu in -3.0..8.0f64,
        sigma in 0.05..3.0f64,
        rate in 0.01..20.0f64,
        shape in 0.5..10.0f64,
        factor in 0.05..25.0f64,
        offset in -40.0..40.0f64,
        w in 0.05..0.95f64,
        seed in 0u64..1000,
    ) {
        let ln = LogNormal::new(mu, sigma).unwrap();
        let normal = Normal::new(mu, sigma).unwrap();
        let lognormal_t = |z: f64| (mu + sigma * z).exp();
        let normal_t = |z: f64| mu + sigma * z;
        assert_stays_at_one(&ln, &saturation_grid(&ln, lognormal_t));
        assert_stays_at_one(&normal, &saturation_grid(&normal, normal_t));
        let exponential = Exponential::new(rate).unwrap();
        assert_stays_at_one(&exponential, &saturation_grid(&exponential, |z| z / rate));
        let pareto = Pareto::new(factor, shape).unwrap();
        let pareto_t = |z: f64| factor * (z / shape).exp();
        assert_stays_at_one(&pareto, &saturation_grid(&pareto, pareto_t));
        let gamma = Gamma::new(shape, factor).unwrap();
        assert_stays_at_one(&gamma, &saturation_grid(&gamma, |z| factor * z));
        let weibull = Weibull::new(shape, factor).unwrap();
        let weibull_t = |z: f64| factor * z.max(0.0).powf(1.0 / shape);
        assert_stays_at_one(&weibull, &saturation_grid(&weibull, weibull_t));
        let uniform = Uniform::new(offset, offset + factor).unwrap();
        let uniform_t = |z: f64| offset + factor * z / 50.0;
        assert_stays_at_one(&uniform, &saturation_grid(&uniform, uniform_t));
        let samples = ln.sample_vec(&mut rand::rngs::StdRng::seed_from_u64(seed), 50);
        let empirical = Empirical::from_samples(samples).unwrap();
        let (lo, hi) = (empirical.min(), empirical.max());
        let empirical_t = |z: f64| lo + (hi - lo) * z / 50.0;
        assert_stays_at_one(&empirical, &saturation_grid(&empirical, empirical_t));

        // Three weights, normalized, need not sum to exactly 1.
        let mixture = Mixture::new(vec![
            (w, Box::new(ln) as Box<dyn ContinuousDist>),
            (1.0 - w, Box::new(Normal::new(mu, 1.3).unwrap())),
            (w * sigma, Box::new(Exponential::new(1.0).unwrap())),
        ])
        .unwrap();
        // Follow whichever component saturates last.
        let ln_last = lognormal_t(8.5) > (mu + 1.3 * 8.5).max(38.0);
        let mixture_t = |z: f64| if ln_last { lognormal_t(z) } else { mu + 1.3 * z };
        assert_stays_at_one(&mixture, &saturation_grid(&mixture, mixture_t));
        let shifted = Shifted::new(ln, offset).unwrap();
        assert_stays_at_one(&shifted, &saturation_grid(&shifted, |z| offset + lognormal_t(z)));
        let scaled = Scaled::new(ln, factor).unwrap();
        assert_stays_at_one(&scaled, &saturation_grid(&scaled, |z| factor * lognormal_t(z)));
        let rectified = Rectified::new(normal);
        assert_stays_at_one(&rectified, &saturation_grid(&rectified, normal_t));
        let boxed: Box<dyn ContinuousDist> = Box::new(normal);
        assert_stays_at_one(&boxed, &saturation_grid(&boxed, normal_t));
        let arced: std::sync::Arc<dyn ContinuousDist> = std::sync::Arc::new(ln);
        assert_stays_at_one(&arced, &saturation_grid(&arced, lognormal_t));
    }
}

/// Signed zero is indistinguishable from positive zero through every
/// batch kernel: the sign select in the erfc kernels compares with
/// `>=`, and the support guards compare with `<=`, so `-0.0` and
/// `+0.0` take identical paths and produce identical bits.
#[test]
fn signed_zero_agrees_bit_for_bit_with_scalar() {
    // Power-of-two parameters make the batch's hoisted `* inv_sigma`
    // standardization exactly equal to the scalar's `/ sigma`, so the
    // comparison is bit-for-bit, not merely within tolerance.
    let normal = Normal::new(0.5, 2.0).unwrap();
    let lognormal = LogNormal::new(0.0, 1.0).unwrap();
    let exponential = Exponential::new(1.0).unwrap();
    let uniform = Uniform::new(-1.0, 1.0).unwrap();
    let dists: [&dyn ContinuousDist; 4] = [&normal, &lognormal, &exponential, &uniform];
    for t in [0.0, -0.0] {
        for d in dists {
            let mut out = [f64::NAN];
            d.cdf_batch(&[t], &mut out);
            let scalar = d.cdf(t);
            assert_eq!(
                out[0].to_bits(),
                scalar.to_bits(),
                "cdf_batch({t:?}) = {:?} but cdf = {scalar:?}",
                out[0]
            );
        }
    }
    // The two zeros also agree with each other.
    assert_eq!(normal.cdf(0.0).to_bits(), normal.cdf(-0.0).to_bits());
    assert_eq!(lognormal.cdf(0.0).to_bits(), lognormal.cdf(-0.0).to_bits());
}

/// NaN anywhere in the grid yields NaN in exactly that slot — the lane
/// kernels must fall back rather than classify a NaN lane into a
/// region — and infinities saturate to exactly 0 and 1.
#[test]
fn non_finite_inputs_are_honored_slotwise() {
    let d = LogNormal::new(2.77, 0.84).unwrap();
    let ts = [
        1.0,
        f64::NAN,
        2.0,
        f64::INFINITY,
        3.0,
        f64::NEG_INFINITY,
        4.0,
        f64::NAN,
    ];
    let mut out = [0.0; 8];
    d.cdf_batch(&ts, &mut out);
    assert!(out[1].is_nan() && out[7].is_nan());
    assert_eq!(out[3], 1.0);
    assert_eq!(out[5], 0.0);
    for i in [0, 2, 4, 6] {
        assert!(
            (out[i] - d.cdf(ts[i])).abs() <= TOL,
            "finite neighbour {i} was disturbed by poisoned lanes"
        );
    }
}
