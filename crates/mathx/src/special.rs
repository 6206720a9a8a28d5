//! Special functions: error function, standard normal distribution,
//! log-gamma, and regularized incomplete beta/gamma functions.
//!
//! The error function is evaluated through the regularized incomplete gamma
//! function (`erf(x) = P(1/2, x^2)`), whose series and continued-fraction
//! expansions converge to near machine precision, including deep in the
//! tail where naive `1 - erf(x)` would cancel catastrophically.

use core::f64::consts::{FRAC_1_SQRT_2, PI};
use std::sync::OnceLock;

/// `1 / sqrt(2*pi)`, the normalizing constant of the standard normal pdf.
pub const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// `sqrt(2*pi)`.
pub const SQRT_2PI: f64 = 2.506_628_274_631_000_5;

/// The error function `erf(x) = 2/sqrt(pi) * Int_0^x exp(-t^2) dt`.
///
/// Relative accuracy is ~1e-14 over the real line.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let p = gamma_p(0.5, x * x);
    if x >= 0.0 {
        p
    } else {
        -p
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Accurate in the right tail: for large positive `x` the continued-fraction
/// branch of `Q(1/2, x^2)` is used directly, so the result retains full
/// relative precision instead of cancelling to zero.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        1.0 + gamma_p(0.5, x * x)
    }
}

// ---------------------------------------------------------------------------
// Fast error function (Cody's rational approximations)
// ---------------------------------------------------------------------------
//
// The `erf`/`erfc` above route through the incomplete-gamma series and
// continued fraction, which iterate to convergence (tens of terms per call).
// The hot wait-duration scan evaluates the normal CDF hundreds of times per
// arrival, so it uses these fixed-degree rational approximations instead:
// W. J. Cody, "Rational Chebyshev approximation for the error function",
// Math. Comp. 23 (1969) — the same scheme as SPECFUN's CALERF. Maximum
// relative error is below 1.2e-16 in each region, and the fixed-length
// Horner chains are branch-free within a region, so LLVM can keep them in
// registers (and unroll/vectorize the batch loops built on top).

/// `1 / sqrt(pi)`.
pub(crate) const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;

/// Region boundary: below this `erf` is computed directly.
pub(crate) const ERF_THRESHOLD: f64 = 0.46875;

// The coefficient digits below are transcribed verbatim from Cody's
// published tables; clippy's "excessive precision" lint would have us
// truncate them to the nearest f64, obscuring the provenance.
/// Coefficients for `erf(x)`, `|x| <= 0.46875`.
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_6e2,
    3.774_852_376_853_020_2e2,
    3.209_377_589_138_469_5e3,
    1.857_777_061_846_031_5e-1,
];
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_B: [f64; 4] = [
    2.360_129_095_234_412_1e1,
    2.440_246_379_344_441_7e2,
    1.282_616_526_077_372_3e3,
    2.844_236_833_439_170_6e3,
];

/// Coefficients for `erfc(x)`, `0.46875 < x <= 4.0`.
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_C: [f64; 9] = [
    5.641_884_969_886_700_9e-1,
    8.883_149_794_388_376e0,
    6.611_919_063_714_163e1,
    2.986_351_381_974_001_3e2,
    8.819_522_212_417_691e2,
    1.712_047_612_634_070_6e3,
    2.051_078_377_826_071_5e3,
    1.230_339_354_797_997_2e3,
    2.153_115_354_744_038_5e-8,
];
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_D: [f64; 8] = [
    1.574_492_611_070_983_5e1,
    1.176_939_508_913_125e2,
    5.371_811_018_620_098e2,
    1.621_389_574_566_690_2e3,
    3.290_799_235_733_459_7e3,
    4.362_619_090_143_247e3,
    3.439_367_674_143_721_6e3,
    1.230_339_354_803_749_4e3,
];

/// Coefficients for `erfc(x)`, `x > 4.0`.
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_P: [f64; 6] = [
    3.053_266_349_612_323_4e-1,
    3.603_448_999_498_044_4e-1,
    1.257_817_261_112_292_4e-1,
    1.608_378_514_874_227_7e-2,
    6.587_491_615_298_378e-4,
    1.631_538_713_730_209_8e-2,
];
#[allow(clippy::excessive_precision)]
pub(crate) const ERF_Q: [f64; 5] = [
    2.568_520_192_289_822_4e0,
    1.872_952_849_923_460_4e0,
    5.279_051_029_514_284e-1,
    6.051_834_131_244_132e-2,
    2.335_204_976_268_691_8e-3,
];

/// `erf(x)` for `|x| <= 0.46875` (region 1 of Cody's scheme).
#[inline]
fn erf_small(x: f64) -> f64 {
    let z = x * x;
    let mut num = ERF_A[4] * z;
    let mut den = z;
    for i in 0..3 {
        num = (num + ERF_A[i]) * z;
        den = (den + ERF_B[i]) * z;
    }
    x * (num + ERF_A[3]) / (den + ERF_B[3])
}

/// Beyond this `erfc(y)` underflows to zero in f64 (CALERF's `XBIG`).
/// The early return also keeps `y = +inf` finite: the split-argument
/// trick below would otherwise produce `inf - inf = NaN`.
pub(crate) const ERFC_XBIG: f64 = 26.543;

/// Heads the split below can take: `y < ERFC_XBIG` puts the head index
/// `trunc(16 y)` in `0..=424`.
const EXP_HEADS: usize = 425;

/// `exp(-h^2)` for every head `h = k/16`, filled once by the same
/// `(-h * h).exp()` call the split used to make per point.
pub(crate) fn exp_heads() -> &'static [f64; EXP_HEADS] {
    static HEADS: OnceLock<[f64; EXP_HEADS]> = OnceLock::new();
    HEADS.get_or_init(|| {
        std::array::from_fn(|k| {
            let h = k as f64 / 16.0;
            (-h * h).exp()
        })
    })
}

/// CALERF's split-argument `exp(-y^2)` for `0 <= y < ERFC_XBIG`, which
/// keeps relative accuracy where `y*y` rounds: `y^2` splits into an
/// exactly representable head `h^2` (`h` a multiple of 1/16) plus a
/// correction, and `exp(-h^2)` comes from `heads`.
#[inline(always)]
pub(crate) fn split_exp(y: f64, heads: &[f64; EXP_HEADS]) -> f64 {
    let k = (y * 16.0).trunc();
    let h = k / 16.0;
    let del = (y - h) * (y + h);
    heads[k as usize] * (-del).exp()
}

/// `erfc(y)` for `y > 0.46875`, with the split-argument `exp(-y^2)`
/// evaluation from CALERF that preserves relative accuracy in the tail.
#[inline]
fn erfc_tail(y: f64) -> f64 {
    if y >= ERFC_XBIG {
        return 0.0;
    }
    erfc_tail_rational(y, split_exp(y, exp_heads()))
}

/// The rational part of `erfc_tail`, given `expv = exp(-y^2)`.
#[inline(always)]
fn erfc_tail_rational(y: f64, expv: f64) -> f64 {
    if y <= 4.0 {
        let mut num = ERF_C[8] * y;
        let mut den = y;
        for i in 0..7 {
            num = (num + ERF_C[i]) * y;
            den = (den + ERF_D[i]) * y;
        }
        expv * (num + ERF_C[7]) / (den + ERF_D[7])
    } else {
        let z = 1.0 / (y * y);
        let mut num = ERF_P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + ERF_P[i]) * z;
            den = (den + ERF_Q[i]) * z;
        }
        let r = z * (num + ERF_P[4]) / (den + ERF_Q[4]);
        expv * (FRAC_1_SQRT_PI - r) / y
    }
}

/// Fast error function: Cody's fixed-degree rational approximations.
///
/// Agrees with [`erf`] to better than `2e-16` relative error everywhere,
/// but runs in constant time (no iteration to convergence) — roughly an
/// order of magnitude faster per call. Used by the batched CDF kernels on
/// the wait-scan hot path.
pub fn erf_fast(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    if y <= ERF_THRESHOLD {
        erf_small(x)
    } else {
        let r = 1.0 - erfc_tail(y);
        if x >= 0.0 {
            r
        } else {
            -r
        }
    }
}

/// Fast complementary error function; see [`erf_fast`].
///
/// Retains full relative precision in the right tail (down to the
/// underflow of `exp(-x^2)` near `x ~ 26.6`).
pub fn erfc_fast(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let y = x.abs();
    let r = if y <= ERF_THRESHOLD {
        1.0 - erf_small(x.abs())
    } else {
        erfc_tail(y)
    };
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Fast standard normal CDF built on [`erfc_fast`]; the per-point kernel
/// of the batched distribution CDFs.
#[inline]
pub fn norm_cdf_fast(x: f64) -> f64 {
    0.5 * erfc_fast(-x * FRAC_1_SQRT_2)
}

/// Probability density function of the standard normal distribution.
pub fn norm_pdf(x: f64) -> f64 {
    FRAC_1_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Cumulative distribution function of the standard normal distribution,
/// `Phi(x) = P[Z <= x]`.
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// Survival function of the standard normal, `1 - Phi(x)`, accurate for
/// large `x` where `1.0 - norm_cdf(x)` would cancel.
pub fn norm_sf(x: f64) -> f64 {
    0.5 * erfc(x * FRAC_1_SQRT_2)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Implements Acklam's rational approximation followed by a single Halley
/// refinement step, giving ~1e-14 relative accuracy for `p` away from the
/// endpoints. Returns `-INFINITY` for `p == 0`, `INFINITY` for `p == 1` and
/// `NaN` outside `[0, 1]`.
pub fn norm_quantile(p: f64) -> f64 {
    if !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step using the exact CDF. Work with the side
    // that keeps precision (CDF on the left, survival on the right).
    let e = if x <= 0.0 {
        norm_cdf(x) - p
    } else {
        (1.0 - p) - norm_sf(x)
    };
    let u = e * SQRT_2PI * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

/// Natural logarithm of the gamma function for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 terms), relative error below `1e-13`.
pub fn ln_gamma(x: f64) -> f64 {
    if x <= 0.0 {
        return f64::NAN;
    }
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Gamma(x) Gamma(1-x) = pi / sin(pi x).
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural logarithm of the beta function `B(a, b)`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Binomial coefficient `C(n, k)` as an `f64`.
///
/// Computed by the multiplicative formula, which stays within a relative
/// error of a few ulps for any `n` whose result is representable.
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut r = 1.0;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Regularized lower incomplete gamma function `P(a, x)` for `a > 0`,
/// `x >= 0`.
///
/// Series expansion for `x < a + 1`, otherwise `1 - Q(a, x)` via the
/// continued fraction. This is the CDF of the Gamma(a, 1) distribution.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        one_minus_gamma_q(a, x)
    }
}

/// `1 − Q(a, x)` for `x >= a + 1`, exactly 1.0 from one point on.
///
/// `1 − q` rounds to 1.0 exactly when `q <= 2^-54`, and the continued
/// fraction's few-ulp noise could put one `x` under that line and a
/// larger one over it. So the test is made on `x` cut to 20 significant
/// bits, where neighbouring points lie `x·2^-20` apart and `Q` falls by
/// far more than the noise from one to the next: 1.0 iff `Q` there is at
/// most `2^-54`, and `1 − 2^-53` at most otherwise.
fn one_minus_gamma_q(a: f64, x: f64) -> f64 {
    const SATURATED: f64 = 5.551115123125783e-17; // 2^-54
    const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;
    let q = gamma_q_cf(a, x);
    if q.is_nan() || q > 4.0 * SATURATED {
        return 1.0 - q;
    }
    let coarse = f64::from_bits(x.to_bits() & !((1 << 32) - 1));
    if gamma_q_cf(a, coarse) <= SATURATED {
        1.0
    } else {
        (1.0 - q).min(BELOW_ONE)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`,
/// accurate for large `x` (right tail).
pub fn gamma_q(a: f64, x: f64) -> f64 {
    if a <= 0.0 || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// `ln_gamma(0.5)` bit for bit as the Lanczos sum computes it. The exact
/// `erfc`, `norm_cdf` and `norm_sf` always evaluate the incomplete gamma
/// at `a = 0.5`, so the sum is not re-run for them.
const LN_GAMMA_HALF: f64 = 0.572_364_942_924_699_5;

/// [`ln_gamma`], read from [`LN_GAMMA_HALF`] at `a = 0.5`.
fn ln_gamma_of(a: f64) -> f64 {
    if a == 0.5 {
        LN_GAMMA_HALF
    } else {
        ln_gamma(a)
    }
}

/// Series representation of `P(a, x)`; converges fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma_of(a)).exp()
}

/// Continued-fraction representation of `Q(a, x)` (modified Lentz);
/// converges fast for `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma_of(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)` for `a, b > 0` and
/// `x in [0, 1]`, via the continued-fraction expansion (Lentz's method).
///
/// This is the CDF of the Beta(a, b) distribution; it also gives the CDF of
/// order statistics: `P[X_(i:k) <= t] = I_{F(t)}(i, k - i + 1)`.
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) || a <= 0.0 || b <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() / a) * beta_cf(a, b, x)
    } else {
        1.0 - (ln_front.exp() / b) * beta_cf(b, a, 1.0 - x)
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// The fast kernels as they were before the head table, with both `exp`
/// factors of the split from libm per point, and the input gauntlet the
/// bit-identity tests sweep.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    fn split_exp(y: f64) -> f64 {
        let ysq = (y * 16.0).trunc() / 16.0;
        let del = (y - ysq) * (y + ysq);
        (-ysq * ysq).exp() * (-del).exp()
    }

    fn erfc_tail(y: f64) -> f64 {
        if y >= ERFC_XBIG {
            return 0.0;
        }
        erfc_tail_rational(y, split_exp(y))
    }

    pub(crate) fn erf_fast(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let y = x.abs();
        if y <= ERF_THRESHOLD {
            erf_small(x)
        } else {
            let r = 1.0 - erfc_tail(y);
            if x >= 0.0 {
                r
            } else {
                -r
            }
        }
    }

    pub(crate) fn erfc_fast(x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        let y = x.abs();
        let r = if y <= ERF_THRESHOLD {
            1.0 - erf_small(x.abs())
        } else {
            erfc_tail(y)
        };
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    pub(crate) fn norm_cdf_fast(x: f64) -> f64 {
        0.5 * erfc_fast(-x * FRAC_1_SQRT_2)
    }

    /// A pile of inputs that crosses every region boundary, mixes
    /// signs inside lane blocks, and includes every special value.
    pub(crate) fn gauntlet() -> Vec<f64> {
        let mut xs = Vec::new();
        // Dense sweep crossing 0.46875, 4.0 and 26.543 with mixed signs.
        let mut x = -30.0;
        while x <= 30.0 {
            xs.push(x);
            xs.push(-x * 0.7);
            x += 0.193;
        }
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            ERF_THRESHOLD,
            -ERF_THRESHOLD,
            4.0,
            -4.0,
            ERFC_XBIG,
            -ERFC_XBIG,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ]);
        xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Proptest iterations, shrunk under Miri's interpreter.
    const CASES: u32 = if cfg!(miri) { 32 } else { 4096 };

    fn assert_matches_reference(x: f64) {
        for (name, fast, before) in [
            ("erf_fast", erf_fast(x), reference::erf_fast(x)),
            ("erfc_fast", erfc_fast(x), reference::erfc_fast(x)),
            (
                "norm_cdf_fast",
                norm_cdf_fast(x),
                reference::norm_cdf_fast(x),
            ),
        ] {
            assert_eq!(fast.to_bits(), before.to_bits(), "{name}({x})");
        }
    }

    #[test]
    fn head_table_is_bit_identical_to_the_libm_split() {
        for x in reference::gauntlet() {
            assert_matches_reference(x);
        }
        // Every head, at its start, inside it, and just below the next.
        for k in 0..EXP_HEADS {
            let h = k as f64 / 16.0;
            for y in [h, h + 0.03, (h + 1.0 / 16.0).next_down()] {
                assert_matches_reference(y);
                assert_matches_reference(-y);
                assert_matches_reference(y * core::f64::consts::SQRT_2);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        #[test]
        fn head_table_matches_the_libm_split_anywhere(x in -37.0f64..37.0) {
            assert_matches_reference(x);
        }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn erf_reference_values() {
        // Reference values from mpmath (50 digits, rounded).
        assert_close(erf(0.0), 0.0, 1e-16);
        assert_close(erf(0.5), 0.5204998778130465, 1e-13);
        assert_close(erf(1.0), 0.8427007929497149, 1e-13);
        assert_close(erf(2.0), 0.9953222650189527, 1e-13);
        assert_close(erf(-1.0), -0.8427007929497149, 1e-13);
        assert_close(erf(3.0), 0.9999779095030014, 1e-13);
    }

    #[test]
    fn erfc_tail_accuracy() {
        assert_close(erfc(2.0), 4.677734981063127e-3, 1e-13);
        assert_close(erfc(4.0), 1.541725790028002e-8, 1e-20);
        assert_close(erfc(6.0), 2.1519736712498913e-17, 1e-29);
        assert_close(erfc(10.0), 2.088487583762545e-45, 1e-57);
        // Symmetry erfc(-x) = 2 - erfc(x).
        assert_close(erfc(-1.5), 2.0 - erfc(1.5), 1e-14);
    }

    #[test]
    fn erf_fast_matches_reference_erf() {
        // Dense grid across all three Cody regions plus the boundaries.
        let mut x = -8.0;
        while x <= 8.0 {
            let want = erf(x);
            let got = erf_fast(x);
            assert!(
                (got - want).abs() <= 1e-13,
                "erf_fast({x}) = {got}, erf = {want}"
            );
            x += 0.0173;
        }
        for &x in &[0.46875, -0.46875, 4.0, -4.0, 0.0, -0.0] {
            assert_close(erf_fast(x), erf(x), 1e-15);
        }
        assert!(erf_fast(f64::NAN).is_nan());
        assert_close(erf_fast(30.0), 1.0, 1e-16);
        assert_close(erf_fast(-30.0), -1.0, 1e-16);
    }

    #[test]
    fn erfc_fast_keeps_tail_relative_accuracy() {
        for &x in &[0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 15.0, 20.0, 25.0] {
            let want = erfc(x);
            let got = erfc_fast(x);
            assert!(
                (got / want - 1.0).abs() < 1e-12,
                "erfc_fast({x}) = {got}, erfc = {want}"
            );
        }
        // Left side: erfc(-x) = 2 - erfc(x).
        for &x in &[0.3, 1.7, 5.0] {
            assert_close(erfc_fast(-x), 2.0 - erfc_fast(x), 1e-14);
        }
        assert!(erfc_fast(f64::NAN).is_nan());
    }

    #[test]
    fn norm_cdf_fast_matches_norm_cdf() {
        let mut x = -10.0;
        while x <= 10.0 {
            assert_close(norm_cdf_fast(x), norm_cdf(x), 1e-13);
            x += 0.0311;
        }
        // Relative accuracy in the left tail, where the CDF is tiny.
        for &x in &[-6.0, -8.0, -10.0] {
            let want = norm_cdf(x);
            let got = norm_cdf_fast(x);
            assert!((got / want - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn norm_cdf_reference_values() {
        assert_close(norm_cdf(0.0), 0.5, 1e-15);
        assert_close(norm_cdf(1.0), 0.8413447460685429, 1e-13);
        assert_close(norm_cdf(-1.0), 0.15865525393145707, 1e-13);
        assert_close(norm_cdf(1.959963984540054), 0.975, 1e-11);
        assert_close(norm_cdf(-3.0), 1.3498980316300946e-3, 1e-13);
    }

    #[test]
    fn norm_sf_matches_cdf_complement() {
        for &x in &[-4.0, -1.0, 0.0, 0.5, 2.5, 5.0] {
            assert_close(norm_sf(x), 1.0 - norm_cdf(x), 1e-13);
        }
        // Deep tail: survival function keeps relative precision.
        let sf8 = norm_sf(8.0);
        assert!((sf8 / 6.220960574271785e-16 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn norm_quantile_round_trips() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = norm_quantile(p);
            assert_close(norm_cdf(x), p, 1e-12);
        }
    }

    #[test]
    fn norm_quantile_extreme_round_trips() {
        for &p in &[1e-10, 1e-6, 1e-3, 0.999, 1.0 - 1e-6] {
            let x = norm_quantile(p);
            let back = if x <= 0.0 {
                norm_cdf(x)
            } else {
                1.0 - norm_sf(x)
            };
            assert!(
                (back / p - 1.0).abs() < 1e-6 || (back - p).abs() < 1e-12,
                "p={p}, back={back}"
            );
        }
    }

    #[test]
    fn norm_quantile_reference_values() {
        assert_close(norm_quantile(0.5), 0.0, 1e-12);
        assert_close(norm_quantile(0.975), 1.959963984540054, 1e-10);
        assert_close(norm_quantile(0.8413447460685429), 1.0, 1e-10);
        assert_close(norm_quantile(0.0013498980316300946), -3.0, 1e-9);
    }

    #[test]
    fn norm_quantile_edge_cases() {
        assert_eq!(norm_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(norm_quantile(1.0), f64::INFINITY);
        assert!(norm_quantile(-0.1).is_nan());
        assert!(norm_quantile(1.1).is_nan());
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-13);
        assert_close(ln_gamma(2.0), 0.0, 1e-13);
        assert_close(ln_gamma(0.5), 0.5 * PI.ln(), 1e-12);
        assert_close(ln_gamma(5.0), 24.0_f64.ln(), 1e-12);
        assert_close(ln_gamma(10.5), 13.940625219403763, 1e-10);
        // Small-argument reflection branch.
        assert_close(ln_gamma(0.1), 2.252712651734206, 1e-10);
    }

    #[test]
    fn ln_gamma_half_is_the_lanczos_value() {
        assert_eq!(LN_GAMMA_HALF.to_bits(), ln_gamma(0.5).to_bits());
        assert_eq!(ln_gamma_of(0.5).to_bits(), ln_gamma(0.5).to_bits());
        assert_eq!(ln_gamma_of(2.5).to_bits(), ln_gamma(2.5).to_bits());
    }

    #[test]
    fn binomial_values() {
        assert_close(binomial(10, 3), 120.0, 1e-9);
        assert_close(binomial(50, 25), 1.2641060643775e14, 1e3);
        assert_eq!(binomial(5, 6), 0.0);
        assert_eq!(binomial(7, 0), 1.0);
        assert_eq!(binomial(7, 7), 1.0);
    }

    #[test]
    fn beta_inc_reference_values() {
        // I_x(1, 1) = x (uniform CDF).
        for &x in &[0.1, 0.25, 0.5, 0.9] {
            assert_close(beta_inc(1.0, 1.0, x), x, 1e-13);
        }
        // I_x(2, 2) = 3x^2 - 2x^3.
        for &x in &[0.2, 0.5, 0.75] {
            assert_close(beta_inc(2.0, 2.0, x), 3.0 * x * x - 2.0 * x * x * x, 1e-12);
        }
        // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
        assert_close(
            beta_inc(3.5, 2.25, 0.3),
            1.0 - beta_inc(2.25, 3.5, 0.7),
            1e-12,
        );
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
    }

    #[test]
    fn beta_inc_is_order_statistic_cdf() {
        // P[min of k uniforms <= x] = 1 - (1-x)^k = I_x(1, k).
        let k = 7.0;
        for &x in &[0.05, 0.3, 0.6] {
            assert_close(beta_inc(1.0, k, x), 1.0 - (1.0 - x).powf(k), 1e-12);
        }
        // P[max of k uniforms <= x] = x^k = I_x(k, 1).
        for &x in &[0.2, 0.5, 0.95] {
            assert_close(beta_inc(k, 1.0, x), x.powf(k), 1e-12);
        }
    }

    #[test]
    fn gamma_p_reference_values() {
        // P(1, x) = 1 - exp(-x) (exponential CDF).
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
        // P(2, x) = 1 - (1 + x) exp(-x) (Erlang-2 CDF).
        for &x in &[0.5, 2.0, 6.0] {
            assert_close(gamma_p(2.0, x), 1.0 - (1.0 + x) * (-x).exp(), 1e-12);
        }
        assert_eq!(gamma_p(3.0, 0.0), 0.0);
    }

    #[test]
    fn gamma_q_is_complement() {
        for &a in &[0.5, 1.0, 2.5, 10.0] {
            for &x in &[0.1, 1.0, 5.0, 20.0] {
                assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-13);
            }
        }
        // Right-tail relative accuracy: Q(1, x) = exp(-x).
        let q = gamma_q(1.0, 40.0);
        assert!((q / (-40.0_f64).exp() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gamma_p_stays_at_one_once_it_reaches_one() {
        for &a in &[0.5, 1.0, 2.5, 9.5, 30.0] {
            // The first x at which P is exactly 1, by bisection.
            let (mut below, mut at_one) = (a + 1.0, a + 200.0);
            assert_eq!(gamma_p(a, at_one), 1.0);
            while at_one - below > at_one * f64::EPSILON {
                let mid = 0.5 * (below + at_one);
                if gamma_p(a, mid) == 1.0 {
                    at_one = mid;
                } else {
                    below = mid;
                }
            }
            // Every ulp around it, then a dense band on either side.
            let ulps = (-2000..=2000).map(|i| at_one * (1.0 + f64::from(i) * f64::EPSILON / 2.0));
            let band = (-20_000..=20_000).map(|i| at_one * (1.0 + f64::from(i) * 1e-6));
            let mut xs: Vec<f64> = ulps.chain(band).collect();
            xs.sort_by(f64::total_cmp);
            let first = xs.iter().position(|&x| gamma_p(a, x) == 1.0).unwrap();
            for &x in &xs[first..] {
                assert_eq!(
                    gamma_p(a, x),
                    1.0,
                    "a = {a}: P(a, {x}) after 1.0 at {}",
                    xs[first]
                );
            }
        }
    }

    #[test]
    fn pdf_is_derivative_of_cdf() {
        for &x in &[-2.0, -0.5, 0.0, 1.0, 2.5] {
            let h = 1e-6;
            let deriv = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h);
            assert_close(deriv, norm_pdf(x), 1e-7);
        }
    }
}
