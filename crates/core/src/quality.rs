//! The quality calculus of §4.3: expected gain and loss in response
//! quality from a small additional wait.
//!
//! Quality is the fraction of process outputs included in the final
//! response. For an aggregator that has waited `t` and considers waiting
//! `dt` more:
//!
//! - **gain** (Eq. 3): outputs arriving in `(t, t+dt]` are included if the
//!   rest of the tree still delivers them by the deadline —
//!   `(F1(t+dt) - F1(t)) * q_up(D - (t+dt))`;
//! - **loss** (Eq. 4): the outputs already collected (in expectation,
//!   conditioned on not all `k` having arrived — nothing is at risk once
//!   the aggregator has everything and departs) are forfeited if the
//!   extra wait makes the aggregator itself miss the deadline —
//!   `(F1(t) - F1(t)^k) * (q_up(D-t) - q_up(D-(t+dt)))`.
//!
//! Both expressions are already normalized to quality units (fractions of
//! the `k` downstream outputs).

/// `x^k` lane by lane, by square-and-multiply inlined into the caller:
/// in each lane the same multiplications in the same order as
/// `f64::powi` (whose non-constant exponent is an out-of-line
/// `__powidf2` call), so every lane is bit-for-bit `x.powi(k as i32)`
/// for `k <= i32::MAX`. All lanes share the exponent, hence the
/// branches, so the multiplications vectorise across lanes.
#[inline(always)]
fn pow_k<const L: usize>(x: [f64; L], k: usize) -> [f64; L] {
    let (mut base, mut n, mut acc) = (x, k, [1.0; L]);
    loop {
        if n & 1 == 1 {
            for (a, b) in acc.iter_mut().zip(base) {
                *a *= b;
            }
        }
        n >>= 1;
        if n == 0 {
            return acc;
        }
        for b in &mut base {
            *b *= *b;
        }
    }
}

/// Expected *number* of outputs received by time `t`, conditioned on not
/// all `k` having arrived: `k (F - F^k) / (1 - F^k)` with `F = F1(t)`
/// (Appendix C of the paper's TR).
///
/// Returns `k` when `F` is numerically 1 (everything arrived).
pub fn expected_outputs_by(cdf_value: f64, k: usize) -> f64 {
    let f = cdf_value.clamp(0.0, 1.0);
    let kf = k as f64;
    let [fk] = pow_k([f], k);
    let denom = 1.0 - fk;
    if denom <= f64::EPSILON {
        return kf;
    }
    kf * (f - fk) / denom
}

/// Expected gain in quality from extending the wait from `t` to `t + dt`
/// (Eq. 3), in quality units (fraction of this aggregator's `k` outputs).
///
/// `f_t` and `f_t_dt` are the lower-stage CDF at `t` and `t + dt`;
/// `q_up_after` is `q_{n-1}(D - (t + dt))` — the probability that an
/// output shipped at `t + dt` still reaches the root in time.
pub fn quality_gain(f_t: f64, f_t_dt: f64, q_up_after: f64) -> f64 {
    ((f_t_dt - f_t).max(0.0)) * q_up_after.clamp(0.0, 1.0)
}

/// Expected loss in quality from extending the wait from `t` to `t + dt`
/// (Eq. 4), in quality units.
///
/// `f_t` is the lower-stage CDF at `t`; `k` the fan-out; `q_up_before` and
/// `q_up_after` are `q_{n-1}(D - t)` and `q_{n-1}(D - (t + dt))`.
pub fn quality_loss(f_t: f64, k: usize, q_up_before: f64, q_up_after: f64) -> f64 {
    let [loss] = quality_loss_lanes([f_t], k, [q_up_before], [q_up_after]);
    loss
}

/// [`quality_loss`] of `L` steps at once, lane by lane bit-identical to
/// it: the wait scan's vectorised pass.
#[inline(always)]
pub(crate) fn quality_loss_lanes<const L: usize>(
    f_t: [f64; L],
    k: usize,
    q_up_before: [f64; L],
    q_up_after: [f64; L],
) -> [f64; L] {
    let f = f_t.map(|f| f.clamp(0.0, 1.0));
    let fk = pow_k(f, k);
    std::array::from_fn(|i| {
        let at_risk = f[i] - fk[i];
        at_risk.max(0.0) * (q_up_before[i] - q_up_after[i]).max(0.0)
    })
}

/// Expected quality of a *single* aggregator that departs exactly at its
/// wait `w` (or earlier if all `k` arrive), with upstream inclusion
/// probability given by `q_up`.
///
/// This closed-form is used to cross-check the incremental scan: it is
/// the integral the scan approximates. `q_up(d)` must be the upstream
/// quality at remaining budget `d`; `cdf(t)` the lower-stage CDF.
pub fn departure_quality<F, Q>(
    cdf: F,
    k: usize,
    wait: f64,
    deadline: f64,
    q_up: Q,
    steps: usize,
) -> f64
where
    F: Fn(f64) -> f64,
    Q: Fn(f64) -> f64,
{
    // Two terms: (a) the aggregator departs early at time a <= w because
    // all k arrived (density of the max order statistic), collecting
    // quality 1 * q_up(D - a); (b) the timer fires at w with not all
    // arrived, collecting E[fraction arrived | not all] * q_up(D - w).
    //
    // Term (a): integral over (0, w] of d/da [F(a)^k] * q_up(D - a).
    let mut acc = cedar_mathx::KahanSum::new();
    let n = steps.max(2);
    let h = wait / n as f64;
    if wait > 0.0 {
        let mut prev_fk = 0.0f64;
        for i in 1..=n {
            let a = i as f64 * h;
            let fk = cdf(a).clamp(0.0, 1.0).powi(k as i32);
            // Midpoint value of q_up over the slice.
            let q = q_up(deadline - (a - 0.5 * h));
            acc.add((fk - prev_fk).max(0.0) * q.clamp(0.0, 1.0));
            prev_fk = fk;
        }
    }
    // Term (b).
    let f_w = cdf(wait).clamp(0.0, 1.0);
    let fk_w = f_w.powi(k as i32);
    let frac_given_partial = if 1.0 - fk_w <= f64::EPSILON {
        0.0
    } else {
        (f_w - fk_w) / (1.0 - fk_w)
    };
    acc.add((1.0 - fk_w) * frac_given_partial * q_up(deadline - wait).clamp(0.0, 1.0));
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_distrib::{ContinuousDist, LogNormal};
    use proptest::prelude::*;

    /// `pow_k` against `powi`, bit for bit, for every `k` in `1..=1024`,
    /// alone and as one lane of four.
    fn assert_pow_k_matches_powi(f: f64) {
        for k in 1..=1024usize {
            let want = f.powi(k as i32).to_bits();
            assert_eq!(pow_k([f], k)[0].to_bits(), want, "pow_k({f:e}, {k})");
            let lanes = pow_k([0.5, f, 1.0, f64::MIN_POSITIVE], k);
            assert_eq!(lanes[1].to_bits(), want, "lane 1 of pow_k({f:e}, {k})");
        }
    }

    #[test]
    fn pow_k_is_bit_identical_to_powi() {
        // A dense grid over [0, 1] (the CDF values the scan feeds it),
        // the points right below 1 where high powers round away slowly,
        // and the subnormals, where every product underflows.
        let dense = (0..=4096).map(|i| i as f64 / 4096.0);
        let near_one = (1..=64).map(|i| 1.0 - i as f64 * f64::EPSILON);
        let subnormal = [
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE / 3.0,
        ];
        for f in dense.chain(near_one).chain(subnormal) {
            assert_pow_k_matches_powi(f);
        }
    }

    proptest! {
        #[test]
        fn pow_k_matches_powi_anywhere_in_the_unit_interval(f in 0.0..1.0f64) {
            assert_pow_k_matches_powi(f);
        }
    }

    #[test]
    fn expected_outputs_limits() {
        // F = 0: nothing arrived.
        assert_eq!(expected_outputs_by(0.0, 50), 0.0);
        // F = 1: everything arrived (conditioning degenerates to k).
        assert_eq!(expected_outputs_by(1.0, 50), 50.0);
        // k = 1: either the single output arrived or not; conditioned on
        // "not all arrived" the expectation is 0.
        assert_eq!(expected_outputs_by(0.3, 1), 0.0);
    }

    #[test]
    fn expected_outputs_exceeds_unconditional_mean() {
        // Conditioning on "not all arrived" removes only full-house
        // outcomes, so the conditional mean of arrived-count stays close
        // to k*F but the formula must stay within [0, k].
        for &f in &[0.1, 0.5, 0.9, 0.99] {
            let v = expected_outputs_by(f, 50);
            assert!((0.0..=50.0).contains(&v));
            // For moderate F the conditional and unconditional means agree
            // to first order.
            if f <= 0.9 {
                assert!((v - 50.0 * f).abs() < 1.0, "f={f}, v={v}");
            }
        }
    }

    #[test]
    fn gain_is_zero_without_upstream_budget() {
        assert_eq!(quality_gain(0.3, 0.4, 0.0), 0.0);
        assert!((quality_gain(0.3, 0.4, 1.0) - 0.1).abs() < 1e-12);
        // CDF went nowhere -> no gain.
        assert_eq!(quality_gain(0.5, 0.5, 0.8), 0.0);
    }

    #[test]
    fn loss_is_zero_when_nothing_collected_or_no_risk() {
        // Nothing collected yet.
        assert_eq!(quality_loss(0.0, 50, 0.9, 0.8), 0.0);
        // Upstream probability unchanged -> no added risk.
        assert_eq!(quality_loss(0.5, 50, 0.8, 0.8), 0.0);
        // All outputs in hand (F = 1): the aggregator would have departed,
        // nothing at risk.
        assert!(quality_loss(1.0, 50, 0.9, 0.5) < 1e-12);
    }

    #[test]
    fn loss_positive_in_the_interior() {
        let l = quality_loss(0.7, 50, 0.9, 0.7);
        // at_risk = 0.7 - 0.7^50 ~ 0.7 (up to ~2e-8); times 0.2.
        assert!((l - 0.7 * 0.2).abs() < 1e-7);
    }

    #[test]
    fn departure_quality_zero_wait_is_zero() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let q = departure_quality(|t| d.cdf(t), 50, 0.0, 10.0, |_| 1.0, 100);
        assert!(q.abs() < 1e-12);
    }

    #[test]
    fn departure_quality_long_wait_with_full_budget_approaches_one() {
        let d = LogNormal::new(0.0, 0.5).unwrap();
        // Wait far beyond the distribution's support with a benign
        // upstream: everything is collected and delivered.
        let q = departure_quality(|t| d.cdf(t), 20, 100.0, 1e9, |_| 1.0, 2000);
        assert!(q > 0.999, "q = {q}");
    }

    #[test]
    fn departure_quality_monotone_in_upstream_budget() {
        let d = LogNormal::new(0.0, 0.7).unwrap();
        let up = |rem: f64| if rem > 0.0 { 1.0 - (-rem).exp() } else { 0.0 };
        let q_small = departure_quality(|t| d.cdf(t), 20, 2.0, 4.0, up, 500);
        let q_large = departure_quality(|t| d.cdf(t), 20, 2.0, 8.0, up, 500);
        assert!(q_large > q_small);
    }
}
