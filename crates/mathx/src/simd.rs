//! Lane-struct (SIMD-shaped) evaluation of the Cody erf/erfc kernels.
//!
//! The wait-duration scan evaluates the fast normal CDF over a whole
//! ε-grid per arrival. The scalar kernels in [`crate::special`] are
//! fixed-degree rational approximations with a three-way region split
//! on `|x|`; a straight per-element loop leaves LLVM unable to
//! vectorize across elements because each element re-branches.
//!
//! This module restates those kernels over `LANES`-wide blocks held in
//! plain `[f64; LANES]` arrays ("lane structs"): every arithmetic step
//! is a fixed-count loop over the lanes, which LLVM turns into packed
//! vector instructions. Branching is hoisted out of the arithmetic by
//! classifying the whole block first — when all lanes fall in the same
//! Cody region the block runs the branch-free lane kernel; otherwise
//! (mixed regions, NaNs, the slice's tail remainder) the block falls
//! back to the scalar functions.
//!
//! # Bit-exactness
//!
//! The lane kernels perform **the same floating-point operations in
//! the same order** as their scalar counterparts — the loops are only
//! reshaped, never reassociated — so the results are bit-identical to
//! [`crate::special::erf_fast`], [`crate::special::erfc_fast`] and
//! [`crate::special::norm_cdf_fast`] for every input, including
//! non-finite ones. Property tests pin this lane-for-lane.
//!
//! On monotone grids (the only shape the hot path produces) the region
//! of `|x|` changes at most a handful of times across the whole slice,
//! so nearly every block takes the vector path.

use crate::special::{
    self, ERFC_XBIG, ERF_A, ERF_B, ERF_C, ERF_D, ERF_P, ERF_Q, ERF_THRESHOLD, FRAC_1_SQRT_PI,
};
use core::f64::consts::FRAC_1_SQRT_2;

/// Width of one lane block. Four `f64`s fill one 256-bit vector
/// register (two 128-bit ones on narrower targets); the fixed-degree
/// Horner chains keep all four lanes in flight with no spills.
pub const LANES: usize = 4;

/// One block of lanes.
type Block = [f64; LANES];

/// The Cody region a lane's magnitude falls in. Blocks whose lanes
/// disagree (or contain NaN) take the scalar fallback.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    /// `|x| <= 0.46875`: direct rational `erf`.
    Small,
    /// `0.46875 < |x| <= 4.0`: rational `erfc` with split-argument exp.
    Mid,
    /// `4.0 < |x| < XBIG`: asymptotic rational `erfc`.
    Far,
    /// `|x| >= XBIG`: `erfc` underflows to exactly zero.
    Under,
}

/// Classifies one magnitude; `None` for NaN.
#[inline]
fn region(y: f64) -> Option<Region> {
    if y <= ERF_THRESHOLD {
        Some(Region::Small)
    } else if y <= 4.0 {
        Some(Region::Mid)
    } else if y < ERFC_XBIG {
        Some(Region::Far)
    } else if y >= ERFC_XBIG {
        Some(Region::Under)
    } else {
        None
    }
}

/// The block's shared region, or `None` when lanes disagree or any
/// lane is NaN.
#[inline]
fn block_region(y: &Block) -> Option<Region> {
    let first = region(y[0])?;
    for &lane in &y[1..] {
        if region(lane)? != first {
            return None;
        }
    }
    Some(first)
}

#[inline]
fn abs_lanes(x: &Block) -> Block {
    let mut y = [0.0; LANES];
    for l in 0..LANES {
        y[l] = x[l].abs();
    }
    y
}

/// Lane form of `erf_small`: `erf(x)` for `|x| <= 0.46875`.
#[inline]
fn erf_small_lanes(x: &Block) -> Block {
    let mut z = [0.0; LANES];
    let mut num = [0.0; LANES];
    let mut den = [0.0; LANES];
    for l in 0..LANES {
        z[l] = x[l] * x[l];
        num[l] = ERF_A[4] * z[l];
        den[l] = z[l];
    }
    for i in 0..3 {
        for l in 0..LANES {
            num[l] = (num[l] + ERF_A[i]) * z[l];
            den[l] = (den[l] + ERF_B[i]) * z[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = x[l] * (num[l] + ERF_A[3]) / (den[l] + ERF_B[3]);
    }
    out
}

/// Lane form of the split-argument `exp(-y^2)` from `erfc_tail`.
///
/// The head factor is a table read and the correction's `exp` stays
/// scalar per lane (libm has no vector entry point), but the splitting
/// arithmetic around them vectorizes.
#[inline]
fn split_exp_lanes(y: &Block) -> Block {
    let heads = special::exp_heads();
    let mut expv = [0.0; LANES];
    for l in 0..LANES {
        expv[l] = special::split_exp(y[l], heads);
    }
    expv
}

/// Lane form of `erfc_tail` for `0.46875 < y <= 4.0`.
#[inline]
fn erfc_mid_lanes(y: &Block) -> Block {
    let expv = split_exp_lanes(y);
    let mut num = [0.0; LANES];
    let mut den = [0.0; LANES];
    for l in 0..LANES {
        num[l] = ERF_C[8] * y[l];
        den[l] = y[l];
    }
    for i in 0..7 {
        for l in 0..LANES {
            num[l] = (num[l] + ERF_C[i]) * y[l];
            den[l] = (den[l] + ERF_D[i]) * y[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = expv[l] * (num[l] + ERF_C[7]) / (den[l] + ERF_D[7]);
    }
    out
}

/// Lane form of `erfc_tail` for `4.0 < y < XBIG`.
#[inline]
fn erfc_far_lanes(y: &Block) -> Block {
    let expv = split_exp_lanes(y);
    let mut z = [0.0; LANES];
    let mut num = [0.0; LANES];
    let mut den = [0.0; LANES];
    for l in 0..LANES {
        z[l] = 1.0 / (y[l] * y[l]);
        num[l] = ERF_P[5] * z[l];
        den[l] = z[l];
    }
    for i in 0..4 {
        for l in 0..LANES {
            num[l] = (num[l] + ERF_P[i]) * z[l];
            den[l] = (den[l] + ERF_Q[i]) * z[l];
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        let r = z[l] * (num[l] + ERF_P[4]) / (den[l] + ERF_Q[4]);
        out[l] = expv[l] * (FRAC_1_SQRT_PI - r) / y[l];
    }
    out
}

/// `erfc(x)` for one uniform block: tail value by region, then the
/// same sign selection as the scalar (`x >= 0` keeps `r`, else
/// `2 - r`).
#[inline]
fn erfc_block(x: &Block, y: &Block, reg: Region) -> Block {
    let r = match reg {
        Region::Small => {
            let e = erf_small_lanes(y);
            let mut r = [0.0; LANES];
            for l in 0..LANES {
                r[l] = 1.0 - e[l];
            }
            r
        }
        Region::Mid => erfc_mid_lanes(y),
        Region::Far => erfc_far_lanes(y),
        Region::Under => [0.0; LANES],
    };
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        out[l] = if x[l] >= 0.0 { r[l] } else { 2.0 - r[l] };
    }
    out
}

/// `erf(x)` for one uniform block; mirrors the scalar `erf_fast`
/// region-by-region (signed small kernel, complemented tail).
#[inline]
fn erf_block(x: &Block, y: &Block, reg: Region) -> Block {
    match reg {
        Region::Small => erf_small_lanes(x),
        Region::Mid | Region::Far | Region::Under => {
            let t = match reg {
                Region::Mid => erfc_mid_lanes(y),
                Region::Far => erfc_far_lanes(y),
                _ => [0.0; LANES],
            };
            let mut out = [0.0; LANES];
            for l in 0..LANES {
                let r = 1.0 - t[l];
                out[l] = if x[l] >= 0.0 { r } else { -r };
            }
            out
        }
    }
}

/// Evaluates [`crate::special::erf_fast`] at every point of `xs` into
/// `out`, bit-identical to the scalar, using the lane kernels on every
/// region-uniform block.
///
/// # Panics
///
/// Panics if `xs` and `out` have different lengths.
pub fn erf_fast_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erf_fast_slice length mismatch");
    let head = xs.len() - xs.len() % LANES;
    for (xc, oc) in xs[..head]
        .chunks_exact(LANES)
        .zip(out[..head].chunks_exact_mut(LANES))
    {
        let x: Block = xc.try_into().expect("exact chunk");
        let y = abs_lanes(&x);
        match block_region(&y) {
            Some(reg) => oc.copy_from_slice(&erf_block(&x, &y, reg)),
            None => {
                for (slot, &xi) in oc.iter_mut().zip(xc) {
                    *slot = special::erf_fast(xi);
                }
            }
        }
    }
    for (slot, &xi) in out[head..].iter_mut().zip(&xs[head..]) {
        *slot = special::erf_fast(xi);
    }
}

/// Evaluates [`crate::special::erfc_fast`] at every point of `xs` into
/// `out`, bit-identical to the scalar; see [`erf_fast_slice`].
///
/// # Panics
///
/// Panics if `xs` and `out` have different lengths.
pub fn erfc_fast_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc_fast_slice length mismatch");
    let head = xs.len() - xs.len() % LANES;
    for (xc, oc) in xs[..head]
        .chunks_exact(LANES)
        .zip(out[..head].chunks_exact_mut(LANES))
    {
        let x: Block = xc.try_into().expect("exact chunk");
        let y = abs_lanes(&x);
        match block_region(&y) {
            Some(reg) => oc.copy_from_slice(&erfc_block(&x, &y, reg)),
            None => {
                for (slot, &xi) in oc.iter_mut().zip(xc) {
                    *slot = special::erfc_fast(xi);
                }
            }
        }
    }
    for (slot, &xi) in out[head..].iter_mut().zip(&xs[head..]) {
        *slot = special::erfc_fast(xi);
    }
}

/// Evaluates [`crate::special::norm_cdf_fast`] at every point of `zs`
/// into `out`, bit-identical to the scalar: `0.5 * erfc(-z/sqrt(2))`
/// with the negation, scaling and halving done lane-wise around the
/// region-uniform erfc kernels. This is the hot entry point of the
/// batched distribution CDFs.
///
/// # Panics
///
/// Panics if `zs` and `out` have different lengths.
pub fn norm_cdf_fast_slice(zs: &[f64], out: &mut [f64]) {
    assert_eq!(zs.len(), out.len(), "norm_cdf_fast_slice length mismatch");
    let head = zs.len() - zs.len() % LANES;
    for (zc, oc) in zs[..head]
        .chunks_exact(LANES)
        .zip(out[..head].chunks_exact_mut(LANES))
    {
        let mut x = [0.0; LANES];
        for l in 0..LANES {
            x[l] = -zc[l] * FRAC_1_SQRT_2;
        }
        let y = abs_lanes(&x);
        match block_region(&y) {
            Some(reg) => {
                let e = erfc_block(&x, &y, reg);
                for l in 0..LANES {
                    oc[l] = 0.5 * e[l];
                }
            }
            None => {
                for (slot, &zi) in oc.iter_mut().zip(zc) {
                    *slot = special::norm_cdf_fast(zi);
                }
            }
        }
    }
    for (slot, &zi) in out[head..].iter_mut().zip(&zs[head..]) {
        *slot = special::norm_cdf_fast(zi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::reference::gauntlet;

    #[test]
    fn erf_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        let mut out = vec![0.0; xs.len()];
        erf_fast_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = special::erf_fast(x);
            assert_eq!(got.to_bits(), want.to_bits(), "erf_fast({x})");
        }
    }

    #[test]
    fn erfc_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        let mut out = vec![0.0; xs.len()];
        erfc_fast_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = special::erfc_fast(x);
            assert_eq!(got.to_bits(), want.to_bits(), "erfc_fast({x})");
        }
    }

    #[test]
    fn norm_cdf_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        let mut out = vec![0.0; xs.len()];
        norm_cdf_fast_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(&out) {
            let want = special::norm_cdf_fast(x);
            assert_eq!(got.to_bits(), want.to_bits(), "norm_cdf_fast({x})");
        }
    }

    #[test]
    fn uniform_blocks_take_the_lane_path() {
        // All four lanes inside each region: classification must agree.
        for (y, want) in [
            (0.1, Region::Small),
            (1.0, Region::Mid),
            (5.0, Region::Far),
            (30.0, Region::Under),
            (f64::INFINITY, Region::Under),
        ] {
            assert!(matches!(block_region(&[y; LANES]), Some(r) if r == want));
        }
        // A region straddle or a NaN forces the scalar fallback.
        assert!(block_region(&[0.1, 1.0, 0.1, 0.1]).is_none());
        assert!(block_region(&[0.1, f64::NAN, 0.1, 0.1]).is_none());
    }

    #[test]
    fn ragged_lengths_cover_the_remainder_path() {
        for n in 0..=9 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.37 - 1.1).collect();
            let mut out = vec![0.0; n];
            norm_cdf_fast_slice(&xs, &mut out);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), special::norm_cdf_fast(x).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut out = [0.0; 3];
        norm_cdf_fast_slice(&[1.0, 2.0], &mut out);
    }
}
