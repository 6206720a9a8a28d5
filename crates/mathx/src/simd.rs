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
//!
//! # Instruction-set levels
//!
//! The workspace builds for the target's baseline (SSE2 on x86-64), where
//! a 4-lane block takes two 128-bit registers. [`widest`] runs a
//! [`Kernel`] compiled again for AVX2, where it takes one, when the CPU
//! reports AVX2 at run time, so one binary runs everywhere. The slice
//! entry points here and the wait scan's lane pass in `cedar-core` go
//! through it. Each lane does the same operations at every level, so the
//! results are bit-identical across levels too; the tests run every
//! gauntlet at each level in [`Level::supported`] through
//! [`with_level`].

use crate::special::{
    self, ERFC_XBIG, ERF_A, ERF_B, ERF_C, ERF_D, ERF_P, ERF_Q, ERF_THRESHOLD, FRAC_1_SQRT_PI,
};
use core::f64::consts::FRAC_1_SQRT_2;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Width of one lane block. Four `f64`s fill one 256-bit vector
/// register (two 128-bit ones on narrower targets); the fixed-degree
/// Horner chains keep all four lanes in flight with no spills.
pub const LANES: usize = 4;

/// One block of lanes.
type Block = [f64; LANES];

/// The instruction-set levels [`widest`] can run a [`Kernel`] at,
/// narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The target's baseline: SSE2 on x86-64, and the only level
    /// elsewhere.
    Baseline,
    /// x86-64 with AVX2, where a 4-lane block fills one register.
    Avx2,
}

impl Level {
    /// Every level this CPU can run, narrowest (the baseline) first.
    /// Miri runs the baseline only.
    pub fn supported() -> Vec<Level> {
        [Level::Baseline, Level::Avx2]
            .into_iter()
            .filter(|&l| l <= detected())
            .collect()
    }
}

/// The widest level this CPU can run, read from it once.
fn detected() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        Level::Baseline
    })
}

thread_local! {
    /// The widest level [`with_level`] lets this thread run.
    static CAP: Cell<Level> = const { Cell::new(Level::Avx2) };
}

/// Runs `f` with every [`widest`] call it makes on this thread capped
/// at `level`, then restores the cap it found. A level above what the
/// CPU can run caps nothing. This is how a test runs a kernel at each
/// level in [`Level::supported`].
pub fn with_level<R>(level: Level, f: impl FnOnce() -> R) -> R {
    struct Restore(Level);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAP.with(|cap| cap.set(self.0));
        }
    }
    let _restore = Restore(CAP.with(|cap| cap.replace(level)));
    f()
}

/// A loop to compile once per instruction-set level. Implementations
/// mark `run` `#[inline(always)]`, so its whole body is inlined into
/// [`widest`]'s feature-enabled frame and compiled for that level: a
/// closure passed in its place is not inlined there, and gains nothing.
///
/// A `run` body must not call `f64::mul_add`: the levels agree bit for
/// bit only because every multiply and add rounds on its own (see
/// [`widest`]).
pub trait Kernel {
    /// What the kernel returns.
    type Output;

    /// The kernel's body.
    fn run(self) -> Self::Output;
}

/// Runs `k` at the widest level the CPU reports (capped by
/// [`with_level`]).
///
/// Every level computes bit-identical results: AVX2 only widens the
/// vectors each lane's operations run in, and each lane does the same
/// IEEE operations in the same order. Rust never contracts a multiply
/// and an add into an FMA, and no kernel calls `mul_add`; `avx2` does
/// not enable `fma` either, so no fused instruction is available to the
/// AVX2 frame at all.
#[allow(unsafe_code)]
#[inline]
pub fn widest<K: Kernel>(k: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2<K: Kernel>(k: K) -> K::Output {
            k.run()
        }
        match detected().min(CAP.with(Cell::get)) {
            // SAFETY: `detected` returns `Avx2` only after
            // `is_x86_feature_detected!("avx2")` found AVX2, and with it
            // every feature it implies, on this CPU; the cap can only
            // lower the level.
            Level::Avx2 => return unsafe { avx2(k) },
            Level::Baseline => {}
        }
    }
    k.run()
}

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
#[inline(always)]
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
#[inline(always)]
fn block_region(y: &Block) -> Option<Region> {
    let first = region(y[0])?;
    for &lane in &y[1..] {
        if region(lane)? != first {
            return None;
        }
    }
    Some(first)
}

#[inline(always)]
fn abs_lanes(x: &Block) -> Block {
    let mut y = [0.0; LANES];
    for l in 0..LANES {
        y[l] = x[l].abs();
    }
    y
}

/// Lane form of `erf_small`: `erf(x)` for `|x| <= 0.46875`.
#[inline(always)]
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
#[inline(always)]
fn split_exp_lanes(y: &Block) -> Block {
    let heads = special::exp_heads();
    let mut expv = [0.0; LANES];
    for l in 0..LANES {
        expv[l] = special::split_exp(y[l], heads);
    }
    expv
}

/// Lane form of `erfc_tail` for `0.46875 < y <= 4.0`.
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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
#[inline(always)]
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

/// A block function and its scalar twin: what one slice entry point
/// evaluates. `block` returns `None` for a block whose lanes straddle a
/// Cody region or hold a NaN, which then takes `scalar` lane by lane.
trait SliceFn {
    fn block(x: &Block) -> Option<Block>;
    fn scalar(x: f64) -> f64;
}

struct Erf;
struct Erfc;
struct NormCdf;

impl SliceFn for Erf {
    #[inline(always)]
    fn block(x: &Block) -> Option<Block> {
        let y = abs_lanes(x);
        Some(erf_block(x, &y, block_region(&y)?))
    }

    #[inline(always)]
    fn scalar(x: f64) -> f64 {
        special::erf_fast(x)
    }
}

impl SliceFn for Erfc {
    #[inline(always)]
    fn block(x: &Block) -> Option<Block> {
        let y = abs_lanes(x);
        Some(erfc_block(x, &y, block_region(&y)?))
    }

    #[inline(always)]
    fn scalar(x: f64) -> f64 {
        special::erfc_fast(x)
    }
}

impl SliceFn for NormCdf {
    /// `0.5 * erfc(-z/sqrt(2))`, the negation, scaling and halving done
    /// lane-wise around the erfc kernel.
    #[inline(always)]
    fn block(z: &Block) -> Option<Block> {
        let mut x = [0.0; LANES];
        for l in 0..LANES {
            x[l] = -z[l] * FRAC_1_SQRT_2;
        }
        let e = Erfc::block(&x)?;
        let mut out = [0.0; LANES];
        for l in 0..LANES {
            out[l] = 0.5 * e[l];
        }
        Some(out)
    }

    #[inline(always)]
    fn scalar(z: f64) -> f64 {
        special::norm_cdf_fast(z)
    }
}

/// One slice entry point as a [`Kernel`]: the lane kernel on every
/// region-uniform block, the scalar on the rest and on the tail.
struct Slice<'a, F> {
    xs: &'a [f64],
    out: &'a mut [f64],
    f: PhantomData<F>,
}

impl<F: SliceFn> Kernel for Slice<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let head = self.xs.len() - self.xs.len() % LANES;
        let (xs, out) = (&self.xs[..head], &mut self.out[..head]);
        for (xc, oc) in xs.chunks_exact(LANES).zip(out.chunks_exact_mut(LANES)) {
            let x: Block = xc.try_into().expect("exact chunk");
            match F::block(&x) {
                Some(v) => oc.copy_from_slice(&v),
                None => {
                    for (slot, &xi) in oc.iter_mut().zip(xc) {
                        *slot = F::scalar(xi);
                    }
                }
            }
        }
        for (slot, &xi) in self.out[head..].iter_mut().zip(&self.xs[head..]) {
            *slot = F::scalar(xi);
        }
    }
}

/// Runs `F` over `xs` into `out` at the widest level.
fn slice<F: SliceFn>(xs: &[f64], out: &mut [f64]) {
    widest(Slice::<F> {
        xs,
        out,
        f: PhantomData,
    });
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
    slice::<Erf>(xs, out);
}

/// Evaluates [`crate::special::erfc_fast`] at every point of `xs` into
/// `out`, bit-identical to the scalar; see [`erf_fast_slice`].
///
/// # Panics
///
/// Panics if `xs` and `out` have different lengths.
pub fn erfc_fast_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc_fast_slice length mismatch");
    slice::<Erfc>(xs, out);
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
    slice::<NormCdf>(zs, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::reference::gauntlet;

    #[test]
    fn erf_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        for level in Level::supported() {
            let mut out = vec![0.0; xs.len()];
            with_level(level, || erf_fast_slice(&xs, &mut out));
            for (&x, &got) in xs.iter().zip(&out) {
                let want = special::erf_fast(x);
                assert_eq!(got.to_bits(), want.to_bits(), "erf_fast({x}) at {level:?}");
            }
        }
    }

    #[test]
    fn erfc_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        for level in Level::supported() {
            let mut out = vec![0.0; xs.len()];
            with_level(level, || erfc_fast_slice(&xs, &mut out));
            for (&x, &got) in xs.iter().zip(&out) {
                let want = special::erfc_fast(x);
                assert_eq!(got.to_bits(), want.to_bits(), "erfc_fast({x}) at {level:?}");
            }
        }
    }

    #[test]
    fn norm_cdf_slice_is_bit_identical_to_scalar() {
        let xs = gauntlet();
        for level in Level::supported() {
            let mut out = vec![0.0; xs.len()];
            with_level(level, || norm_cdf_fast_slice(&xs, &mut out));
            for (&x, &got) in xs.iter().zip(&out) {
                let want = special::norm_cdf_fast(x);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "norm_cdf_fast({x}) at {level:?}"
                );
            }
        }
    }

    #[test]
    fn levels_start_at_the_baseline_and_the_cap_is_restored() {
        let levels = Level::supported();
        assert_eq!(levels[0], Level::Baseline);
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "{levels:?}");
        with_level(Level::Baseline, || {
            with_level(Level::Avx2, || assert_eq!(CAP.with(Cell::get), Level::Avx2));
            assert_eq!(CAP.with(Cell::get), Level::Baseline);
        });
        assert_eq!(CAP.with(Cell::get), Level::Avx2);
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
