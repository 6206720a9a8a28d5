//! `CALCULATEWAIT` (Pseudocode 2): selecting the optimal wait duration.
//!
//! The expected quality as a function of the wait duration has no closed
//! form, so the paper scans the interval `[0, D]` in increments of `ε`,
//! accumulating the net quality change (gain − loss) and keeping the
//! argmax. The accumulated value at the optimum *is* the maximum expected
//! quality `q_n(D)`, which is what makes the recursion of §4.3.2 work.
//!
//! Both scans evaluate the lower-stage CDF [`SATURATION_CHUNK`] steps at a
//! time and stop after the first chunk whose last value is exactly `1.0`:
//! under a loose deadline that is a few dozen of several hundred steps.
//! The steps they skip cannot change the decision:
//!
//! - past that chunk every value is `1.0` too (the property
//!   [`ContinuousDist::cdf_batch_ln`] documents), so every step's gain
//!   `(1 − 1)·q` and loss `(1 − 1^k)·Δq` are exactly `+0.0`;
//! - Neumaier's `add(+0.0)` leaves the running `value()` unchanged;
//! - the strict `q > best_q` keeps the first maximizer.
//!
//! So the [`WaitDecision`] is bit-identical to a scan of the whole grid.
//! By the same property a CDF that is not `1.0` at the last step is `1.0`
//! at no step, so the scans look at the last step first and then evaluate
//! an unsaturated grid in one call, not chunk by chunk.

use crate::quality::{quality_gain, quality_loss, quality_loss_lanes};
use cedar_distrib::ContinuousDist;
use cedar_mathx::KahanSum;
use std::cell::RefCell;

/// Reusable per-thread buffers for the batched scan: the ε-grid, the
/// batched lower-stage CDF values, (for the closure-driven entry point)
/// the upstream quality values, and each step's net quality change.
/// Sized on first use and reused, so steady-state scans allocate nothing.
#[derive(Default)]
struct Scratch {
    ts: Vec<f64>,
    fs: Vec<f64>,
    qs: Vec<f64>,
    nets: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            ts: Vec::new(),
            fs: Vec::new(),
            qs: Vec::new(),
            nets: Vec::new(),
        })
    };
}

/// Runs `f` with the thread-local scratch, falling back to a fresh
/// (allocating) scratch if the thread-local one is already borrowed —
/// which can only happen if a `q_up` closure re-enters the scan.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// Number of scan steps for a given deadline and step size; shared by
/// every entry point so grids and scans always agree on the grid shape.
fn scan_steps(deadline: f64, epsilon: f64) -> usize {
    ((deadline / epsilon).ceil() as usize).max(1)
}

/// Fills `ts[i]` with the departure candidate of step `i`:
/// `t_next = (i + 1) * epsilon`, clamped to the deadline. The expression
/// mirrors the scalar loop exactly so both paths scan identical grids.
fn fill_grid(ts: &mut Vec<f64>, deadline: f64, epsilon: f64, steps: usize) {
    ts.clear();
    ts.extend((0..steps).map(|i| (i as f64 * epsilon + epsilon).min(deadline)));
}

/// The upstream quality function `q_{n-1}` pre-evaluated on a scan grid.
///
/// A Cedar aggregator re-runs the wait scan on *every* downstream arrival,
/// and within one query (and across concurrent queries sharing a priors
/// epoch and deadline) the upstream quality function does not change —
/// only the lower-stage estimate does. Building this table once and
/// passing it to [`calculate_wait_with_grid`] removes the per-arrival
/// `q_up` evaluations (an interpolation-table walk per ε-step) entirely.
///
/// The grid stores `q_up(deadline - t_next)` for each step's departure
/// candidate `t_next`, plus the initial value `q_up(deadline)`, all
/// clamped to `[0, 1]` exactly as the scalar scan does — so a grid-driven
/// scan is *bit-identical* to the closure-driven scan it replaces. It
/// also keeps the candidates `t_next` themselves and their logarithms,
/// fixed for the grid's life, so a scan fills no grid and a log-normal
/// lower stage takes no `ln` per step ([`ContinuousDist::cdf_batch_ln`]).
#[derive(Debug, Clone)]
pub struct QupGrid {
    deadline: f64,
    epsilon: f64,
    /// `q_up(deadline)`, the quality of departing immediately.
    q0: f64,
    /// `q_up(deadline - t_next_i)` for step `i`.
    values: Vec<f64>,
    /// `t_next_i`, step `i`'s departure candidate.
    ts: Vec<f64>,
    /// `ln(t_next_i)`.
    ln_ts: Vec<f64>,
}

impl QupGrid {
    /// Evaluates `q_up` over the scan grid for `(deadline, epsilon)`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive or `deadline <= 0`.
    pub fn build<Q>(deadline: f64, epsilon: f64, q_up: Q) -> Self
    where
        Q: Fn(f64) -> f64,
    {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(deadline > 0.0, "deadline must be positive");
        let mut ts = Vec::new();
        fill_grid(&mut ts, deadline, epsilon, scan_steps(deadline, epsilon));
        let values = ts
            .iter()
            .map(|&t_next| q_up(deadline - t_next).clamp(0.0, 1.0))
            .collect();
        Self {
            deadline,
            epsilon,
            q0: q_up(deadline).clamp(0.0, 1.0),
            values,
            ln_ts: ts.iter().map(|t| t.ln()).collect(),
            ts,
        }
    }

    /// The deadline this grid was built for.
    pub fn deadline(&self) -> f64 {
        self.deadline
    }

    /// The scan step this grid was built for.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of scan steps covered.
    pub fn steps(&self) -> usize {
        self.values.len()
    }
}

/// Result of a wait-duration optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitDecision {
    /// The optimal wait duration (time from query start at this
    /// aggregator to its departure timer).
    pub wait: f64,
    /// The expected quality achieved by that wait — `q_n(D)` for the
    /// subtree rooted at this aggregator.
    pub quality: f64,
}

/// Number of ε-steps used when the caller does not specify a resolution.
pub const DEFAULT_STEPS: usize = 500;

/// Scans wait durations in `[0, deadline]` with step `epsilon` and returns
/// the quality-maximizing wait (Pseudocode 2).
///
/// * `deadline` — remaining end-to-end budget `D` at this aggregator;
/// * `lower` — the stage duration distribution `X_1` of the nodes being
///   waited for;
/// * `fanout` — `k_1`, how many such nodes feed this aggregator;
/// * `q_up` — the upstream quality function `q_{n-1}(d)`: the probability
///   that an output shipped with `d` budget left still reaches the root
///   (for a two-level tree this is `F_{X_2}(d)`);
/// * `epsilon` — the scan step; smaller values reduce discretization
///   error at linear cost.
///
/// Returns a zero decision when `deadline <= 0` (nothing can be
/// delivered).
///
/// # Examples
///
/// ```
/// use cedar_core::wait::calculate_wait;
/// use cedar_distrib::{ContinuousDist, LogNormal};
///
/// let processes = LogNormal::new(2.77, 0.84).unwrap(); // X1
/// let aggregators = LogNormal::new(2.94, 0.55).unwrap(); // X2
/// let dec = calculate_wait(
///     100.0,
///     &processes,
///     50,
///     |rem| if rem <= 0.0 { 0.0 } else { aggregators.cdf(rem) },
///     0.2,
/// );
/// assert!(dec.wait > 0.0 && dec.wait < 100.0);
/// assert!(dec.quality > 0.0 && dec.quality <= 1.0);
/// ```
///
/// # Panics
///
/// Panics if `epsilon` is not strictly positive or `fanout == 0`.
pub fn calculate_wait<Q>(
    deadline: f64,
    lower: &dyn ContinuousDist,
    fanout: usize,
    q_up: Q,
    epsilon: f64,
) -> WaitDecision
where
    Q: Fn(f64) -> f64,
{
    assert!(epsilon > 0.0, "epsilon must be positive");
    assert!(fanout >= 1, "fanout must be at least 1");
    if deadline <= 0.0 {
        return WaitDecision {
            wait: 0.0,
            quality: 0.0,
        };
    }

    let steps = scan_steps(deadline, epsilon);
    with_scratch(|scratch| {
        fill_grid(&mut scratch.ts, deadline, epsilon, steps);
        scratch.fs.resize(steps, 0.0);
        let Scratch { ts, fs, qs, nets } = scratch;
        let steps = lower_cdf_until_saturated(fs, |start, out| {
            lower.cdf_batch(&ts[start..start + out.len()], out);
        });
        let ts = &ts[..steps];
        qs.clear();
        qs.extend(
            ts.iter()
                .map(|&t_next| q_up(deadline - t_next).clamp(0.0, 1.0)),
        );
        let q0 = q_up(deadline).clamp(0.0, 1.0);
        accumulate_scan(lower, fanout, ts, &fs[..steps], q0, qs, nets)
    })
}

/// Scans wait durations against a pre-built upstream quality grid.
///
/// The per-arrival fast path: the lower-stage CDF is evaluated over the
/// grid's stored ε-steps by [`ContinuousDist::cdf_batch_ln`], a chunk at
/// a time up to the first chunk that ends in exactly `1.0`, and the
/// upstream quality comes from the memoized [`QupGrid`]. The result is
/// bit-identical to [`calculate_wait`] with the closure the grid was
/// built from.
///
/// # Panics
///
/// Panics if `fanout == 0`.
pub fn calculate_wait_with_grid(
    lower: &dyn ContinuousDist,
    fanout: usize,
    grid: &QupGrid,
) -> WaitDecision {
    assert!(fanout >= 1, "fanout must be at least 1");
    if grid.deadline <= 0.0 {
        return WaitDecision {
            wait: 0.0,
            quality: 0.0,
        };
    }
    with_scratch(|scratch| {
        scratch.fs.resize(grid.steps(), 0.0);
        let Scratch { fs, nets, .. } = scratch;
        let steps = lower_cdf_until_saturated(fs, |start, out| {
            let end = start + out.len();
            lower.cdf_batch_ln(&grid.ts[start..end], &grid.ln_ts[start..end], out);
        });
        let (ts, qs) = (&grid.ts[..steps], &grid.values[..steps]);
        accumulate_scan(lower, fanout, ts, &fs[..steps], grid.q0, qs, nets)
    })
}

/// Steps of lower-stage CDF a scan evaluates at a time: small enough that
/// a CDF which saturates early costs little past its saturation point,
/// and a multiple of the [`LANES`]-step block, so every chunk splits into
/// the same 4-point blocks as one call over the whole grid would.
const SATURATION_CHUNK: usize = 32;
const _: () = assert!(SATURATION_CHUNK.is_multiple_of(LANES));

/// Fills `fs` one [`SATURATION_CHUNK`] at a time, `cdf(start, out)`
/// writing the lower-stage CDF at steps `start..start + out.len()`, and
/// stops after the first chunk whose last value is exactly `1.0`.
/// Returns how many steps it filled; the module doc says why the scan
/// may drop the rest.
///
/// A CDF that is not `1.0` at the last step is `1.0` at no step, by the
/// same property, so no chunk would stop it: then it fills the grid in
/// one call and spares an unsaturated scan the per-chunk calls.
fn lower_cdf_until_saturated(fs: &mut [f64], mut cdf: impl FnMut(usize, &mut [f64])) -> usize {
    let last = fs.len() - 1;
    cdf(last, &mut fs[last..]);
    if fs[last] != 1.0 {
        cdf(0, &mut fs[..last]);
        return fs.len();
    }
    let mut filled = 0;
    for chunk in fs.chunks_mut(SATURATION_CHUNK) {
        cdf(filled, chunk);
        filled += chunk.len();
        if chunk[chunk.len() - 1] == 1.0 {
            break;
        }
    }
    filled
}

/// The shared accumulation kernel: given departure candidates `ts`, the
/// batched lower-stage CDF values `fs`, and the upstream quality values,
/// accumulates gain − loss with Kahan summation and keeps the first
/// maximizer.
///
/// Two passes over the grid. The first writes every step's gain − loss
/// into `nets`, [`LANES`] steps at a time: the terms are independent of
/// one another, so their `F^k` chains run side by side in vector lanes
/// instead of queueing behind the Kahan sum. The second runs the Kahan
/// sum and the argmax serially, in the same order over the same terms
/// as one fused walk would, so the decision is bit-identical to it.
fn accumulate_scan(
    lower: &dyn ContinuousDist,
    fanout: usize,
    ts: &[f64],
    fs: &[f64],
    q0: f64,
    qs: &[f64],
    nets: &mut Vec<f64>,
) -> WaitDecision {
    let steps = ts.len().min(fs.len()).min(qs.len());
    nets.clear();
    if steps > 0 {
        // Step 0 leaves from F(0) and q_up(D); step i from step i − 1's end.
        nets.extend(step_nets::<1>(fanout, &[lower.cdf(0.0)], fs, &[q0], qs));
        let (f_prev, f_next) = (&fs[..steps - 1], &fs[1..steps]);
        let (q_prev, q_next) = (&qs[..steps - 1], &qs[1..steps]);
        let blocks = |s| <[f64]>::chunks_exact(s, LANES);
        let lanes = blocks(f_prev)
            .zip(blocks(f_next))
            .zip(blocks(q_prev))
            .zip(blocks(q_next));
        for (((fp, fnx), qp), qn) in lanes {
            nets.extend(step_nets::<LANES>(fanout, fp, fnx, qp, qn));
        }
        // The last steps that do not fill a block.
        for i in nets.len() - 1..steps - 1 {
            nets.extend(step_nets::<1>(
                fanout,
                &f_prev[i..],
                &f_next[i..],
                &q_prev[i..],
                &q_next[i..],
            ));
        }
    }

    let mut running = KahanSum::new();
    let mut best_q = 0.0f64;
    let mut best_wait = 0.0f64;
    for (&t_next, &step) in ts.iter().zip(nets.iter()) {
        running.add(step);
        // Keep the *first* maximizer: on quality plateaus (gain and loss
        // both ~0) a later departure buys nothing but risks model error,
        // so the earliest wait achieving the maximum is the safe argmax.
        let q = running.value();
        if q > best_q {
            best_q = q;
            best_wait = t_next;
        }
    }

    WaitDecision {
        wait: best_wait,
        quality: best_q.clamp(0.0, 1.0),
    }
}

/// Steps of the scan's first pass evaluated side by side.
const LANES: usize = 4;

/// Gain − loss of the `L` steps that start at the heads of `f_prev` and
/// `q_prev` and end at the heads of `f_next` and `q_next`.
#[inline(always)]
fn step_nets<const L: usize>(
    fanout: usize,
    f_prev: &[f64],
    f_next: &[f64],
    q_prev: &[f64],
    q_next: &[f64],
) -> [f64; L] {
    let lanes = |s: &[f64]| -> [f64; L] { std::array::from_fn(|i| s[i]) };
    let (f_prev, f_next) = (lanes(f_prev), lanes(f_next));
    let (q_prev, q_next) = (lanes(q_prev), lanes(q_next));
    let loss = quality_loss_lanes(f_prev, fanout, q_prev, q_next);
    std::array::from_fn(|i| quality_gain(f_prev[i], f_next[i], q_next[i]) - loss[i])
}

/// Recomputes the marginal quality gain and loss of the ε-step that ends
/// at `wait`, against a pre-built upstream quality grid.
///
/// This is the explain-path companion to [`calculate_wait_with_grid`]:
/// the scan itself only tracks the *accumulated* net quality, so when a
/// decision trace wants to show why the chosen `t` beat its neighbours it
/// re-derives the gain (quality bought by waiting through the step) and
/// loss (quality forfeited upstream) at that one step. Off the hot path:
/// called only when a query runs with `explain` on.
///
/// `wait` is snapped to the nearest grid step; a `wait` of zero (or a
/// non-positive deadline) reports zero gain and loss.
///
/// # Panics
///
/// Panics if `fanout == 0`.
pub fn gain_loss_at(
    lower: &dyn ContinuousDist,
    fanout: usize,
    grid: &QupGrid,
    wait: f64,
) -> (f64, f64) {
    assert!(fanout >= 1, "fanout must be at least 1");
    if grid.deadline <= 0.0 || wait <= 0.0 || grid.values.is_empty() {
        return (0.0, 0.0);
    }
    // Step i has t_next = (i + 1) * epsilon (clamped); invert and clamp.
    let i = ((wait / grid.epsilon).round() as usize)
        .saturating_sub(1)
        .min(grid.values.len() - 1);
    let t_prev = i as f64 * grid.epsilon;
    let t_next = (t_prev + grid.epsilon).min(grid.deadline);
    let f_prev = lower.cdf(t_prev);
    let f_next = lower.cdf(t_next);
    let q_up_prev = if i == 0 { grid.q0 } else { grid.values[i - 1] };
    let q_up_next = grid.values[i];
    (
        quality_gain(f_prev, f_next, q_up_next),
        quality_loss(f_prev, fanout, q_up_prev, q_up_next),
    )
}

/// Convenience wrapper choosing `epsilon = deadline / DEFAULT_STEPS`.
pub fn calculate_wait_default<Q>(
    deadline: f64,
    lower: &dyn ContinuousDist,
    fanout: usize,
    q_up: Q,
) -> WaitDecision
where
    Q: Fn(f64) -> f64,
{
    if deadline <= 0.0 {
        return WaitDecision {
            wait: 0.0,
            quality: 0.0,
        };
    }
    calculate_wait(
        deadline,
        lower,
        fanout,
        q_up,
        deadline / DEFAULT_STEPS as f64,
    )
}

/// The scans the production kernel replaced, kept verbatim so tests can
/// pin the fast paths to them.
#[cfg(test)]
mod reference {
    use super::*;

    /// Eq. 4's loss with `F^k` from `powi`, as both scans had it.
    fn quality_loss_powi(f_t: f64, k: usize, q_up_before: f64, q_up_after: f64) -> f64 {
        let f = f_t.clamp(0.0, 1.0);
        let at_risk = f - f.powi(k as i32);
        at_risk.max(0.0) * (q_up_before - q_up_after).max(0.0)
    }

    /// The pre-batching scalar scan: one virtual `cdf` call and one
    /// `q_up` evaluation per ε-step.
    pub fn calculate_wait_scalar<Q>(
        deadline: f64,
        lower: &dyn ContinuousDist,
        fanout: usize,
        q_up: Q,
        epsilon: f64,
    ) -> WaitDecision
    where
        Q: Fn(f64) -> f64,
    {
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(fanout >= 1, "fanout must be at least 1");
        if deadline <= 0.0 {
            return WaitDecision {
                wait: 0.0,
                quality: 0.0,
            };
        }

        let steps = scan_steps(deadline, epsilon);
        let mut running = KahanSum::new();
        let mut best_q = 0.0f64;
        let mut best_wait = 0.0f64;

        let mut f_prev = lower.cdf(0.0);
        let mut q_up_prev = q_up(deadline).clamp(0.0, 1.0);
        for i in 0..steps {
            let t = i as f64 * epsilon;
            let t_next = (t + epsilon).min(deadline);
            let f_next = lower.cdf(t_next);
            let q_up_next = q_up(deadline - t_next).clamp(0.0, 1.0);

            let gain = quality_gain(f_prev, f_next, q_up_next);
            let loss = quality_loss_powi(f_prev, fanout, q_up_prev, q_up_next);
            running.add(gain - loss);

            let q = running.value();
            if q > best_q {
                best_q = q;
                best_wait = t_next;
            }

            f_prev = f_next;
            q_up_prev = q_up_next;
        }

        WaitDecision {
            wait: best_wait,
            quality: best_q.clamp(0.0, 1.0),
        }
    }

    /// The single-pass grid kernel: gain − loss, the Kahan sum and the
    /// argmax fused into one walk, `F^k` from `powi`.
    pub fn calculate_wait_with_grid_fused(
        lower: &dyn ContinuousDist,
        fanout: usize,
        grid: &QupGrid,
    ) -> WaitDecision {
        let steps = grid.steps();
        let mut ts = Vec::new();
        fill_grid(&mut ts, grid.deadline, grid.epsilon, steps);
        let mut fs = vec![0.0; steps];
        lower.cdf_batch(&ts, &mut fs);

        let mut running = KahanSum::new();
        let mut best_q = 0.0f64;
        let mut best_wait = 0.0f64;
        let mut f_prev = lower.cdf(0.0);
        let mut q_up_prev = grid.q0;
        for ((&t_next, &f_next), &q_up_next) in ts.iter().zip(&fs).zip(&grid.values) {
            let gain = quality_gain(f_prev, f_next, q_up_next);
            let loss = quality_loss_powi(f_prev, fanout, q_up_prev, q_up_next);
            running.add(gain - loss);
            let q = running.value();
            if q > best_q {
                best_q = q;
                best_wait = t_next;
            }
            f_prev = f_next;
            q_up_prev = q_up_next;
        }
        WaitDecision {
            wait: best_wait,
            quality: best_q.clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{calculate_wait_scalar, calculate_wait_with_grid_fused};
    use super::*;
    use crate::quality::departure_quality;
    use cedar_distrib::{Exponential, LogNormal, Normal, Pareto};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn two_pass_kernel_is_bit_identical_to_the_fused_one() {
        // 200 log-normal lower stages around the rpc_wide regime and 200
        // Gaussian ones, against a log-normal upper stage, at the
        // runtime's and the default ε-resolutions (and one whose steps
        // fill the vector blocks exactly): the same decision to the last
        // bit.
        let mut rng = StdRng::seed_from_u64(26);
        let upper = LogNormal::new(4.0, 1.2).unwrap();
        let deadline = 1000.0;
        for steps in [300usize, 301, 500] {
            let grid = QupGrid::build(deadline, deadline / steps as f64, |rem| {
                if rem <= 0.0 {
                    0.0
                } else {
                    upper.cdf(rem)
                }
            });
            for i in 0..400 {
                let fanout = rng.gen_range(1..101usize);
                let lower: Box<dyn ContinuousDist> = if i % 2 == 0 {
                    let (mu, sigma) = (rng.gen_range(4.0..7.5), rng.gen_range(0.2..1.5));
                    Box::new(LogNormal::new(mu, sigma).unwrap())
                } else {
                    let (mean, sd) = (rng.gen_range(50.0..900.0), rng.gen_range(5.0..400.0));
                    Box::new(Normal::new(mean, sd).unwrap())
                };
                assert_eq!(
                    calculate_wait_with_grid(&*lower, fanout, &grid),
                    calculate_wait_with_grid_fused(&*lower, fanout, &grid),
                    "{lower:?}, fan-out {fanout}, {steps} steps"
                );
            }
        }
        // The saturating regimes: the two-pass scan stops after the first
        // chunk that ends in exactly 1.0, the fused reference walks every
        // step, and the decisions still agree to the last bit.
        let (mut cut, mut scans) = (0, 0);
        for (deadline, lowers) in saturating_regimes(&mut rng) {
            for steps in [300usize, 301, 500] {
                let grid = QupGrid::build(deadline, deadline / steps as f64, two_level_qup(&upper));
                for lower in &lowers {
                    let fanout = rng.gen_range(1..101usize);
                    scans += 1;
                    cut += usize::from(saturates_before_the_last_chunk(&**lower, &grid));
                    assert_eq!(
                        calculate_wait_with_grid(&**lower, fanout, &grid),
                        calculate_wait_with_grid_fused(&**lower, fanout, &grid),
                        "{lower:?}, D = {deadline}, fan-out {fanout}, {steps} steps"
                    );
                }
            }
        }
        assert!(2 * cut > scans, "only {cut} of {scans} scans were cut");
    }

    /// Lower stages whose CDF reaches exactly 1.0 inside `[0, D]` in most
    /// draws, with the `D` they are scanned against: log-normals of the
    /// `rpc_small` / `rpc_churn` regime (`D = 1e7`) and of the
    /// `mesh_small` regime (`D = 20 000`), then Gaussian, exponential and
    /// Pareto stages at `D = 1000`.
    fn saturating_regimes(rng: &mut StdRng) -> Vec<(f64, Vec<Box<dyn ContinuousDist>>)> {
        let mut lognormals = |mu: std::ops::Range<f64>| -> Vec<Box<dyn ContinuousDist>> {
            (0..120)
                .map(|_| {
                    let (mu, sigma) = (rng.gen_range(mu.clone()), rng.gen_range(0.2..3.0));
                    Box::new(LogNormal::new(mu, sigma).unwrap()) as _
                })
                .collect()
        };
        let rpc = lognormals(6.0..7.0);
        let mesh = lognormals(2.0..3.0);
        let others = (0..180)
            .map(|i| -> Box<dyn ContinuousDist> {
                match i % 3 {
                    0 => {
                        let (mean, sd) = (rng.gen_range(50.0..400.0), rng.gen_range(2.0..60.0));
                        Box::new(Normal::new(mean, sd).unwrap())
                    }
                    1 => Box::new(Exponential::from_mean(rng.gen_range(2.0..30.0)).unwrap()),
                    _ => {
                        let (scale, shape) = (rng.gen_range(5.0..60.0), rng.gen_range(8.0..40.0));
                        Box::new(Pareto::new(scale, shape).unwrap())
                    }
                }
            })
            .collect();
        vec![(1e7, rpc), (20_000.0, mesh), (1000.0, others)]
    }

    /// Whether a scan of `lower` on `grid` stops short of the whole grid:
    /// the lower CDF is exactly 1.0 at the end of some chunk before the
    /// last one.
    fn saturates_before_the_last_chunk(lower: &dyn ContinuousDist, grid: &QupGrid) -> bool {
        let last_chunk = (grid.steps() - 1) / SATURATION_CHUNK * SATURATION_CHUNK;
        last_chunk > 0 && lower.cdf(grid.ts[last_chunk - 1]) == 1.0
    }

    /// Two-level helper: upstream quality is just the upper-stage CDF.
    fn two_level_qup(upper: &(impl ContinuousDist + Clone)) -> impl Fn(f64) -> f64 + '_ {
        move |d: f64| if d <= 0.0 { 0.0 } else { upper.cdf(d) }
    }

    use cedar_distrib::ContinuousDist;

    #[test]
    fn zero_deadline_waits_zero() {
        let x1 = LogNormal::new(0.0, 1.0).unwrap();
        let d = calculate_wait_default(0.0, &x1, 50, |_| 1.0);
        assert_eq!(d.wait, 0.0);
        assert_eq!(d.quality, 0.0);
    }

    #[test]
    fn generous_deadline_reaches_high_quality() {
        // Facebook-like stages with a deadline far above both stages'
        // p99: nearly all outputs should be deliverable.
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let d = calculate_wait_default(3000.0, &x1, 50, two_level_qup(&x2));
        assert!(d.quality > 0.95, "quality {}", d.quality);
        // The wait leaves room for the upper stage.
        assert!(d.wait < 3000.0);
        assert!(d.wait > x1.quantile(0.5));
    }

    #[test]
    fn tight_deadline_waits_less_and_quality_drops() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let tight = calculate_wait_default(60.0, &x1, 50, two_level_qup(&x2));
        let loose = calculate_wait_default(1000.0, &x1, 50, two_level_qup(&x2));
        assert!(tight.wait < loose.wait);
        assert!(tight.quality < loose.quality);
    }

    #[test]
    fn quality_matches_departure_quality_at_optimum() {
        // The scan's accumulated quality must agree with the closed-form
        // expected quality of departing at the chosen wait.
        let x1 = LogNormal::new(1.0, 0.8).unwrap();
        let x2 = Exponential::from_mean(5.0).unwrap();
        let deadline = 30.0;
        let dec = calculate_wait(deadline, &x1, 20, two_level_qup(&x2), 0.01);
        let check = departure_quality(
            |t| x1.cdf(t),
            20,
            dec.wait,
            deadline,
            |rem| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) },
            5000,
        );
        assert!(
            (dec.quality - check).abs() < 0.02,
            "scan {} vs closed form {}",
            dec.quality,
            check
        );
    }

    #[test]
    fn optimum_beats_grid_of_fixed_waits() {
        // No fixed wait on a coarse grid may beat the scan's choice by
        // more than the discretization slack.
        let x1 = LogNormal::new(2.0, 1.0).unwrap();
        let x2 = LogNormal::new(2.5, 0.5).unwrap();
        let deadline = 100.0;
        let dec = calculate_wait(deadline, &x1, 50, two_level_qup(&x2), 0.02);
        for i in 0..100 {
            let w = i as f64;
            let q = departure_quality(
                |t| x1.cdf(t),
                50,
                w,
                deadline,
                |rem| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) },
                2000,
            );
            assert!(
                q <= dec.quality + 0.02,
                "fixed wait {w} gives {q}, scan gave {}",
                dec.quality
            );
        }
    }

    #[test]
    fn degenerate_upper_stage_spends_full_budget() {
        // If shipping upstream is instantaneous (q_up = 1 for any
        // remaining budget > 0), waiting until just before D is optimal.
        let x1 = LogNormal::new(2.0, 0.8).unwrap();
        let d = calculate_wait(50.0, &x1, 50, |rem| f64::from(rem > 0.0), 0.05);
        assert!(d.wait > 49.0, "wait {}", d.wait);
    }

    #[test]
    fn gaussian_stages_work() {
        let x1 = Normal::new(40.0, 80.0).unwrap();
        let x2 = Normal::new(40.0, 10.0).unwrap();
        let d = calculate_wait_default(200.0, &x1, 50, two_level_qup(&x2));
        assert!(d.quality > 0.5);
        assert!(d.wait > 0.0 && d.wait < 200.0);
    }

    #[test]
    fn smaller_epsilon_refines_the_decision() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let coarse = calculate_wait(1000.0, &x1, 50, two_level_qup(&x2), 20.0);
        let fine = calculate_wait(1000.0, &x1, 50, two_level_qup(&x2), 0.5);
        // Both should find similar quality; fine resolution never worse
        // by more than the coarse discretization error.
        assert!(fine.quality >= coarse.quality - 1e-9);
        assert!((fine.wait - coarse.wait).abs() <= 40.0);
    }

    #[test]
    fn batched_scan_matches_scalar_reference() {
        // The acceptance bar: chosen wait and reported quality agree with
        // the pre-change scalar scan to ≤1e-9 across families, deadlines
        // and resolutions.
        let cases: Vec<(Box<dyn ContinuousDist>, Box<dyn ContinuousDist>)> = vec![
            (
                Box::new(LogNormal::new(2.77, 0.84).unwrap()),
                Box::new(LogNormal::new(2.94, 0.55).unwrap()),
            ),
            (
                Box::new(Normal::new(40.0, 80.0).unwrap()),
                Box::new(Normal::new(40.0, 10.0).unwrap()),
            ),
            (
                Box::new(Exponential::from_mean(12.0).unwrap()),
                Box::new(Exponential::from_mean(4.0).unwrap()),
            ),
            (
                Box::new(cedar_distrib::Pareto::new(1.0, 0.8).unwrap()),
                Box::new(LogNormal::new(0.5, 0.4).unwrap()),
            ),
        ];
        for (x1, x2) in &cases {
            for &deadline in &[5.0, 60.0, 300.0, 3000.0] {
                for &steps in &[100usize, 500] {
                    let eps = deadline / steps as f64;
                    let q_up = |rem: f64| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) };
                    let scalar = calculate_wait_scalar(deadline, x1, 50, q_up, eps);
                    let batched = calculate_wait(deadline, x1, 50, q_up, eps);
                    assert!(
                        (batched.quality - scalar.quality).abs() <= 1e-9,
                        "quality {} vs {} (deadline {deadline}, steps {steps})",
                        batched.quality,
                        scalar.quality
                    );
                    assert!(
                        (batched.wait - scalar.wait).abs() <= 1e-9 * deadline.max(1.0),
                        "wait {} vs {} (deadline {deadline}, steps {steps})",
                        batched.wait,
                        scalar.wait
                    );
                }
            }
        }
    }

    #[test]
    fn grid_scan_is_bit_identical_to_closure_scan() {
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        for &deadline in &[40.0, 100.0, 750.0] {
            let eps = deadline / DEFAULT_STEPS as f64;
            let q_up = two_level_qup(&x2);
            let grid = QupGrid::build(deadline, eps, &q_up);
            assert_eq!(grid.steps(), DEFAULT_STEPS);
            assert_eq!(grid.deadline(), deadline);
            assert_eq!(grid.epsilon(), eps);
            let via_closure = calculate_wait(deadline, &x1, 50, &q_up, eps);
            let via_grid = calculate_wait_with_grid(&x1, 50, &grid);
            // Same kernel, same inputs: exactly equal, not just close.
            assert_eq!(via_closure, via_grid);
        }
        // The saturating regimes, where both scans stop early.
        let mut rng = StdRng::seed_from_u64(31);
        let upper = LogNormal::new(4.0, 1.2).unwrap();
        let q_up = two_level_qup(&upper);
        let (mut cut, mut scans) = (0, 0);
        for (deadline, lowers) in saturating_regimes(&mut rng) {
            for steps in [300usize, 301, 500] {
                let eps = deadline / steps as f64;
                let grid = QupGrid::build(deadline, eps, &q_up);
                for lower in &lowers {
                    let fanout = rng.gen_range(1..101usize);
                    scans += 1;
                    cut += usize::from(saturates_before_the_last_chunk(&**lower, &grid));
                    assert_eq!(
                        calculate_wait(deadline, &**lower, fanout, &q_up, eps),
                        calculate_wait_with_grid(&**lower, fanout, &grid),
                        "{lower:?}, D = {deadline}, fan-out {fanout}, {steps} steps"
                    );
                }
            }
        }
        assert!(2 * cut > scans, "only {cut} of {scans} scans were cut");
    }

    #[test]
    fn grid_reuse_across_lower_estimates() {
        // The per-arrival pattern: one grid, many lower-stage refits.
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let deadline = 200.0;
        let eps = deadline / DEFAULT_STEPS as f64;
        let grid = QupGrid::build(deadline, eps, two_level_qup(&x2));
        for &(mu, sigma) in &[(2.5, 0.9), (2.77, 0.84), (3.0, 0.7)] {
            let lower = LogNormal::new(mu, sigma).unwrap();
            let fast = calculate_wait_with_grid(&lower, 50, &grid);
            let slow = calculate_wait_scalar(deadline, &lower, 50, two_level_qup(&x2), eps);
            assert!((fast.quality - slow.quality).abs() <= 1e-9);
            assert!((fast.wait - slow.wait).abs() <= 1e-9 * deadline);
        }
    }

    #[test]
    fn gain_loss_at_matches_scan_step() {
        // The explain probe must reproduce the exact gain/loss the scan
        // accumulated at the chosen step: re-running the scalar scan and
        // capturing its marginal terms at the argmax step agrees with
        // `gain_loss_at` on the same grid.
        let x1 = LogNormal::new(2.77, 0.84).unwrap();
        let x2 = LogNormal::new(2.94, 0.55).unwrap();
        let deadline = 200.0;
        let eps = deadline / DEFAULT_STEPS as f64;
        let q_up = two_level_qup(&x2);
        let grid = QupGrid::build(deadline, eps, &q_up);
        let dec = calculate_wait_with_grid(&x1, 50, &grid);
        let (gain, loss) = gain_loss_at(&x1, 50, &grid, dec.wait);
        // Re-derive by hand at the same step.
        let i = ((dec.wait / eps).round() as usize) - 1;
        let t_prev = i as f64 * eps;
        let t_next = (t_prev + eps).min(deadline);
        let want_gain = quality_gain(x1.cdf(t_prev), x1.cdf(t_next), q_up(deadline - t_next));
        let want_loss = quality_loss(
            x1.cdf(t_prev),
            50,
            q_up(deadline - t_prev).clamp(0.0, 1.0),
            q_up(deadline - t_next),
        );
        assert!(
            (gain - want_gain).abs() < 1e-12,
            "gain {gain} vs {want_gain}"
        );
        assert!(
            (loss - want_loss).abs() < 1e-12,
            "loss {loss} vs {want_loss}"
        );
        // At an interior optimum the marginal step still nets positive.
        assert!(gain >= 0.0 && loss >= 0.0);
    }

    #[test]
    fn gain_loss_at_degenerate_inputs() {
        let x1 = Exponential::new(1.0).unwrap();
        let grid = QupGrid::build(10.0, 0.1, |_| 1.0);
        assert_eq!(gain_loss_at(&x1, 5, &grid, 0.0), (0.0, 0.0));
        let (g, l) = gain_loss_at(&x1, 5, &grid, 1e9);
        assert!(g.is_finite() && l.is_finite());
    }

    #[test]
    #[should_panic(expected = "deadline")]
    fn grid_rejects_non_positive_deadline() {
        QupGrid::build(0.0, 0.1, |_| 1.0);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_non_positive_epsilon() {
        let x1 = Exponential::new(1.0).unwrap();
        calculate_wait(10.0, &x1, 5, |_| 1.0, 0.0);
    }

    #[test]
    fn unit_fanout_still_optimizes() {
        // k = 1: with a single input the "loss" term involves
        // F - F^1 = 0 (nothing partial at risk), so waiting costs nothing
        // until the upstream window closes; quality stays well-defined.
        let x1 = LogNormal::new(1.0, 0.6).unwrap();
        let x2 = LogNormal::new(1.0, 0.4).unwrap();
        let dec = calculate_wait_default(30.0, &x1, 1, two_level_qup(&x2));
        assert!((0.0..=1.0).contains(&dec.quality));
        assert!(dec.wait > 0.0 && dec.wait <= 30.0);
    }

    #[test]
    fn heavy_tailed_pareto_lower_stage() {
        // Infinite-mean Pareto processes: the scan only consumes CDF
        // values, so heavy tails must not destabilize the decision.
        let x1 = cedar_distrib::Pareto::new(1.0, 0.8).unwrap();
        let x2 = LogNormal::new(0.5, 0.4).unwrap();
        let dec = calculate_wait(25.0, &x1, 20, two_level_qup(&x2), 0.05);
        assert!(dec.quality > 0.0 && dec.quality <= 1.0);
        assert!(dec.wait.is_finite());
        // Most Pareto(1, 0.8) mass sits near the scale; some outputs are
        // deliverable within the budget.
        assert!(dec.quality > 0.2, "quality {}", dec.quality);
    }

    #[test]
    fn deadline_smaller_than_epsilon_is_safe() {
        // One scan step larger than the whole budget: the loop still
        // terminates with a clamped, sane decision.
        let x1 = Exponential::new(1.0).unwrap();
        let x2 = Exponential::new(1.0).unwrap();
        let dec = calculate_wait(0.5, &x1, 5, two_level_qup(&x2), 2.0);
        assert!(dec.wait <= 0.5 + 1e-12);
        assert!((0.0..=1.0).contains(&dec.quality));
    }
}
