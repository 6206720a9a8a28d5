//! Allocations per operation on the hot paths, via a counting global
//! allocator — the companion to the `zero_alloc` assertion test.
//!
//! Not a timing bench: it prints a table of heap allocation events per
//! call, measured after warmup, for the per-arrival decision path and
//! the wire codec. The steady-state rows (grid-driven wait scan,
//! batched CDFs, binary encode into a reused buffer, interned ones)
//! must read 0.00; the decode row documents what an owned message
//! costs, which the zero-copy layout keeps to a handful of allocations.
//!
//! Run with `cargo bench --bench alloc_count`.

use cedar_core::wait::{calculate_wait, calculate_wait_with_grid, QupGrid};
use cedar_distrib::spec::DistSpec;
use cedar_distrib::{ContinuousDist, LogNormal, Mixture, Pareto};
use cedar_server::proto::{read_frame_raw, Request};
use cedar_server::wire2::encode_frame_into;
use cedar_workloads::treedef::{StageDef, TreeDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events per call of `step`, averaged over `rounds` after
/// `warmup` untimed rounds.
fn allocs_per_op(warmup: usize, rounds: usize, mut step: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        step();
    }
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    for _ in 0..rounds {
        step();
    }
    let events = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
    events as f64 / rounds as f64
}

fn main() {
    const WARMUP: usize = 8;
    const ROUNDS: usize = 200;
    let mut rows: Vec<(&str, f64)> = Vec::new();

    // Per-arrival wait scan, closure-driven (pays q_up per ε-step).
    let lower = LogNormal::new(6.5, 0.84).unwrap();
    let upper = LogNormal::new(4.0, 1.2).unwrap();
    let deadline = 1000.0;
    let epsilon = deadline / 500.0;
    let q_up = |rem: f64| if rem <= 0.0 { 0.0 } else { upper.cdf(rem) };
    rows.push((
        "calculate_wait (closure q_up)",
        allocs_per_op(WARMUP, ROUNDS, || {
            black_box(calculate_wait(deadline, &lower, 50, q_up, epsilon).wait);
        }),
    ));

    // Per-arrival wait scan against the memoized grid — the runtime's
    // steady-state path.
    let grid = QupGrid::build(deadline, epsilon, q_up);
    rows.push((
        "calculate_wait_with_grid",
        allocs_per_op(WARMUP, ROUNDS, || {
            black_box(calculate_wait_with_grid(&lower, 50, &grid).wait);
        }),
    ));

    // Batched mixture CDF over a full ε-grid into a caller buffer.
    let mix = Mixture::new(vec![
        (0.95, Box::new(LogNormal::new(2.77, 0.84).unwrap()) as _),
        (0.05, Box::new(Pareto::new(60.0, 1.5).unwrap()) as _),
    ])
    .unwrap();
    let ts: Vec<f64> = (0..500).map(|i| 0.5 + i as f64 * 0.37).collect();
    let mut out = vec![0.0; ts.len()];
    rows.push((
        "Mixture::cdf_batch (500 pts)",
        allocs_per_op(WARMUP, ROUNDS, || {
            mix.cdf_batch(&ts, &mut out);
            black_box(out[0]);
        }),
    ));

    // Wire codec, framing included, encode buffer reused.
    let tree = TreeDef {
        stages: vec![
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 6.5,
                    sigma: 0.84,
                },
                fanout: 50,
            },
            StageDef {
                dist: DistSpec::LogNormal {
                    mu: 4.0,
                    sigma: 1.2,
                },
                fanout: 50,
            },
        ],
    };
    let req = Request::query(tree, Some(1600.0), Some(7));
    let mut buf = Vec::new();
    rows.push((
        "binary encode (reused buf)",
        allocs_per_op(WARMUP, ROUNDS, || {
            encode_frame_into(&req, &mut buf).unwrap();
            black_box(buf.len());
        }),
    ));
    let mut bin_frame = Vec::new();
    encode_frame_into(&req, &mut bin_frame).unwrap();
    rows.push((
        "binary decode (owned msg)",
        allocs_per_op(WARMUP, ROUNDS, || {
            let raw = read_frame_raw(&mut &bin_frame[..]).unwrap().unwrap();
            black_box(raw.decode_auto::<Request>().unwrap());
        }),
    ));

    // Interned all-ones partial values.
    rows.push((
        "pool::ones (warm length)",
        allocs_per_op(WARMUP, ROUNDS, || {
            black_box(cedar_runtime::pool::ones(2500).len());
        }),
    ));

    println!("\nallocations per operation (after {WARMUP} warmup rounds, {ROUNDS} measured):\n");
    println!("  {:<34} {:>10}", "operation", "allocs/op");
    for (name, per_op) in &rows {
        println!("  {name:<34} {per_op:>10.2}");
    }
    let steady = [
        "calculate_wait_with_grid",
        "Mixture::cdf_batch (500 pts)",
        "binary encode (reused buf)",
        "pool::ones (warm length)",
    ];
    let violations: Vec<&str> = rows
        .iter()
        .filter(|(name, per_op)| steady.contains(name) && *per_op > 0.0)
        .map(|(name, _)| *name)
        .collect();
    if violations.is_empty() {
        println!("\nsteady-state paths: all allocation-free");
    } else {
        println!("\nSTEADY-STATE REGRESSION: {violations:?} allocated");
        std::process::exit(1);
    }
}
