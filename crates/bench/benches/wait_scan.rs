//! Latency of the per-arrival wait-duration scan.
//!
//! Three variants at the same ε-resolution:
//!
//! - `batched` — `calculate_wait`: one `cdf_batch` call over the whole
//!   grid (Cody fixed-degree kernels), quality closure still per call.
//! - `batched_memo_grid` — `calculate_wait_with_grid`: batched CDF plus
//!   the memoized `QupGrid`, i.e. what every arrival after the first pays
//!   inside the runtime.
//! - `batched_memo_grid_telemetry` — the same with the runtime's
//!   wall-clock read and histogram record around it.

use cedar_core::wait::{calculate_wait, calculate_wait_with_grid, QupGrid};
use cedar_distrib::{ContinuousDist, LogNormal};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_wait_scan(c: &mut Criterion) {
    let x1 = LogNormal::new(6.5, 0.84).unwrap();
    let x2 = LogNormal::new(4.0, 1.2).unwrap();
    let deadline = 1000.0;
    let q_up = |rem: f64| if rem <= 0.0 { 0.0 } else { x2.cdf(rem) };

    let mut group = c.benchmark_group("wait_scan");
    // 500 = cedar_core::wait::DEFAULT_STEPS; 1000/5000 track scaling.
    for &steps in &[500usize, 1000, 5000] {
        let eps = deadline / steps as f64;
        group.bench_with_input(BenchmarkId::new("batched", steps), &steps, |b, _| {
            b.iter(|| calculate_wait(black_box(deadline), &x1, 50, q_up, eps));
        });
        let grid = QupGrid::build(deadline, eps, q_up);
        group.bench_with_input(
            BenchmarkId::new("batched_memo_grid", steps),
            &steps,
            |b, _| {
                b.iter(|| calculate_wait_with_grid(black_box(&x1), 50, &grid));
            },
        );
        // The same hot path as the runtime runs it with metrics
        // attached: a wall-clock read before the scan and a lock-free
        // histogram record after. The enabled-but-idle telemetry budget
        // is < 2% over `batched_memo_grid`.
        group.bench_with_input(
            BenchmarkId::new("batched_memo_grid_telemetry", steps),
            &steps,
            |b, _| {
                let hist = cedar_telemetry::Registry::new()
                    .histogram("bench_wait_scan_seconds", "scan latency");
                b.iter(|| {
                    let t0 = std::time::Instant::now();
                    let w = calculate_wait_with_grid(black_box(&x1), 50, &grid);
                    hist.record(t0.elapsed().as_secs_f64());
                    w
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_wait_scan);
criterion_main!(benches);
