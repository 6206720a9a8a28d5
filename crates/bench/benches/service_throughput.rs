//! Query throughput of the concurrent aggregation service, plain and
//! with runtime metrics attached.
//!
//! Refits are off, so after the warmup query every submission hits the
//! prepared-context cache (the query-independent setup that §5.2
//! reports at tens of ms per profile); the telemetry twin measures what
//! attaching `RuntimeMetrics` costs on top.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_runtime::{AggregationService, RuntimeMetrics, ServiceConfig, TimeScale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

/// Concurrent submissions per measured iteration.
const BATCH: usize = 8;

fn tree() -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(1.0, 0.6).unwrap(), 8),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 4),
    )
}

fn service(telemetry: bool) -> AggregationService {
    let mut cfg = ServiceConfig::new(tree(), 40.0);
    // Refits off: steady-state priors, so the cache stays hot.
    cfg.refit_interval = 0;
    // 5 us of wall clock per model unit: sleeps are near-instant and
    // the service's own cost dominates.
    cfg.scale = TimeScale::new(Duration::from_micros(5));
    if telemetry {
        // Metrics attached but never scraped: the enabled-but-idle
        // configuration the < 2% overhead budget is judged at.
        cfg.metrics = Some(RuntimeMetrics::detached());
    }
    AggregationService::new(cfg)
}

fn bench_service_throughput(c: &mut Criterion) {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(4)
        .enable_all()
        .build()
        .unwrap();

    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    for telemetry in [false, true] {
        let name = if telemetry {
            "batch8/cache_on_telemetry"
        } else {
            "batch8/cache_on"
        };
        let svc = service(telemetry);
        // Warm up: the first submission populates the profile cache.
        rt.block_on(svc.submit(tree()));
        group.bench_function(name, |b| {
            b.iter(|| {
                rt.block_on(async {
                    let mut handles = Vec::with_capacity(BATCH);
                    for _ in 0..BATCH {
                        let svc = svc.clone();
                        handles.push(tokio::spawn(async move { svc.submit(tree()).await }));
                    }
                    let mut total = 0usize;
                    for h in handles {
                        total += h.await.expect("submission panicked").included_outputs;
                    }
                    black_box(total)
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
