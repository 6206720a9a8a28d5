//! End-to-end simulated-query cost per policy — what bounds the
//! experiment harness's throughput (Cedar re-optimizes on every arrival,
//! so it is the most expensive policy by design).

use cedar_core::policy::WaitPolicyKind;
use cedar_core::PreparedContexts;
use cedar_sim::{simulate_query, SimConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let tree = cedar_bench::bench_tree(50, 50);
    let cfg = SimConfig::new(tree, 1000.0)
        .with_seed(1)
        .with_scan_steps(200);
    let mut group = c.benchmark_group("simulate_query_50x50");
    group.sample_size(20);
    for kind in [
        WaitPolicyKind::ProportionalSplit,
        WaitPolicyKind::Ideal,
        WaitPolicyKind::Cedar,
    ] {
        group.bench_with_input(
            BenchmarkId::new("policy", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| simulate_query(black_box(&cfg), kind));
            },
        );
    }
    group.finish();
}

fn bench_prepared_amortization(c: &mut Criterion) {
    // The profile build dominates one-off queries; prepared contexts
    // amortize it.
    let tree = cedar_bench::bench_tree(50, 50);
    let cfg = SimConfig::new(tree, 1000.0)
        .with_seed(2)
        .with_scan_steps(200);
    let prepared = PreparedContexts::new(
        &cfg.priors,
        cfg.deadline,
        WaitPolicyKind::Cedar,
        cfg.model,
        cfg.scan_steps,
        &cfg.profile,
    );
    let mut group = c.benchmark_group("simulate_query_amortized");
    group.sample_size(20);
    group.bench_function("with_prepared_contexts", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            cedar_sim::engine::execute_prepared(&cfg, WaitPolicyKind::Cedar, &mut rng, &prepared)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_policies, bench_prepared_amortization);
criterion_main!(benches);
