//! Concurrency tests for the shared aggregation service: priors epochs
//! stay consistent under parallel submissions, the prepared-context
//! cache is shared across tasks, concurrent execution preserves the
//! serial service's per-seed determinism, and a service outlives the
//! runtime it first ran on.

use cedar_core::{StageSpec, TreeSpec};
use cedar_distrib::LogNormal;
use cedar_runtime::{AggregationService, QueryOptions, ServiceConfig};
use cedar_telemetry::{QueryTrace, TraceEventKind};
use std::sync::Arc;
use std::time::Duration;

fn tree(mu: f64) -> TreeSpec {
    TreeSpec::two_level(
        StageSpec::new(LogNormal::new(mu, 0.6).unwrap(), 8),
        StageSpec::new(LogNormal::new(1.0, 0.4).unwrap(), 4),
    )
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn epoch_is_monotone_under_concurrent_submits() {
    let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
    cfg.refit_interval = 2;
    let svc = AggregationService::new(cfg);

    // An observer hammering the priors lock while refits land: every
    // read must see a whole snapshot, so the epoch can only grow.
    let watcher = {
        let svc = svc.clone();
        tokio::spawn(async move {
            let mut last = svc.epoch();
            for _ in 0..200 {
                let now = svc.epoch();
                assert!(now >= last, "epoch went backwards: {last} -> {now}");
                last = now;
                // Reading priors alongside exercises the same lock.
                let p = svc.priors();
                assert_eq!(p.levels(), 2);
                tokio::time::sleep(std::time::Duration::from_millis(1)).await;
            }
        })
    };

    let mut handles = Vec::new();
    for _ in 0..16 {
        let svc = svc.clone();
        handles.push(tokio::spawn(async move {
            let out = svc.submit(tree(1.0)).await;
            assert!((0.0..=1.0).contains(&out.quality));
        }));
    }
    for h in handles {
        h.await.expect("submission task panicked");
    }
    watcher.await.expect("watcher panicked");

    assert_eq!(svc.completed(), 16);
    assert_eq!(svc.refits(), 8);
    assert_eq!(svc.epoch(), 8);
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
async fn concurrent_same_deadline_queries_hit_the_cache() {
    let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
    cfg.refit_interval = 0;
    let svc = AggregationService::new(cfg);

    // Warm the cache once, then fan out.
    svc.submit(tree(1.0)).await;
    let mut handles = Vec::new();
    for _ in 0..16 {
        let svc = svc.clone();
        handles.push(tokio::spawn(async move {
            svc.submit(tree(1.0)).await;
        }));
    }
    for h in handles {
        h.await.expect("submission task panicked");
    }

    let (hits, misses) = svc.cache_stats();
    assert_eq!(hits + misses, 17);
    assert_eq!(misses, 1, "fixed-deadline workload builds contexts once");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(rate > 0.5, "cache hit rate {rate} not above 50%");
}

#[tokio::test(start_paused = true)]
async fn concurrent_qualities_match_serial_on_same_seeds() {
    // Refits disabled: each outcome is then a pure function of
    // (tree, deadline, seed), so concurrent in-flight queries must
    // reproduce the serial service's qualities exactly.
    let seeds: Vec<u64> = (1..=12).collect();

    let mk = || {
        let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
        cfg.refit_interval = 0;
        AggregationService::new(cfg)
    };

    let serial = mk();
    let mut expected = Vec::new();
    for &seed in &seeds {
        let out = serial
            .submit_with(
                tree(1.0),
                QueryOptions {
                    seed: Some(seed),
                    ..QueryOptions::default()
                },
            )
            .await;
        expected.push(out.quality);
    }

    let concurrent = mk();
    let mut handles = Vec::new();
    for &seed in &seeds {
        let svc = concurrent.clone();
        handles.push(tokio::spawn(async move {
            svc.submit_with(
                tree(1.0),
                QueryOptions {
                    seed: Some(seed),
                    ..QueryOptions::default()
                },
            )
            .await
            .quality
        }));
    }
    let mut got = Vec::new();
    for h in handles {
        got.push(h.await.expect("submission task panicked"));
    }

    assert_eq!(got, expected, "concurrent qualities diverged from serial");
    assert_eq!(concurrent.completed(), seeds.len());
}

// A bottom aggregator walks its leaves in model time, so every leaf
// arrives at its sampled instant on the paused clock and the wall clock
// alike, and under this deadline every aggregator hears all of its
// leaves. If one ever leaves short, `shortfall` says which, and which
// leaves it missed.
#[tokio::test(start_paused = true)]
async fn explicit_values_flow_through_concurrent_submits() {
    let mut cfg = ServiceConfig::new(tree(1.0), 400.0);
    cfg.refit_interval = 0;
    let svc = AggregationService::new(cfg);
    let n = tree(1.0).total_processes();
    let values = Arc::new((0..n).map(|i| i as f64).collect::<Vec<_>>());
    let trace = Arc::new(QueryTrace::new());
    let out = svc
        .submit_with(
            tree(1.0),
            QueryOptions {
                values: Some(values),
                seed: Some(7),
                trace: Some(trace.clone()),
                ..QueryOptions::default()
            },
        )
        .await;
    // Full quality under the generous deadline: the sum is exact.
    let want: f64 = (0..n).map(|i| i as f64).sum();
    let why = || shortfall(&trace, &out.realized_durations[0]);
    assert_eq!(out.quality, 1.0, "{}", why());
    assert!((out.value_sum - want).abs() < 1e-9, "{}", why());
}

/// Which bottom aggregators left short, and how late in wall time (one
/// model unit being 1 ms) each one heard its last leaf and missed the
/// others: a leaf due before its aggregator left, yet not heard, was
/// delayed at least the difference.
fn shortfall(trace: &QueryTrace, leaf_durations: &[f64]) -> String {
    let events = trace.events();
    let mut lines = Vec::new();
    for e in events.iter().filter(|e| e.level == 1) {
        let TraceEventKind::Departed {
            reason,
            received,
            expected,
        } = e.kind
        else {
            continue;
        };
        if received == expected {
            continue;
        }
        let heard: Vec<(f64, usize)> = events
            .iter()
            .filter(|a| a.level == 1 && a.index == e.index)
            .filter_map(|a| match a.kind {
                TraceEventKind::Arrival { origin, .. } => Some((a.at, origin)),
                _ => None,
            })
            .collect();
        let last = heard
            .last()
            .map_or(String::from("heard no leaf"), |&(at, o)| {
                let late = (at - leaf_durations[o]) * 1e3;
                format!("heard its last leaf, origin {o}, {late:.0} µs after it was due")
            });
        let missed = (e.index * expected..(e.index + 1) * expected)
            .filter(|o| heard.iter().all(|&(_, h)| h != *o))
            .map(|o| {
                let due = leaf_durations[o];
                format!(
                    "origin {o} due at {due:.3} ms, still unheard {:.0} µs later",
                    (e.at - due) * 1e3
                )
            });
        lines.push(format!(
            "aggregator {} left at {:.3} ms ({reason:?}) with {received} of {expected}; {last}; {}",
            e.index,
            e.at,
            missed.collect::<Vec<_>>().join("; ")
        ));
    }
    if lines.is_empty() {
        lines.push(format!(
            "no bottom aggregator left short; trace: {events:?}"
        ));
    }
    lines.join("\n")
}

#[test]
fn a_service_keeps_learning_after_its_first_runtime_is_dropped() {
    // A service handle outlives any one runtime: a process may serve
    // from one runtime, tear it down and build another. Nothing of the
    // service's may stay behind on the first.
    let runtime = || {
        tokio::runtime::Builder::new_multi_thread()
            .worker_threads(1)
            .enable_all()
            .build()
            .expect("runtime")
    };
    let mut cfg = ServiceConfig::new(tree(1.0), 40.0);
    cfg.refit_interval = 5;
    let svc = AggregationService::new(cfg);

    let first = runtime();
    first.block_on(svc.submit(tree(1.0)));
    drop(first);

    let second = runtime();
    let finished = second.block_on(tokio::time::timeout(Duration::from_secs(3), async {
        for _ in 0..10 {
            svc.submit(tree(1.0)).await;
        }
    }));
    assert!(
        finished.is_ok(),
        "submissions on the second runtime hung: completed {}, refits {}",
        svc.completed(),
        svc.refits()
    );
    assert_eq!(svc.completed(), 11);
    assert!(svc.refits() >= 1);
}
