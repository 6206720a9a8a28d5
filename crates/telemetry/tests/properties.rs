//! Property tests for the telemetry primitives: histogram
//! record/merge conservation laws, ring retention invariants, and
//! torn-free snapshots under concurrent recording.

use cedar_telemetry::{Histogram, HistogramSnapshot, QueryTrace, ShipReason, TraceEventKind};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

/// Maps a uniform `[0, 1)` draw onto a positive value spanning the
/// histogram's bucketed range plus both overflow regions (the vendored
/// proptest subset has range strategies only, so the widening is done
/// here rather than with `prop_oneof`).
fn widen(u: f64) -> f64 {
    if u < 0.05 {
        1e-12 * (1.0 + u) // underflow territory (below 2^-30)
    } else if u < 0.10 {
        1e11 * (1.0 + u) // overflow territory (above 2^34)
    } else {
        // Log-uniform over roughly [1e-6, 1e6].
        let t = (u - 0.10) / 0.90;
        10f64.powf(12.0 * t - 6.0)
    }
}

fn snapshot_of(values: &[f64]) -> HistogramSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

fn assert_conserves(snap: &HistogramSnapshot, values: &[f64]) {
    let total: u64 = snap.buckets.iter().sum();
    assert_eq!(snap.count, total, "count must equal the bucket sum");
    assert_eq!(snap.count as usize, values.len());
    let expect_sum: f64 = values.iter().sum();
    let tol = 1e-9 * expect_sum.abs().max(1.0);
    assert!(
        (snap.sum - expect_sum).abs() <= tol,
        "sum {} != {}",
        snap.sum,
        expect_sum
    );
    if values.is_empty() {
        assert!(snap.min.is_nan() && snap.max.is_nan());
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(snap.min, lo, "min must be the smallest recorded value");
        assert_eq!(snap.max, hi, "max must be the largest recorded value");
    }
}

proptest! {
    /// Every recorded value lands in exactly one bucket, and the
    /// snapshot's count/sum/min/max reproduce the raw stream exactly.
    #[test]
    fn histogram_record_conserves_count_and_bounds(
        raw in prop::collection::vec(0.0f64..1.0f64, 0..200)
    ) {
        let values: Vec<f64> = raw.iter().map(|&u| widen(u)).collect();
        assert_conserves(&snapshot_of(&values), &values);
    }

    /// Merging two snapshots is equivalent to recording both streams
    /// into one histogram: counts add, bucket totals add, and min/max
    /// are the bounds of the union.
    #[test]
    fn histogram_merge_matches_combined_stream(
        raw_a in prop::collection::vec(0.0f64..1.0f64, 0..150),
        raw_b in prop::collection::vec(0.0f64..1.0f64, 0..150),
    ) {
        let a: Vec<f64> = raw_a.iter().map(|&u| widen(u)).collect();
        let b: Vec<f64> = raw_b.iter().map(|&u| widen(u)).collect();
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut both = a.clone();
        both.extend_from_slice(&b);
        assert_conserves(&merged, &both);
        // Bucket-by-bucket the merge must match the combined stream.
        let combined = snapshot_of(&both);
        prop_assert_eq!(merged.buckets, combined.buckets);
    }

    /// `bucket_index` and `bucket_range` are inverses: a value indexes
    /// into a bucket whose half-open range contains it.
    #[test]
    fn bucket_index_lands_inside_bucket_range(u in 0.0f64..1.0f64) {
        let v = widen(u);
        let idx = Histogram::bucket_index(v);
        prop_assert!(idx < Histogram::bucket_count());
        let (lo, hi) = Histogram::bucket_range(idx);
        prop_assert!(v >= lo || idx == 0, "{} below bucket lo {}", v, lo);
        prop_assert!(v < hi, "{} not below bucket hi {}", v, hi);
    }

    /// The ring never evicts the first or last recorded event, no
    /// matter the capacity or how far it overflows, and the retained
    /// sequence numbers stay strictly increasing with exactly
    /// `dropped` gaps.
    #[test]
    fn trace_ring_keeps_first_and_last(
        head_cap in 1usize..8,
        tail_cap in 1usize..8,
        mids in 0usize..64,
    ) {
        let t = QueryTrace::with_capacity(head_cap, tail_cap);
        t.record(0.0, 1, 0, TraceEventKind::QueryStart {
            deadline: 10.0,
            total_processes: 4,
            priors_epoch: 0,
        });
        for i in 0..mids {
            t.record(i as f64, 0, i, TraceEventKind::Arrival {
                arrival: i + 1,
                origin: i,
                retry: false,
            });
        }
        t.record(10.0, 1, 0, TraceEventKind::QueryEnd {
            quality: 1.0,
            included: 4,
            reason: ShipReason::AllArrived,
        });

        let report = t.report();
        let total = (mids + 2) as u64;
        let first = report.events.first().expect("first event retained");
        let last = report.events.last().expect("last event retained");
        prop_assert_eq!(first.seq, 0);
        prop_assert!(matches!(first.kind, TraceEventKind::QueryStart { .. }));
        prop_assert_eq!(last.seq, total - 1);
        prop_assert!(matches!(last.kind, TraceEventKind::QueryEnd { .. }));

        // Retention + eviction accounts for every record.
        prop_assert_eq!(report.events.len() as u64 + report.dropped, total);
        for pair in report.events.windows(2) {
            prop_assert!(pair[0].seq < pair[1].seq);
        }
        // Summary counters are exact regardless of eviction.
        prop_assert_eq!(report.summary.arrivals, mids);
    }
}

/// A snapshot taken while writers are mid-record must be internally
/// consistent: its `count` is derived from the merged buckets, so the
/// two can never disagree (no torn read), and successive snapshots
/// never observe the count going backwards.
#[test]
fn snapshot_under_concurrent_record_is_torn_free() {
    let hist = Arc::new(Histogram::new());
    let stop = Arc::new(AtomicBool::new(false));
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 20_000;
    // The writers start only once the reader has taken its first
    // snapshot, so they cannot all finish before it runs.
    let start = Arc::new(Barrier::new(WRITERS + 1));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let hist = Arc::clone(&hist);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    // Spread across buckets; all values are exactly
                    // representable so the final sum check is exact-ish.
                    hist.record(((w as u64 * PER_WRITER + i) % 1024 + 1) as f64);
                }
            })
        })
        .collect();

    let reader = {
        let hist = Arc::clone(&hist);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last_count = 0u64;
            let mut snaps = 0u64;
            loop {
                let snap = hist.snapshot();
                let bucket_total: u64 = snap.buckets.iter().sum();
                assert_eq!(snap.count, bucket_total, "torn snapshot");
                assert!(snap.count >= last_count, "count went backwards");
                if snap.count > 0 {
                    assert!(snap.min >= 1.0 && snap.max <= 1024.0);
                    assert!(snap.sum > 0.0);
                }
                last_count = snap.count;
                snaps += 1;
                if snaps == 1 {
                    start.wait();
                }
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
            snaps
        })
    };

    for w in writers {
        w.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Release);
    let snaps = reader.join().expect("reader panicked");
    assert!(snaps > 0, "reader never snapshotted");

    let fin = hist.snapshot();
    assert_eq!(fin.count, (WRITERS as u64) * PER_WRITER);
    assert_eq!(fin.min, 1.0);
    assert_eq!(fin.max, 1024.0);
}

/// Concurrent recorders into one trace: the mutex serialises records,
/// so the summary counters and `retained + dropped` accounting are
/// exact across threads.
#[test]
fn trace_concurrent_records_account_exactly() {
    let trace = Arc::new(QueryTrace::with_capacity(8, 16));
    const THREADS: usize = 4;
    const EACH: usize = 500;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let trace = Arc::clone(&trace);
            thread::spawn(move || {
                for i in 0..EACH {
                    trace.record(
                        i as f64,
                        0,
                        t,
                        TraceEventKind::Arrival {
                            arrival: i + 1,
                            origin: t,
                            retry: false,
                        },
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("recorder panicked");
    }
    let report = trace.report();
    assert_eq!(report.summary.arrivals, THREADS * EACH);
    assert_eq!(
        report.events.len() as u64 + report.dropped,
        (THREADS * EACH) as u64
    );
    // Sequence numbers are gap-free at record time: the retained set is
    // strictly increasing and the last event has the final seq.
    for pair in report.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    assert_eq!(
        report.events.last().map(|e| e.seq),
        Some((THREADS * EACH) as u64 - 1)
    );
}
