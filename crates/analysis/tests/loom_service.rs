//! Model check of the aggregation service's shared-state protocol
//! (crates/runtime/src/service.rs): epoch-versioned priors behind a
//! `RwLock`, refitted by a single background writer (the refit task,
//! publishing each refit its learner — learner.rs — accepts),
//! snapshotted by concurrent request handlers; plus the bounded
//! refit-record channel feeding the writer.
//!
//! Invariants checked across every interleaving:
//!
//! 1. **Snapshot consistency** — a reader holding the read guard must
//!    never observe a priors tree from one epoch paired with the epoch
//!    counter of another. The production code guarantees this by
//!    assigning the whole `PriorsSnapshot` under one write guard; the
//!    model encodes the pairing as `epoch == stamp` and a "torn" test
//!    proves the checker catches the field-at-a-time variant the code
//!    must never regress to.
//! 2. **Epoch monotonicity** — two successive reads by the same
//!    handler never observe the epoch going backwards.
//! 3. **Bounded handoff** — the refit channel stand-in never exceeds
//!    its capacity, and every record the workers enqueue is applied by
//!    the refit loop exactly once.

use cedar_analysis::sched::{self, Builder, Failure, Mutex, RwLock};
use std::sync::Arc;

/// Stand-in for `PriorsSnapshot { epoch, tree }`: `stamp` plays the
/// tree pointer's version, and must always travel with `epoch`.
#[derive(Clone, Copy)]
struct Priors {
    epoch: u64,
    stamp: u64,
}

#[test]
fn whole_struct_refit_keeps_snapshots_consistent() {
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(3)
        .explore(|| {
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let p2 = Arc::clone(&priors);
            let refit = sched::spawn(move || {
                for _ in 0..2 {
                    let mut g = p2.write();
                    let next = g.epoch + 1;
                    // The production discipline: one assignment, one
                    // guard — epoch and tree can never tear apart.
                    *g = Priors {
                        epoch: next,
                        stamp: next,
                    };
                }
            });
            let mut last_epoch = 0;
            for _ in 0..2 {
                let snap = *priors.read();
                assert_eq!(snap.epoch, snap.stamp, "torn priors snapshot");
                assert!(snap.epoch >= last_epoch, "epoch went backwards");
                last_epoch = snap.epoch;
            }
            refit.join();
            let fin = *priors.read();
            assert_eq!(fin.epoch, 2);
            assert_eq!(fin.stamp, 2);
        });
    assert!(s.failure.is_none(), "{:?}", s.failure);
}

#[test]
fn field_at_a_time_refit_is_caught_as_torn() {
    // The regression the model guards against: bumping the epoch and
    // swapping the tree under *separate* write sections lets a reader
    // observe the mismatch. The checker must find that schedule.
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(2)
        .explore(|| {
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let p2 = Arc::clone(&priors);
            let refit = sched::spawn(move || {
                {
                    let mut g = p2.write();
                    g.epoch += 1;
                } // guard released between the two halves of the update
                {
                    let mut g = p2.write();
                    g.stamp += 1;
                }
            });
            {
                let snap = *priors.read();
                assert_eq!(snap.epoch, snap.stamp, "torn priors snapshot");
            }
            refit.join();
        });
    match s.failure {
        Some(Failure::Panic { ref message }) => {
            assert!(message.contains("torn"), "{message}");
        }
        other => panic!(
            "torn write must be found, got {other:?} after {} runs",
            s.runs
        ),
    }
}

#[test]
fn bounded_refit_handoff_loses_nothing_and_respects_capacity() {
    const CAP: usize = 2;
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(3)
        .explore(|| {
            // The channel stand-in: a capacity-bounded vec of realized
            // duration records.
            let chan = Arc::new(Mutex::new(Vec::<u64>::new()));
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let c2 = Arc::clone(&chan);
            let producer = sched::spawn(move || {
                for rec in [10u64, 20] {
                    let mut q = c2.lock();
                    assert!(q.len() < CAP, "refit channel exceeded its bound");
                    q.push(rec);
                }
            });
            // Observer side (request path): the queue must never be
            // seen above capacity while the producer runs.
            {
                let q = chan.lock();
                assert!(q.len() <= CAP, "capacity violated");
            }
            producer.join();
            // Refit loop: drain and apply, one epoch bump per record.
            let drained = {
                let mut q = chan.lock();
                std::mem::take(&mut *q)
            };
            assert_eq!(drained, vec![10, 20], "records lost or reordered");
            for _ in &drained {
                let mut g = priors.write();
                let next = g.epoch + 1;
                *g = Priors {
                    epoch: next,
                    stamp: next,
                };
            }
            assert_eq!(priors.read().epoch, drained.len() as u64);
        });
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
}
