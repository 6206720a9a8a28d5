//! Model check of the aggregation service's shared-state protocol
//! (crates/runtime/src/service.rs): epoch-versioned priors behind a
//! `RwLock`, snapshotted by concurrent request handlers and replaced by
//! whichever submission completes a refit. Each submission records its
//! own query into the learner (learner.rs), whose one mutex is held
//! both while the next epoch is taken and while it is published — so
//! two submitters finishing together publish one at a time, in epoch
//! order.
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
//! 2. **Epoch monotonicity** — no publish replaces newer priors with
//!    older ones, and two successive reads by the same handler never
//!    observe the epoch going backwards. The guarded regression takes
//!    the epoch under the learner's lock but publishes after releasing
//!    it; the checker must find the submitter whose stale epoch lands
//!    over a newer one.

use cedar_analysis::sched::{self, Builder, Failure, Mutex, RwLock, Summary};
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

/// One submission's refit as `Learner::record` runs it: take the next
/// epoch under the learner's lock, then publish it — still under that
/// lock unless `publish_under_lock` is false.
fn refit(learner: &Mutex<u64>, priors: &RwLock<Priors>, publish_under_lock: bool) {
    let mut taken = learner.lock();
    *taken += 1;
    let next = *taken;
    if !publish_under_lock {
        drop(taken);
    }
    let mut g = priors.write();
    assert!(
        next > g.epoch,
        "epoch went backwards: {next} published over {}",
        g.epoch
    );
    *g = Priors {
        epoch: next,
        stamp: next,
    };
}

/// Two submitters each completing a refit while a request handler
/// snapshots the priors twice.
fn two_submitters(publish_under_lock: bool) -> Summary {
    Builder::new()
        .max_runs(100_000)
        .preemption_bound(3)
        .explore(move || {
            let learner = Arc::new(Mutex::new(0u64));
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let submitters: Vec<_> = (0..2)
                .map(|_| {
                    let (l, p) = (Arc::clone(&learner), Arc::clone(&priors));
                    sched::spawn(move || refit(&l, &p, publish_under_lock))
                })
                .collect();
            let mut last = 0;
            for _ in 0..2 {
                let snap = *priors.read();
                assert_eq!(snap.epoch, snap.stamp, "torn priors snapshot");
                assert!(
                    snap.epoch >= last,
                    "epoch went backwards: read {last}, then {}",
                    snap.epoch
                );
                last = snap.epoch;
            }
            for s in submitters {
                s.join();
            }
            let fin = *priors.read();
            assert_eq!((fin.epoch, fin.stamp), (2, 2), "a refit was lost");
        })
}

#[test]
fn submitters_publish_in_epoch_order_under_the_learners_lock() {
    let s = two_submitters(true);
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
}

#[test]
fn publishing_after_the_lock_is_caught_going_backwards() {
    // The regression: with the epoch taken under the learner's lock but
    // published after it is released, submitter A can take epoch 1,
    // submitter B take and publish epoch 2, and A then publish 1 over
    // it. The checker must find that schedule.
    let s = two_submitters(false);
    match s.failure {
        Some(Failure::Panic { ref message }) => {
            assert!(message.contains("epoch went backwards"), "{message}");
        }
        other => panic!(
            "a stale publish must be found, got {other:?} after {} runs",
            s.runs
        ),
    }
}
