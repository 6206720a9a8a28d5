//! Model check of the checkpoint-writer / refit-epoch handoff
//! (crates/runtime/src/learner.rs + checkpoint.rs): a learner's caller
//! publishes each accepted refit's epoch-versioned priors, and the
//! learner then persists a `(epoch, stats)` snapshot. The durable
//! artifact must never mix state across epochs. Every write — refit or
//! on demand, from the service or a mesh aggregator — runs under the
//! learner's one lock, which is the single writer modelled here (the
//! two-writer regression below is what that lock rules out).
//!
//! Invariants checked across every interleaving:
//!
//! 1. **Snapshot atomicity** — every persisted checkpoint pairs the
//!    epoch with the stats fitted at that epoch. The production code
//!    guarantees this by building the whole [`Checkpoint`] under that
//!    one lock; a "torn" test proves the checker catches the
//!    field-at-a-time variant.
//! 2. **Durable monotonicity** — the sequence of persisted epochs never
//!    goes backwards, so warm restart (which loads the newest valid
//!    generation) can never resurrect older priors than an earlier
//!    checkpoint already published.
//! 3. **No future state** — a checkpoint never claims an epoch ahead of
//!    what the refit writer has actually published.

use cedar_analysis::sched::{self, Builder, Failure, Mutex, RwLock};
use std::sync::Arc;

/// Stand-in for the priors: `stamp` plays the fitted-stats version and
/// must always travel with `epoch` (the real code swaps the whole
/// snapshot struct under one write guard).
#[derive(Clone, Copy)]
struct Priors {
    epoch: u64,
    stamp: u64,
}

#[test]
fn checkpoints_are_atomic_monotone_and_never_ahead() {
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(3)
        .explore(|| {
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            // The durable log: one entry per write_atomic'd checkpoint
            // generation, in write order.
            let disk = Arc::new(Mutex::new(Vec::<Priors>::new()));

            let p2 = Arc::clone(&priors);
            let refit = sched::spawn(move || {
                for _ in 0..2 {
                    let mut g = p2.write();
                    let next = g.epoch + 1;
                    *g = Priors {
                        epoch: next,
                        stamp: next,
                    };
                }
            });

            // Checkpoint writer: snapshot under ONE read guard, then
            // persist. (Write order to disk is serialized by the log's
            // own lock, like the learner's one lock in production.)
            for _ in 0..2 {
                let snap = *priors.read();
                let published = priors.read().epoch;
                assert!(snap.epoch <= published, "checkpoint claims a future epoch");
                disk.lock().push(snap);
            }
            refit.join();

            let log = disk.lock();
            let mut last = 0u64;
            for ckpt in log.iter() {
                assert_eq!(ckpt.epoch, ckpt.stamp, "torn checkpoint");
                assert!(ckpt.epoch >= last, "durable epoch went backwards");
                last = ckpt.epoch;
            }
            // Warm restart loads the newest generation; it must be a
            // consistent pair and at most the final published epoch.
            let restored = *log.last().expect("two checkpoints were written");
            assert_eq!(restored.epoch, restored.stamp);
            assert!(restored.epoch <= priors.read().epoch);
        });
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
}

#[test]
fn field_at_a_time_checkpoint_is_caught_as_torn() {
    // The regression this model exists for: reading the epoch and the
    // stats under *separate* read guards lets a refit land in between,
    // persisting stats from epoch N+1 stamped as epoch N. The checker
    // must find that schedule.
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(2)
        .explore(|| {
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let disk = Arc::new(Mutex::new(Vec::<Priors>::new()));

            let p2 = Arc::clone(&priors);
            let refit = sched::spawn(move || {
                let mut g = p2.write();
                let next = g.epoch + 1;
                *g = Priors {
                    epoch: next,
                    stamp: next,
                };
            });

            let epoch = priors.read().epoch; // guard released here
            let stamp = priors.read().stamp; // refit may run in between
            disk.lock().push(Priors { epoch, stamp });
            refit.join();

            for ckpt in disk.lock().iter() {
                assert_eq!(ckpt.epoch, ckpt.stamp, "torn checkpoint");
            }
        });
    match s.failure {
        Some(Failure::Panic { ref message }) => {
            assert!(message.contains("torn"), "{message}");
        }
        other => panic!(
            "torn checkpoint must be found, got {other:?} after {} runs",
            s.runs
        ),
    }
}

#[test]
fn two_uncoordinated_checkpoint_writers_can_regress_the_log() {
    // Why the production code funnels all checkpoint writes through the
    // learner's one lock: two writers snapshotting and persisting
    // without a shared order can write epoch 1 *after* epoch 2, and a
    // warm restart picking "the newest file" would resurrect stale
    // priors. The checker must find the inversion.
    let s = Builder::new()
        .max_runs(100_000)
        .preemption_bound(3)
        .explore(|| {
            let priors = Arc::new(RwLock::new(Priors { epoch: 0, stamp: 0 }));
            let disk = Arc::new(Mutex::new(Vec::<Priors>::new()));

            let (p2, d2) = (Arc::clone(&priors), Arc::clone(&disk));
            let other_writer = sched::spawn(move || {
                let snap = *p2.read();
                d2.lock().push(snap);
            });

            {
                let mut g = priors.write();
                let next = g.epoch + 1;
                *g = Priors {
                    epoch: next,
                    stamp: next,
                };
            }
            let snap = *priors.read();
            disk.lock().push(snap);
            other_writer.join();

            let log = disk.lock();
            let mut last = 0u64;
            for ckpt in log.iter() {
                assert!(ckpt.epoch >= last, "durable epoch went backwards");
                last = ckpt.epoch;
            }
        });
    match s.failure {
        Some(Failure::Panic { ref message }) => {
            assert!(message.contains("backwards"), "{message}");
        }
        other => panic!(
            "log regression must be found, got {other:?} after {} runs",
            s.runs
        ),
    }
}
