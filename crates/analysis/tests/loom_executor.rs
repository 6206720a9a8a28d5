//! Model check of the mini-tokio executor's timer and park protocols
//! (vendor/tokio/src/runtime.rs).
//!
//! ## Timer locking
//!
//! Timer entries live in a `BTreeMap` behind the executor's one
//! `Mutex`. Registering a timer can *displace* a previously registered
//! waker at the same key, and canceling removes one. The subtlety is
//! that **dropping a waker can re-enter that mutex**: a waker
//! keeps its task alive, the task owns its future, and the future may
//! own a `Sleep` whose `Drop` runs `cancel_timer` — which locks the same
//! mutex. Any drop of a displaced or removed waker while the lock is
//! held is therefore a self-deadlock.
//!
//! The model parameterizes the drop placement (`defer_displaced_drop`):
//! with the PR 1 fix (drop after release) every interleaving passes;
//! with the fix reverted (drop under the lock) the checker finds the
//! re-entrant deadlock. This is the guarded regression demanded by the
//! issue: the buggy protocol must *keep failing* in the model, so the
//! model itself stays honest.
//!
//! ## Parking
//!
//! A worker with nothing runnable reads the run queue and the earliest
//! deadline under the lock, counts itself idle there, and parks on a
//! condvar until that deadline. `enqueue`, and a timer registration that
//! becomes the new earliest deadline, decide under the same lock whether
//! a worker is counted idle and notify one only then, after unlocking.
//! The checker has no `Condvar`, so the park is a gate, closed from the
//! start, that the worker blocks on and `notify_one` opens — once opened
//! it stays open, as a condvar's wait has already begun once the worker
//! has released the lock. The worker's own timeout is abstracted: a park
//! until a deadline already known is on time by construction, while one
//! out to a later deadline must be cut short by a notify, or the checker
//! reports the worker blocked for good. Property, over every
//! interleaving: no worker stays parked past a queued task or an earlier
//! deadline. The guarded regression reads the idle count outside the
//! lock, and the checker must find the worker it strands.

use cedar_analysis::sched::{self, AtomicUsize, Builder, Failure, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

struct Timers {
    entries: Mutex<BTreeMap<u64, Entry>>,
}

/// A registered waker. Dropping it drops the task's future, which may
/// own a `Sleep` for *another* timer — the re-entrant path.
struct Entry {
    _owned_sleep: Option<Sleep>,
}

/// Models `tokio::time::Sleep`: its Drop cancels its own timer.
struct Sleep {
    key: u64,
    timers: Weak<Timers>,
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(t) = self.timers.upgrade() {
            // cancel_timer: remove under the lock, drop the removed
            // entry only after the guard is released (itself the PR 1
            // discipline — the removed entry may own further Sleeps).
            let removed = {
                let mut g = t.entries.lock();
                g.remove(&self.key)
            };
            drop(removed);
        }
    }
}

fn register_timer(t: &Arc<Timers>, key: u64, entry: Entry, defer_displaced_drop: bool) {
    let mut g = t.entries.lock();
    let displaced = g.insert(key, entry);
    if defer_displaced_drop {
        // PR 1 fix: release the timers lock before the displaced waker
        // (and anything it owns) is dropped.
        drop(g);
        drop(displaced);
    } else {
        // Reverted-fix shape: the displaced waker drops while the lock
        // is held; if it owns a Sleep, Sleep::drop re-enters the mutex.
        drop(displaced);
        drop(g);
    }
}

/// Drains the queue without holding the lock across entry drops.
fn drain(t: &Arc<Timers>) {
    let drained = {
        let mut g = t.entries.lock();
        std::mem::take(&mut *g)
    };
    drop(drained);
}

/// The displacement scenario: a waker that owns a Sleep gets displaced
/// by a re-registration at the same deadline key.
fn displacement_model(defer: bool) {
    let timers = Arc::new(Timers {
        entries: Mutex::new(BTreeMap::new()),
    });
    register_timer(&timers, 2, Entry { _owned_sleep: None }, defer);
    let sleep2 = Sleep {
        key: 2,
        timers: Arc::downgrade(&timers),
    };
    register_timer(
        &timers,
        1,
        Entry {
            _owned_sleep: Some(sleep2),
        },
        defer,
    );
    // Re-registration at key 1 displaces the waker owning sleep2;
    // sleep2's cancel path targets the same mutex.
    register_timer(&timers, 1, Entry { _owned_sleep: None }, defer);
    drain(&timers);
}

#[test]
fn reverted_fix_deadlocks_in_the_model() {
    let s = Builder::new().explore(|| displacement_model(false));
    match s.failure {
        Some(Failure::Deadlock { ref detail }) => {
            assert!(
                detail.contains("re-entered"),
                "must be the re-entrant shape: {detail}"
            );
        }
        other => panic!(
            "reverted fix must deadlock, got {other:?} after {} runs",
            s.runs
        ),
    }
}

#[test]
fn current_protocol_passes_all_interleavings() {
    let s = Builder::new().explore(|| displacement_model(true));
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated);
}

#[test]
fn concurrent_register_and_cancel_stay_deadlock_free() {
    // Two threads racing the protocol with the fix in place: one
    // re-registers (displacing a Sleep-owning waker), the other cancels
    // a different timer. Every interleaving must terminate.
    let s = Builder::new()
        .max_runs(50_000)
        .preemption_bound(3)
        .explore(|| {
            let timers = Arc::new(Timers {
                entries: Mutex::new(BTreeMap::new()),
            });
            register_timer(&timers, 2, Entry { _owned_sleep: None }, true);
            let sleep2 = Sleep {
                key: 2,
                timers: Arc::downgrade(&timers),
            };
            register_timer(
                &timers,
                1,
                Entry {
                    _owned_sleep: Some(sleep2),
                },
                true,
            );
            let t2 = Arc::clone(&timers);
            let canceler = sched::spawn(move || {
                // An independent Sleep canceling its own (absent) timer
                // races the displacement on the same mutex.
                let s3 = Sleep {
                    key: 3,
                    timers: Arc::downgrade(&t2),
                };
                drop(s3);
                register_timer(&t2, 3, Entry { _owned_sleep: None }, true);
            });
            register_timer(&timers, 1, Entry { _owned_sleep: None }, true);
            canceler.join();
            drain(&timers);
        });
    assert!(s.failure.is_none(), "{:?}", s.failure);
}

/// The deadline the worker parks until, and one well before it.
const LATE: u64 = 100;
const EARLY: u64 = 10;

/// What a worker reads before it parks.
struct Core {
    tasks: usize,
    timers: Vec<u64>,
}

impl Core {
    fn earliest(&self) -> u64 {
        self.timers.iter().copied().min().unwrap_or(u64::MAX)
    }
}

struct Executor {
    core: Mutex<Core>,
    /// Workers counted parked; written only under `core`.
    idle: AtomicUsize,
    /// Where the worker parks.
    gate: &'static Mutex<()>,
    /// Holds the gate closed until `notify_one` drops it.
    closed: Mutex<Option<MutexGuard<'static, ()>>>,
}

impl Executor {
    fn new() -> Self {
        let gate: &'static Mutex<()> = Box::leak(Box::new(Mutex::new(())));
        Executor {
            core: Mutex::new(Core {
                tasks: 0,
                timers: vec![LATE],
            }),
            idle: AtomicUsize::new(0),
            gate,
            closed: Mutex::new(Some(gate.lock())),
        }
    }

    fn notify_one(&self) {
        drop(self.closed.lock().take());
    }
}

/// The worker loop: run a queued task, or let a timer due by `EARLY` be
/// fired by its own timeout, or park out to a later deadline.
fn worker(ex: &Executor) {
    for _ in 0..2 {
        let core = ex.core.lock();
        if core.tasks > 0 || core.earliest() <= EARLY {
            return;
        }
        ex.idle.fetch_add(1);
        drop(core);
        drop(ex.gate.lock());
        let _core = ex.core.lock();
        ex.idle.store(ex.idle.load() - 1);
    }
    panic!("woken twice with nothing to do");
}

#[derive(Clone, Copy)]
enum Event {
    Task,
    EarlierTimer,
}

/// `enqueue` or `register_timer`: change the state under the lock, then
/// notify after unlocking if the change can cut a park short and a
/// worker is counted idle. `idle_outside_lock` is the broken variant
/// that reads the count before taking the lock.
fn produce(ex: &Executor, event: Event, idle_outside_lock: bool) {
    let peeked = idle_outside_lock.then(|| ex.idle.load() > 0);
    let mut core = ex.core.lock();
    let cuts_park_short = match event {
        Event::Task => {
            core.tasks += 1;
            true
        }
        Event::EarlierTimer => {
            let earliest = EARLY < core.earliest();
            core.timers.push(EARLY);
            earliest
        }
    };
    let idle = peeked.unwrap_or_else(|| ex.idle.load() > 0);
    drop(core);
    if cuts_park_short && idle {
        ex.notify_one();
    }
}

/// A worker racing one producer; the join strands if the worker does.
fn park_model(event: Event, idle_outside_lock: bool) {
    let ex = Arc::new(Executor::new());
    let w = {
        let ex = Arc::clone(&ex);
        sched::spawn(move || worker(&ex))
    };
    produce(&ex, event, idle_outside_lock);
    w.join();
}

#[test]
fn no_worker_stays_parked_past_a_task_or_an_earlier_deadline() {
    for event in [Event::Task, Event::EarlierTimer] {
        let s = Builder::new()
            .max_runs(100_000)
            .explore(move || park_model(event, false));
        assert!(s.failure.is_none(), "{:?}", s.failure);
        assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
    }
}

#[test]
fn reading_the_idle_count_outside_the_lock_strands_a_worker() {
    for event in [Event::Task, Event::EarlierTimer] {
        let s = Builder::new()
            .max_runs(100_000)
            .explore(move || park_model(event, true));
        match s.failure {
            Some(Failure::Deadlock { ref detail }) => {
                assert!(detail.contains("blocked"), "{detail}");
            }
            other => panic!(
                "the lost wake must be found as a worker parked for good, got {other:?} after {} runs",
                s.runs
            ),
        }
    }
}
