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
//! A worker with nothing runnable reads the run queue, the earliest
//! deadline and the owner slot under the lock. The first to find a timer
//! armed and no owner parks as the **timer owner**, on its own condvar,
//! until the earliest deadline; every other idle worker is a **work
//! waiter**, parked only until work arrives. Producers decide under the
//! same lock whom to wake and notify after unlocking:
//! - `enqueue` wakes a waiter, else the owner — except that a worker
//!   queueing the only ready task wakes nobody and runs it next turn;
//! - a timer that becomes the new earliest deadline wakes the owner, else
//!   a waiter, which then parks as the owner — even when a worker arms it.
//!
//! The checker has no `Condvar`, so a wait is a gate, closed from the
//! start, that the worker blocks on and a notify opens; a worker
//! registers its gate with the condvar before it unlocks. The timeouts
//! are abstracted: a park until a deadline already known is on time by
//! construction, while one out to a later deadline must be cut short by a
//! notify, and a waiter's backstop is never relied on — or the checker
//! reports the worker blocked for good. The model runs two workers, one
//! of them inside a task that wakes another, a foreign task, and an
//! earlier timer armed by the foreign thread or by that task. Property,
//! over every schedule with up to two preemptions: no task waits while
//! every worker is parked, and the owner never sleeps past an earlier
//! deadline. Three guarded regressions must each strand a worker: an
//! earlier timer that wakes a waiter instead of the owner, a worker that
//! arms an earlier timer and skips the wake (it then parks as a waiter
//! while the owner sleeps on), and whom to wake read outside the lock.

use cedar_analysis::sched::{self, Builder, Failure, Mutex, MutexGuard};
use std::collections::{BTreeMap, VecDeque};
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

/// The deadline the timer owner first parks until, and one well before
/// it that a task or a foreign thread arms.
const LATE: u64 = 100;
const EARLY: u64 = 10;

/// Tasks that must be taken: one a worker's running task wakes, one a
/// foreign thread queues.
const TASKS: usize = 2;

/// Parks per worker the model provides; more is a livelock.
const PARKS: usize = 6;

/// What a worker reads before it parks, plus what the checks count.
struct Core {
    tasks: usize,
    timers: Vec<u64>,
    /// Model time, moved only by the owner's on-time park.
    now: u64,
    /// Workers parked waiting only for work.
    waiters: usize,
    /// Whether the timer owner is parked until the earliest deadline.
    owner_parked: bool,
    taken: usize,
    fired_early: bool,
    shutdown: bool,
}

/// The parked worker a change calls for, woken after the unlock.
#[derive(Clone, Copy)]
enum Rouse {
    Nobody,
    Waiter,
    Owner,
}

impl Core {
    fn earliest(&self) -> Option<u64> {
        self.timers.iter().copied().min()
    }

    fn wake_for_work(&self) -> Rouse {
        if self.waiters > 0 {
            Rouse::Waiter
        } else if self.owner_parked {
            Rouse::Owner
        } else {
            Rouse::Nobody
        }
    }

    fn wake_for_timer(&self) -> Rouse {
        if self.owner_parked {
            Rouse::Owner
        } else if self.waiters > 0 {
            Rouse::Waiter
        } else {
            Rouse::Nobody
        }
    }
}

/// One park of one worker: a gate, closed by the thread that builds the
/// model, that the worker blocks on and a notify opens for good.
struct Park {
    gate: &'static Mutex<()>,
    closed: Mutex<Option<MutexGuard<'static, ()>>>,
}

impl Park {
    fn new() -> Arc<Park> {
        let gate: &'static Mutex<()> = Box::leak(Box::new(Mutex::new(())));
        Arc::new(Park {
            gate,
            closed: Mutex::new(Some(gate.lock())),
        })
    }

    fn block(&self) {
        drop(self.gate.lock());
    }
}

/// A condvar: the parks waiting on it, oldest first. A worker registers
/// its park while it still holds the core lock — a condvar wait releases
/// the lock and starts waiting in one step — so a notify made after the
/// unlock finds it.
struct Condvar {
    waiting: Mutex<VecDeque<Arc<Park>>>,
}

impl Condvar {
    fn new() -> Self {
        Condvar {
            waiting: Mutex::new(VecDeque::new()),
        }
    }

    fn register(&self, park: &Arc<Park>) {
        self.waiting.lock().push_back(Arc::clone(park));
    }

    fn notify_one(&self) {
        let park = self.waiting.lock().pop_front();
        if let Some(park) = park {
            drop(park.closed.lock().take());
        }
    }

    fn notify_all(&self) {
        let parks = std::mem::take(&mut *self.waiting.lock());
        for park in parks {
            drop(park.closed.lock().take());
        }
    }
}

/// How producers pick whom to wake.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Protocol {
    /// The executor's: new work wakes a waiter, else the owner; a new
    /// earliest deadline wakes the owner, else a waiter to become it; a
    /// worker that queues the only ready task wakes nobody.
    Current,
    /// Regression: a new earliest deadline wakes a work waiter first.
    TimerWakesWaiters,
    /// Regression: a worker that arms an earlier timer skips the wake
    /// too, as it does for its only ready task.
    WorkerArmSkipsWake,
    /// Regression: whom to wake is read in an earlier critical section
    /// than the one that queues the task or arms the timer.
    ParkedReadOutsideTheLock,
}

/// Who arms the early timer.
#[derive(Clone, Copy, Debug)]
enum Armer {
    Foreign,
    Worker,
}

struct Executor {
    core: Mutex<Core>,
    work_available: Condvar,
    timer_owner: Condvar,
    protocol: Protocol,
}

impl Executor {
    fn wake(&self, target: Rouse) {
        match target {
            Rouse::Nobody => {}
            Rouse::Waiter => self.work_available.notify_one(),
            Rouse::Owner => self.timer_owner.notify_one(),
        }
    }

    fn peek(&self, pick: fn(&Core) -> Rouse) -> Option<Rouse> {
        (self.protocol == Protocol::ParkedReadOutsideTheLock).then(|| pick(&self.core.lock()))
    }

    /// `enqueue`.
    fn enqueue(&self, by_worker: bool) {
        let peeked = self.peek(Core::wake_for_work);
        let mut core = self.core.lock();
        let only = core.tasks == 0;
        core.tasks += 1;
        let target = if by_worker && only {
            Rouse::Nobody
        } else {
            peeked.unwrap_or_else(|| core.wake_for_work())
        };
        drop(core);
        self.wake(target);
    }

    /// `arm`, for the early timer.
    fn arm_early(&self, by_worker: bool) {
        let peeked = self.peek(Core::wake_for_timer);
        let mut core = self.core.lock();
        let earliest = core.earliest().is_none_or(|t| EARLY < t);
        core.timers.push(EARLY);
        let target = match self.protocol {
            Protocol::TimerWakesWaiters => core.wake_for_work(),
            Protocol::WorkerArmSkipsWake if by_worker => Rouse::Nobody,
            _ => peeked.unwrap_or_else(|| core.wake_for_timer()),
        };
        drop(core);
        if earliest {
            self.wake(target);
        }
    }
}

/// `worker_loop`. With `running` set, the worker starts inside a task
/// that wakes another task of the runtime and, for `Armer::Worker`, arms
/// the early timer. A deadline already known when the owner parks ends
/// the park on time by the park's own timeout; one out to a later
/// deadline must be cut short by a notify, and a waiter's backstop
/// timeout is not relied on, or the checker finds the worker blocked
/// for good. Once both tasks are taken and the early timer has fired,
/// the worker that sees it shuts the executor down as `Runtime::drop`
/// does: flag under the lock, then every park opened.
fn worker(ex: &Executor, parks: &[Arc<Park>], running: Option<Armer>) {
    let mut parks = parks.iter();
    if let Some(armer) = running {
        ex.enqueue(true);
        if let Armer::Worker = armer {
            ex.arm_early(true);
        }
    }
    let mut core = ex.core.lock();
    loop {
        if core.shutdown {
            return;
        }
        let now = core.now;
        let armed = core.timers.len();
        core.timers.retain(|&t| t > now);
        let fired = core.timers.len() < armed;
        core.fired_early |= fired;
        let task = core.tasks > 0;
        if task {
            core.tasks -= 1;
            core.taken += 1;
        }
        if core.taken == TASKS && core.fired_early {
            core.shutdown = true;
            drop(core);
            ex.work_available.notify_all();
            ex.timer_owner.notify_all();
            return;
        }
        if fired || task {
            // Wake the timer's task or run the task, outside the lock.
            drop(core);
            core = ex.core.lock();
            continue;
        }
        let mut next_park = || {
            parks
                .next()
                .expect("a worker parked more often than the model allows")
        };
        core = match core.earliest() {
            Some(t) if !core.owner_parked && t <= EARLY => {
                core.owner_parked = true;
                drop(core);
                let mut core = ex.core.lock();
                core.now = core.now.max(t);
                core.owner_parked = false;
                core
            }
            Some(_) if !core.owner_parked => {
                core.owner_parked = true;
                let park = next_park();
                ex.timer_owner.register(park);
                drop(core);
                park.block();
                let mut core = ex.core.lock();
                core.owner_parked = false;
                core
            }
            _ => {
                core.waiters += 1;
                let park = next_park();
                ex.work_available.register(park);
                drop(core);
                park.block();
                let mut core = ex.core.lock();
                core.waiters -= 1;
                core
            }
        };
    }
}

/// Two workers, one armed `LATE` timer, a worker's running task that
/// wakes another, a foreign task, and the early timer armed by `armer`.
fn park_model(armer: Armer, protocol: Protocol) {
    let ex = Arc::new(Executor {
        core: Mutex::new(Core {
            tasks: 0,
            timers: vec![LATE],
            now: 0,
            waiters: 0,
            owner_parked: false,
            taken: 0,
            fired_early: false,
            shutdown: false,
        }),
        work_available: Condvar::new(),
        timer_owner: Condvar::new(),
        protocol,
    });
    let workers: Vec<_> = [None, Some(armer)]
        .into_iter()
        .map(|running| {
            let parks: Vec<_> = (0..PARKS).map(|_| Park::new()).collect();
            let ex = Arc::clone(&ex);
            sched::spawn(move || worker(&ex, &parks, running))
        })
        .collect();
    ex.enqueue(false);
    if let Armer::Foreign = armer {
        ex.arm_early(false);
    }
    for w in workers {
        w.join();
    }
}

/// Every schedule with at most two preemptions: the space the unbounded
/// search cannot exhaust, and where the lost wakes below are found.
fn explore(armer: Armer, protocol: Protocol) -> sched::Summary {
    Builder::new()
        .max_runs(200_000)
        .preemption_bound(2)
        .explore(move || park_model(armer, protocol))
}

#[test]
fn no_worker_stays_parked_past_a_task_or_an_earlier_deadline() {
    for armer in [Armer::Foreign, Armer::Worker] {
        let s = explore(armer, Protocol::Current);
        println!("{} schedules", s.runs);
        assert!(s.failure.is_none(), "{:?}", s.failure);
        assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
    }
}

/// The lost wake must be found as workers parked for good.
fn assert_stranded(armer: Armer, protocol: Protocol) {
    let s = explore(armer, protocol);
    match s.failure {
        Some(Failure::Deadlock { ref detail }) => {
            println!(
                "{protocol:?}/{armer:?} found after {} schedules: {detail}",
                s.runs
            );
            assert!(detail.contains("blocked"), "{detail}");
        }
        other => panic!(
            "the lost wake must be found as a worker parked for good, got {other:?} after {} runs",
            s.runs
        ),
    }
}

#[test]
fn an_earlier_timer_that_wakes_a_waiter_leaves_the_owner_asleep() {
    assert_stranded(Armer::Foreign, Protocol::TimerWakesWaiters);
}

#[test]
fn a_worker_that_arms_an_earlier_timer_must_still_wake_the_owner() {
    assert_stranded(Armer::Worker, Protocol::WorkerArmSkipsWake);
}

#[test]
fn reading_who_is_parked_outside_the_lock_strands_a_worker() {
    for armer in [Armer::Foreign, Armer::Worker] {
        assert_stranded(armer, Protocol::ParkedReadOutsideTheLock);
    }
}
