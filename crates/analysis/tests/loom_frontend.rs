//! Model check of the front end's stop protocol
//! (crates/server/src/frontend.rs): the accept thread spawns a
//! connection and registers it, re-checking the stop flag under the
//! registry lock, while `Frontend::stop` sets the flag, then sweeps the
//! registry under the same lock and shuts each socket's read half.
//!
//! Each connection thread goes straight into its read — the model does
//! not lean on the thread's own flag check, which can pass just before
//! the stop — and a read returns only once the sweep shuts the read
//! half. The read is a lock on the socket's gate, held from accept
//! until the sweep releases it: a connection nobody wakes blocks
//! forever, and the checker reports the deadlock when the drain joins
//! it.
//!
//! Properties, over every interleaving: once accept and stop have both
//! finished, every connection thread is woken and returns; and no
//! connection is registered — so served — after the sweep. The guarded
//! regression models the tempting accept loop that checks the flag and
//! registers later, without the re-check, and proves the checker finds
//! the connection thread it strands.

use cedar_analysis::sched::{self, AtomicUsize, Builder, Failure, JoinHandle, Mutex, MutexGuard};
use std::sync::Arc;

/// A registered connection: its thread, and the gate guard standing for
/// its socket's open read half.
struct Conn {
    read_half: Option<MutexGuard<'static, ()>>,
    thread: JoinHandle<()>,
}

#[derive(Default)]
struct Registry {
    conns: Vec<Conn>,
    swept: bool,
    registered_after_sweep: bool,
}

/// One connection's thread, blocked in a read that returns only once
/// the sweep shuts the read half (the EOF ends the connection).
fn spawn_connection() -> (MutexGuard<'static, ()>, JoinHandle<()>) {
    let gate: &'static Mutex<()> = Box::leak(Box::new(Mutex::new(())));
    let read_half = gate.lock();
    let thread = sched::spawn(move || drop(gate.lock()));
    (read_half, thread)
}

/// The production accept step: spawn and register under the registry
/// lock, after re-checking the flag there.
fn accept(registry: &Mutex<Registry>, stop: &Arc<AtomicUsize>) {
    let mut reg = registry.lock();
    if stop.load() == 1 {
        return; // refused: the socket is dropped unserved
    }
    let (read_half, thread) = spawn_connection();
    reg.registered_after_sweep |= reg.swept;
    reg.conns.push(Conn {
        read_half: Some(read_half),
        thread,
    });
}

/// The broken variant: the flag is checked once, before the connection
/// is spawned and registered.
fn accept_without_recheck(registry: &Mutex<Registry>, stop: &Arc<AtomicUsize>) {
    if stop.load() == 1 {
        return;
    }
    let (read_half, thread) = spawn_connection();
    let mut reg = registry.lock();
    reg.registered_after_sweep |= reg.swept;
    reg.conns.push(Conn {
        read_half: Some(read_half),
        thread,
    });
}

/// `Frontend::stop`: set the flag, then sweep the registry, shutting
/// every registered connection's read half.
fn stop(registry: &Mutex<Registry>, stop: &AtomicUsize) {
    stop.store(1);
    let mut reg = registry.lock();
    for conn in &mut reg.conns {
        drop(conn.read_half.take());
    }
    reg.swept = true;
}

/// Accept racing stop, then the drain: join every registered
/// connection thread.
fn model(accept_step: fn(&Mutex<Registry>, &Arc<AtomicUsize>)) {
    let registry = Arc::new(Mutex::new(Registry::default()));
    let flag = Arc::new(AtomicUsize::new(0));
    let acceptor = {
        let (registry, flag) = (Arc::clone(&registry), Arc::clone(&flag));
        sched::spawn(move || accept_step(&registry, &flag))
    };
    stop(&registry, &flag);
    acceptor.join();
    let (conns, after_sweep) = {
        let mut reg = registry.lock();
        (std::mem::take(&mut reg.conns), reg.registered_after_sweep)
    };
    for conn in conns {
        conn.thread.join();
    }
    assert!(!after_sweep, "a connection was registered after the sweep");
}

#[test]
fn a_connection_racing_stop_is_refused_or_woken() {
    let s = Builder::new().max_runs(100_000).explore(|| model(accept));
    assert!(s.failure.is_none(), "{:?}", s.failure);
    assert!(!s.truncated, "space should be exhaustible: {} runs", s.runs);
}

#[test]
fn registering_without_the_recheck_strands_a_connection_thread() {
    let s = Builder::new()
        .max_runs(100_000)
        .explore(|| model(accept_without_recheck));
    match s.failure {
        Some(Failure::Deadlock { ref detail }) => {
            assert!(detail.contains("blocked"), "{detail}");
        }
        other => panic!(
            "the lost wake must be found as a blocked-forever connection thread, got {other:?} after {} runs",
            s.runs
        ),
    }
}
