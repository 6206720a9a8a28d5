//! A counting global allocator for the allocation gates
//! (`zero_alloc.rs`, `work_budget.rs`).
//!
//! The counter only bumps while the measuring thread holds it armed (a
//! `const`-init thread-local flag, safe to read inside the allocator
//! because a `Cell<bool>` has no destructor and no lazy allocation), so
//! libtest's own threads (output capture, progress events) can't poison
//! a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocation events (alloc + realloc + alloc_zeroed) observed
/// while [`ARMED`] was set on the allocating thread.
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the measuring thread, only inside the measured
    /// window: allocations on any other thread are someone else's.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_armed() {
    ARMED.with(|armed| {
        if armed.get() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// `System`, plus a counter bump on every path that can return fresh
/// memory while the calling thread is armed. Deallocations are not
/// counted: the gates are about not *acquiring* memory.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// gated on a const-init thread-local `Cell` (no alloc, no reentrancy).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Arms (or disarms) counting on the calling thread.
pub fn arm(on: bool) {
    ARMED.with(|armed| armed.set(on));
}

/// Allocation events counted so far, on every armed thread.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::SeqCst)
}
