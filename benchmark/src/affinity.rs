//! Thread placement. Left to the scheduler on two cores, a process
//! starts with its threads packed on one core and is spread over both
//! some seconds later, for good; a wake-up across cores costs several
//! times one within a core in this VM, so the same work then costs half
//! as much CPU again (`rpc_wide`: 48 ms of CPU per query packed, 75 ms
//! spread, switching inside a run, while a pure-CPU loop timed beside it
//! stays flat). A run measured whichever mix it drew. Every run is
//! therefore confined to one CPU, load generator and system together:
//! the smallest deployment, and the one placement that is the same in
//! every run (README, "One CPU").

/// Words in the CPU masks passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, ascending.
fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable for the `size_of_val(&mask)` bytes
    // passed as its size, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and so every thread started from it
/// afterwards, to the first CPU it may run on. Call on the main thread
/// before any other thread exists.
pub fn confine_to_one_cpu() {
    let cpu = allowed()[0];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable for the `size_of_val(&mask)` bytes
    // passed as its size, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_started_after_confinement_inherit_it() {
        // On a thread of its own: the test harness's threads stay free.
        std::thread::spawn(|| {
            let before = allowed();
            confine_to_one_cpu();
            assert_eq!(allowed(), vec![before[0]]);
            let inherited = std::thread::spawn(allowed).join().expect("thread joins");
            assert_eq!(inherited, vec![before[0]]);
        })
        .join()
        .expect("thread joins");
    }
}
