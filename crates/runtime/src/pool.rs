//! Interned constant vectors for the per-query path.
//!
//! The steady-state service path should not allocate per query. Once
//! the prepared-context cache removes the setup cost, the one remaining
//! per-query allocation would be the all-ones partial-value vector
//! (`vec![1.0; n]`) built for every query that does not supply explicit
//! values — identical for every query against the same tree shape.
//! [`ones`] interns it by length: process-wide and lock-cheap, one
//! uncontended mutex probe per query, keyed by a machine word through
//! FxHash.

use cedar_core::LockExt;
use cedar_mathx::fxhash::FxHashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Interned `ones` vectors kept before a wholesale reset; real
/// deployments see a handful of tree shapes, so 32 distinct process
/// counts means the workload is churning shapes and caching is moot.
const ONES_CACHE_MAX: usize = 32;

/// Returns the interned all-ones vector of length `n`.
///
/// The first call for a given `n` allocates and caches; every later
/// call is a map probe returning a clone of the `Arc`. Queries that
/// run with default partial values share one allocation per tree
/// shape for the life of the process.
pub fn ones(n: usize) -> Arc<Vec<f64>> {
    static CACHE: OnceLock<Mutex<FxHashMap<usize, Arc<Vec<f64>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(FxHashMap::default()));
    let mut map = cache.lock().unpoisoned();
    if let Some(hit) = map.get(&n) {
        return Arc::clone(hit);
    }
    if map.len() >= ONES_CACHE_MAX {
        map.clear();
    }
    let fresh = Arc::new(vec![1.0; n]);
    map.insert(n, Arc::clone(&fresh));
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_are_interned_per_length() {
        let a = ones(128);
        let b = ones(128);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one buffer");
        assert_eq!(a.len(), 128);
        assert!(a.iter().all(|&v| v == 1.0));
        let c = ones(64);
        assert_eq!(c.len(), 64);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn ones_cache_overflow_resets_but_stays_correct() {
        for n in 1..=(ONES_CACHE_MAX * 2 + 3) {
            let v = ones(n);
            assert_eq!(v.len(), n);
            assert!(v.iter().all(|&x| x == 1.0));
        }
    }
}
