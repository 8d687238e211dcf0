//! `parallel_map` must preserve input order and run every item exactly once
//! at any job count — the figure binaries rely on it when they fan sweeps
//! out over a thread pool and zip results back against the spec list.

use std::sync::atomic::{AtomicUsize, Ordering};

use critter_bench::parallel_map;
use proptest::prelude::*;

proptest! {
    /// Order preservation and exactly-once execution at any job count,
    /// including jobs > items and the serial fast path.
    #[test]
    fn parallel_map_matches_serial_map(len in 0usize..65, jobs in 1usize..9) {
        let items: Vec<usize> = (0..len).collect();
        let calls = AtomicUsize::new(0);
        let mapped = parallel_map(&items, jobs, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x.wrapping_mul(31) ^ 7
        });
        let expected: Vec<usize> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        prop_assert_eq!(mapped, expected);
        prop_assert_eq!(calls.load(Ordering::Relaxed), len);
    }
}
