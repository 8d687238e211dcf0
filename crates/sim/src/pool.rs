//! Reusable rank-thread pools.
//!
//! A tuning sweep calls [`crate::run_simulation`] hundreds of times; spawning
//! and joining one OS thread per rank per call costs thousands of
//! spawn/join cycles per sweep. A [`SimPool`] keeps the rank threads alive
//! between simulations: each run dispatches one job per rank to the pool's
//! persistent workers and blocks until every rank reports back.
//!
//! Workers never unwind across the job boundary (each job catches its
//! rank's panic), so a pool survives failed simulations and is reused.
//!
//! [`crate::run_simulation`] checks pools out of a process-wide registry
//! keyed by `(ranks, stack_size)` through a [`PoolLease`], so callers —
//! including concurrent tuning-sweep workers, each of which gets its *own*
//! pool — reuse threads transparently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};

use parking_lot::Mutex;

/// A type-erased unit of rank work, run exactly once on its rank's thread.
pub(crate) type RankJob = Box<dyn FnOnce() + Send>;

/// A pool of persistent rank threads, one per simulated rank.
struct SimPool {
    ranks: usize,
    stack_size: usize,
    senders: Vec<mpsc::Sender<RankJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl SimPool {
    /// Spawn a pool of `ranks` worker threads with the given stack size.
    fn new(ranks: usize, stack_size: usize) -> Self {
        static POOL_SEQ: AtomicU64 = AtomicU64::new(0);
        let id = POOL_SEQ.fetch_add(1, Ordering::Relaxed);
        assert!(ranks > 0, "a pool needs at least one rank thread");
        let mut senders = Vec::with_capacity(ranks);
        let mut handles = Vec::with_capacity(ranks);
        for rank in 0..ranks {
            let (tx, rx) = mpsc::channel::<RankJob>();
            let handle = std::thread::Builder::new()
                .name(format!("sim-pool-{id}-rank-{rank}"))
                .stack_size(stack_size)
                .spawn(move || {
                    // Jobs catch their own panics, so this loop only exits
                    // when the pool drops its sender.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn pool rank thread");
            senders.push(tx);
            handles.push(handle);
        }
        SimPool { ranks, stack_size, senders, handles }
    }
}

impl Drop for SimPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops; join so thread
        // resources are reclaimed deterministically.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Idle pools parked for reuse, keyed by `(ranks, stack_size)`.
type PoolRegistry = Mutex<HashMap<(usize, usize), Vec<SimPool>>>;

/// Process-wide registry of idle pools, keyed by `(ranks, stack_size)`.
fn registry() -> &'static PoolRegistry {
    static REGISTRY: OnceLock<PoolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// An exclusive lease on a pooled set of rank threads; returns the pool to
/// the registry on drop (including on unwind, so a panicking launch does not
/// leak its threads).
pub(crate) struct PoolLease {
    pool: Option<SimPool>,
}

impl PoolLease {
    /// Check a pool out of the registry, spawning one if none is idle.
    pub(crate) fn checkout(ranks: usize, stack_size: usize) -> Self {
        let pooled = registry().lock().get_mut(&(ranks, stack_size)).and_then(Vec::pop);
        PoolLease { pool: Some(pooled.unwrap_or_else(|| SimPool::new(ranks, stack_size))) }
    }

    /// Send one job to each rank thread. The lease must be held until every
    /// job has reported (the pool must not return to the registry while jobs
    /// are still in flight on its threads).
    pub(crate) fn dispatch(&self, jobs: Vec<RankJob>) {
        let pool = self.pool.as_ref().expect("pool held until drop");
        assert_eq!(jobs.len(), pool.ranks, "one job per rank thread");
        for (sender, job) in pool.senders.iter().zip(jobs) {
            // `send` only fails if a worker thread died, and workers cannot
            // die: jobs catch all panics.
            sender.send(job).expect("pool worker alive");
        }
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            registry().lock().entry((pool.ranks, pool.stack_size)).or_default().push(pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Run one thread-id-reporting job per rank on `lease`.
    fn thread_ids(lease: &PoolLease, ranks: usize) -> Vec<std::thread::ThreadId> {
        let (tx, rx) = channel();
        let jobs = (0..ranks)
            .map(|rank| {
                let tx = tx.clone();
                Box::new(move || tx.send((rank, std::thread::current().id())).unwrap()) as RankJob
            })
            .collect();
        lease.dispatch(jobs);
        let mut ids: Vec<_> = rx.iter().take(ranks).collect();
        ids.sort_by_key(|&(rank, _)| rank);
        ids.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn lease_checkout_spawns_then_reuses() {
        // Unique shape → private registry slot, immune to sibling tests.
        let (ranks, stack) = (2, (1 << 20) + 0x1EA5E);
        let first = thread_ids(&PoolLease::checkout(ranks, stack), ranks);
        assert_eq!(first.len(), 2);
        assert_ne!(first[0], first[1], "one thread per rank");
        let second = thread_ids(&PoolLease::checkout(ranks, stack), ranks);
        assert_eq!(first, second, "second checkout must return the pool the first lease parked");
    }

    #[test]
    fn concurrent_leases_of_one_shape_get_distinct_pools() {
        let (ranks, stack) = (2, (1 << 20) + 0xACC7);
        let (a, b) = (PoolLease::checkout(ranks, stack), PoolLease::checkout(ranks, stack));
        let (ids_a, ids_b) = (thread_ids(&a, ranks), thread_ids(&b, ranks));
        assert!(ids_a.iter().all(|id| !ids_b.contains(id)), "live leases never share threads");
    }

    #[test]
    fn lease_returns_pool_to_registry_on_unwind() {
        let (ranks, stack) = (2, (1 << 20) + 0xD509);
        let mut seen = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let lease = PoolLease::checkout(ranks, stack);
            seen = thread_ids(&lease, ranks);
            panic!("launch exploded while the lease was live");
        }));
        assert!(result.is_err());
        let again = thread_ids(&PoolLease::checkout(ranks, stack), ranks);
        assert_eq!(seen, again, "checkout after the unwind must reuse the same threads");
    }
}
