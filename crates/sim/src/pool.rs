//! The free list of idle rank threads.
//!
//! A tuning sweep calls [`crate::run_simulation`] hundreds of times; spawning
//! and joining one OS thread per rank per call costs thousands of
//! spawn/join cycles per sweep. [`Workers`] keeps idle rank threads alive
//! between simulations instead: a launch leases one thread per rank, sends
//! each one job, and the [`Lease`] pushes the threads back on drop.
//!
//! A worker is the sending end of its thread's job channel. Workers never
//! unwind across the job boundary (each job catches its rank's panic), so a
//! thread survives failed simulations and is reused. Every thread has the same
//! 8 MiB stack, which Capital's recursive Cholesky needs, so launches of any
//! rank count share one list, and concurrent launches — tuning-sweep workers —
//! never share a thread while in flight.
//!
//! Each idle worker remembers the thread that launched it last, and a lease
//! takes that launcher's own workers first. A sweep then keeps its ranks on
//! the same threads, and so its rank memory in the same allocator arenas:
//! interleaving two concurrent sweeps over one LIFO list made `critter-serve`'s
//! small checkpointed jobs about 13 % slower on a 2-core host.

use std::sync::mpsc;
use std::thread::ThreadId;

use parking_lot::Mutex;

/// A type-erased unit of rank work, run exactly once on its rank's thread.
pub(crate) type RankJob = Box<dyn FnOnce() + Send>;

/// Stack size of every rank thread: the Linux default for main threads.
const STACK_SIZE: usize = 8 << 20;

/// Idle rank threads, each represented by the sender of its job channel and
/// tagged with the thread that launched it last.
#[derive(Default)]
pub(crate) struct Workers {
    idle: Mutex<Vec<(ThreadId, mpsc::Sender<RankJob>)>>,
}

/// The process-wide free list every [`crate::run_simulation`] leases from.
pub(crate) static WORKERS: Workers = Workers { idle: Mutex::new(Vec::new()) };

impl Workers {
    /// Take `n` idle threads off the list, the calling launcher's own first,
    /// spawning any shortfall outside the lock.
    pub(crate) fn lease(&self, n: usize) -> Lease<'_> {
        let launcher = std::thread::current().id();
        let mut workers: Vec<_> = {
            let mut idle = self.idle.lock();
            // A stable sort moves this launcher's workers to the end, in order.
            idle.sort_by_key(|&(last, _)| last == launcher);
            let keep = idle.len().saturating_sub(n);
            idle.drain(keep..).map(|(_, worker)| worker).collect()
        };
        workers.extend((workers.len()..n).map(|_| spawn_worker()));
        Lease { free_list: self, launcher, workers }
    }
}

/// Spawn one rank thread and return the sender of its job channel.
fn spawn_worker() -> mpsc::Sender<RankJob> {
    let (tx, rx) = mpsc::channel::<RankJob>();
    std::thread::Builder::new()
        .name("sim-rank".into())
        .stack_size(STACK_SIZE)
        // Jobs catch their own panics, so this loop only exits when the
        // worker's sender is dropped.
        .spawn(move || rx.iter().for_each(|job| job()))
        .expect("failed to spawn rank thread");
    tx
}

/// An exclusive lease on rank threads; pushes them back onto the free list on
/// drop (including on unwind, so a panicking launch does not leak them).
pub(crate) struct Lease<'a> {
    free_list: &'a Workers,
    launcher: ThreadId,
    workers: Vec<mpsc::Sender<RankJob>>,
}

impl Lease<'_> {
    /// Send one job to each leased thread, in order. Drop the lease only once
    /// every job has finished, so no thread is leased twice while busy.
    pub(crate) fn dispatch(&self, jobs: impl IntoIterator<Item = RankJob>) {
        for (worker, job) in self.workers.iter().zip(jobs) {
            // A send fails only if the thread exited, and threads do not exit
            // while their sender lives. A job that fails to send is dropped,
            // and with it the job's result sender.
            let _ = worker.send(job);
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        let launcher = self.launcher;
        self.free_list.idle.lock().extend(self.workers.drain(..).map(|w| (launcher, w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    /// Run one thread-id-reporting job per leased thread.
    fn thread_ids(lease: &Lease<'_>, ranks: usize) -> Vec<std::thread::ThreadId> {
        let (tx, rx) = channel();
        lease.dispatch((0..ranks).map(|rank| {
            let tx = tx.clone();
            Box::new(move || tx.send((rank, std::thread::current().id())).unwrap()) as RankJob
        }));
        let mut ids: Vec<_> = rx.iter().take(ranks).collect();
        ids.sort_by_key(|&(rank, _)| rank);
        ids.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn lease_spawns_then_reuses() {
        let workers = Workers::default();
        let first = thread_ids(&workers.lease(2), 2);
        assert_ne!(first[0], first[1], "one thread per rank");
        let second = thread_ids(&workers.lease(2), 2);
        assert_eq!(first, second, "the next lease must reuse the threads the first parked");
    }

    #[test]
    fn live_leases_never_share_a_thread() {
        let workers = Workers::default();
        drop(workers.lease(3));
        let (a, b) = (workers.lease(2), workers.lease(2));
        let (ids_a, ids_b) = (thread_ids(&a, 2), thread_ids(&b, 2));
        assert!(ids_a.iter().all(|id| !ids_b.contains(id)), "live leases never share threads");
    }

    #[test]
    fn a_launcher_gets_its_own_threads_back_first() {
        let workers = Workers::default();
        let mine = workers.lease(2);
        let ids = thread_ids(&mine, 2);
        // Another launcher returns its threads after this one, so they sit on
        // top of the list.
        std::thread::scope(|s| {
            let ((leased_tx, leased_rx), (go_tx, go_rx)) = (channel(), channel::<()>());
            let workers = &workers;
            s.spawn(move || {
                let theirs = workers.lease(2);
                leased_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                drop(theirs);
            });
            leased_rx.recv().unwrap();
            drop(mine);
            go_tx.send(()).unwrap();
        });
        assert_eq!(thread_ids(&workers.lease(2), 2), ids, "the launcher's own threads come first");
    }

    #[test]
    fn lease_returns_threads_on_unwind() {
        let workers = Workers::default();
        let mut seen = Vec::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let lease = workers.lease(2);
            seen = thread_ids(&lease, 2);
            panic!("launch exploded while the lease was live");
        }));
        assert!(result.is_err());
        let again = thread_ids(&workers.lease(2), 2);
        assert_eq!(seen, again, "a lease after the unwind must reuse the same threads");
    }
}
