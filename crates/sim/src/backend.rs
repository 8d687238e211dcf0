//! Communicator backends: how simulated ranks are scheduled onto OS
//! execution resources, and the single launch path of a simulation run.
//!
//! The simulator's determinism contract (see [`crate`] docs) makes the
//! *virtual* results — clocks, cost draws, reports — a pure function of the
//! program and the machine model. How rank programs are *scheduled* is
//! therefore a free choice between two modes, [`BackendKind`]:
//!
//! * [`BackendKind::Threads`] — the classic shape: one OS thread per rank,
//!   all runnable at once, the kernel schedules them preemptively. Best
//!   latency at small rank counts.
//! * [`BackendKind::Tasks`] — ranks as cooperatively scheduled coroutines:
//!   each rank still owns a leased thread (its coroutine stack), but a
//!   worker-permit semaphore bounds how many are *runnable* to a small
//!   worker budget. A rank parks on an unmatched recv/collective
//!   (releasing its permit to the next runnable rank) and resumes on match.
//!   With the runnable set bounded, 10k+ simulated ranks fit in one process
//!   without drowning the kernel scheduler in contending threads.
//!
//! The modes differ by that permit count and nothing else: both lease one idle
//! thread per rank from the process-wide free list, send each an owned job,
//! collect the results on one channel and drive the same sharded matching
//! core. The testkit's `backend_equivalence` oracles assert that reports,
//! traces, and metrics are byte-identical across backends and shard counts.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

use critter_machine::MachineModel;
use parking_lot::{Condvar, Mutex};

use crate::core::SimCore;
use crate::counters::RankCounters;
use crate::ctx::RankCtx;
use crate::pool::{RankJob, Workers};
use crate::runner::{SimConfig, SimReport};

/// Which backend hosts the simulated ranks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// One preemptively scheduled OS thread per rank (the default).
    #[default]
    Threads,
    /// Cooperatively scheduled rank coroutines over a bounded worker budget.
    Tasks,
}

impl BackendKind {
    /// Every selectable backend, in a fixed order (test matrices).
    pub const ALL: [BackendKind; 2] = [BackendKind::Threads, BackendKind::Tasks];

    /// Stable lowercase name (CLI flag value, artifact labels).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Threads => "threads",
            BackendKind::Tasks => "tasks",
        }
    }

    /// Worker permits bounding the runnable rank set of one run: `None` for
    /// preemptive thread-per-rank execution, the host's available
    /// parallelism for `tasks`.
    fn permits(self) -> Option<usize> {
        match self {
            BackendKind::Threads => None,
            BackendKind::Tasks => {
                Some(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
            }
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL.into_iter().find(|kind| kind.name() == s).ok_or_else(|| {
            format!("unknown backend `{s}` (one of: {})", Self::ALL.map(Self::name).join(", "))
        })
    }
}

/// Permit semaphore bounding how many rank coroutines are runnable at once
/// (the `tasks` backend's cooperative scheduler).
///
/// A rank acquires one permit before executing program code and holds it
/// while runnable. The matching core's wait sites release the permit before
/// parking on a condvar and reacquire it after waking, so a parked rank
/// costs only its (idle) stack — the worker budget flows to ranks that can
/// make progress.
pub(crate) struct TaskScheduler {
    free: Mutex<usize>,
    cv: Condvar,
}

impl TaskScheduler {
    pub(crate) fn new(permits: usize) -> Self {
        assert!(permits > 0, "the task scheduler needs at least one worker permit");
        TaskScheduler { free: Mutex::new(permits), cv: Condvar::new() }
    }

    /// Block until a permit is free, then take it. Panics with the standard
    /// poison cascade if the run was poisoned — [`SimCore::poison`] wakes
    /// this condvar, so permit waiters never outlive a failed run.
    pub(crate) fn acquire(&self, poisoned: &AtomicBool) {
        let mut free = self.free.lock();
        loop {
            if poisoned.load(Ordering::SeqCst) {
                panic!("simulation aborted: a peer rank panicked");
            }
            if *free > 0 {
                *free -= 1;
                return;
            }
            self.cv.wait(&mut free);
        }
    }

    pub(crate) fn release(&self) {
        let mut free = self.free.lock();
        *free += 1;
        self.cv.notify_one();
    }

    /// Wake every permit waiter so they observe the poison flag. Takes the
    /// permit lock first: a waiter that checked the flag and is about to
    /// park must either see the flag or be registered on the condvar before
    /// the notification, never neither.
    pub(crate) fn poison_wake(&self) {
        let _guard = self.free.lock();
        self.cv.notify_all();
    }
}

/// What one rank produced: its program output, final clock, and counters —
/// or the panic payload that aborted it.
type RankResult<R> = Result<(R, f64, RankCounters), Box<dyn Any + Send>>;

/// Counts its rank out of the live ranks when the job is dropped, run or
/// not, so peers never wait forever on a rank that did not start.
struct RankExit(Arc<SimCore>);

impl Drop for RankExit {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// The single launch path of [`crate::run_simulation`]: lease one idle thread
/// per rank from `workers`, send each an owned job, and read `(rank, result)`
/// pairs off one channel until every job has dropped its sender.
pub(crate) fn execute_ranks<R, F>(
    config: &SimConfig,
    machine: Arc<MachineModel>,
    program: F,
    workers: &Workers,
) -> SimReport<R>
where
    R: Send + 'static,
    F: Fn(&mut RankCtx) -> R + Send + Sync + 'static,
{
    assert!(config.ranks > 0, "simulation requires at least one rank");
    assert_eq!(
        machine.topology().ranks(),
        config.ranks,
        "machine model rank count must match the simulation"
    );
    let ranks = config.ranks;
    let sched = config.backend.permits().map(|n| Arc::new(TaskScheduler::new(n)));
    let core = Arc::new(SimCore::new(Arc::clone(&machine), config, sched));
    let program = Arc::new(program);
    let (tx, rx) = mpsc::channel::<(usize, RankResult<R>)>();

    let lease = workers.lease(ranks);
    lease.dispatch((0..ranks).map(|rank| {
        let (exit, program, tx) = (RankExit(Arc::clone(&core)), Arc::clone(&program), tx.clone());
        Box::new(move || {
            let RankExit(core) = &exit;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // Under the tasks backend a rank must hold a worker permit
                // before running program code; acquisition panics (inside
                // this catch) if a peer already poisoned the run.
                core.sched_acquire();
                let mut ctx = RankCtx::new(rank, ranks, Arc::clone(core));
                let out = program(&mut ctx);
                let (clock, counters) = ctx.into_parts();
                (out, clock, counters)
            }));
            // Hand the permit back whether the program returned or panicked.
            // A rank that unwound while *parked* (a poisoned or stuck run
            // woke it without a permit) over-releases by one — harmless,
            // because releases only matter to this run's scheduler and the
            // run is already dying.
            core.sched_release();
            if result.is_err() {
                // Unblock peers before reporting, and before `exit` counts
                // this rank out, so a panic is never taken for a deadlock.
                core.poison();
            }
            let _ = tx.send((rank, result));
        }) as RankJob
    }));
    drop(tx);
    // The channel closes once every job has finished or was dropped unrun;
    // only then do the leased threads go back on the free list.
    let mut results: Vec<_> = rx.iter().collect();
    drop(lease);
    assert_eq!(results.len(), ranks, "every rank reported");
    results.sort_unstable_by_key(|&(rank, _)| rank);

    let mut outputs = Vec::with_capacity(ranks);
    let mut rank_times = Vec::with_capacity(ranks);
    let mut counters = Vec::with_capacity(ranks);
    let mut panic_payload: Option<(Box<dyn Any + Send>, bool)> = None;
    for (_, result) in results {
        match result {
            Ok((out, clock, ctrs)) => {
                outputs.push(out);
                rank_times.push(clock);
                counters.push(ctrs);
            }
            Err(payload) => {
                // Re-raise the root cause: prefer any panic that is not
                // the secondary "peer rank panicked" cascade.
                let text = payload.downcast_ref::<String>().map(String::as_str);
                let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
                let is_cascade = text.is_some_and(|s| s.contains("a peer rank panicked"));
                let replace = match &panic_payload {
                    None => true,
                    Some((_, prev_is_cascade)) => *prev_is_cascade && !is_cascade,
                };
                if replace {
                    panic_payload = Some((payload, is_cascade));
                }
            }
        }
    }
    if let Some((payload, _)) = panic_payload {
        std::panic::resume_unwind(payload);
    }
    SimReport { outputs, rank_times, counters }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip_through_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("fibers".parse::<BackendKind>().is_err());
    }

    #[test]
    fn threads_is_the_default_backend() {
        assert_eq!(BackendKind::default(), BackendKind::Threads);
    }

    #[test]
    fn task_scheduler_bounds_runnable_permits() {
        let sched = TaskScheduler::new(2);
        let poisoned = AtomicBool::new(false);
        sched.acquire(&poisoned);
        sched.acquire(&poisoned);
        assert_eq!(*sched.free.lock(), 0);
        sched.release();
        sched.acquire(&poisoned);
        sched.release();
        sched.release();
        assert_eq!(*sched.free.lock(), 2);
    }

    #[test]
    fn poisoned_acquire_panics_instead_of_waiting() {
        let sched = TaskScheduler::new(1);
        let poisoned = AtomicBool::new(true);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| sched.acquire(&poisoned)))
            .expect_err("acquire on a poisoned run must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("a peer rank panicked"));
    }

    #[test]
    fn only_tasks_bounds_the_runnable_set_by_available_parallelism() {
        assert_eq!(BackendKind::Threads.permits(), None);
        assert!(BackendKind::Tasks.permits().expect("tasks always schedules") >= 1);
    }
}
