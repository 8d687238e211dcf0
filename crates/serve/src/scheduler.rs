//! The multi-tenant job scheduler: a priority queue with per-tenant
//! quotas and checkpoint-consistent preemption, feeding sweeps into the
//! session engine.
//!
//! The scheduling rules live in [`SchedCore`], a pure (lock-free,
//! thread-free) state machine the property tests drive directly; the
//! [`Scheduler`] wraps it in a mutex/condvar and a worker pool. The rules:
//!
//! * **Admission** — a submission is rejected with a typed 429 when the
//!   shared queue is full (`backpressure`) or the tenant is at its queued
//!   quota or asks for more rank threads than its rank quota allows
//!   (`quota_exceeded`). Rejections never panic and never 5xx.
//! * **Dispatch** — a free worker takes the highest-priority queued job
//!   whose tenant is under its running-job and rank-thread quotas; ties
//!   break by submission order. Rank threads are the [`critter_sim`]
//!   pool-lease currency: one running job leases `spec.ranks()` threads.
//! * **Preemption** — when every worker is busy, a submission with higher
//!   priority than some running job flags the lowest-priority victim. The
//!   victim's progress hook returns [`ProgressVerdict::Preempt`] at the
//!   next committed unit boundary, the session engine checkpoints and
//!   returns `Preempted`, and the job re-enters the queue *keeping its
//!   original submission order* — when it runs again it resumes from the
//!   checkpoint and produces a byte-identical report (the PR 4/8
//!   kill-resume proof obligation, exercised without a kill).
//! * **Cancellation** — cancelling a queued job removes it from the queue
//!   immediately and rolls back its tenant's queued-quota slot, so a
//!   tenant at quota can cancel-and-resubmit; cancelling a running job
//!   sets its cancel flag, observed at the next unit boundary.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use critter_autotune::{Autotuner, ProgressVerdict, SessionConfig};
use critter_session::durable::write_atomic;
use parking_lot::{Condvar, Mutex};

use crate::error::ServeError;
use crate::job::{remove_resume_state, JobState, Registry};

/// Per-tenant admission limits; `0` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Max jobs a tenant may have waiting in the queue.
    pub max_queued: usize,
    /// Max jobs a tenant may have running at once.
    pub max_running: usize,
    /// Max simulated rank threads a tenant's running jobs may lease from
    /// the shared rank-thread pool registry at once.
    pub max_ranks: usize,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig { max_queued: 16, max_running: 2, max_ranks: 0 }
    }
}

/// What the scheduler needs to know about one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTicket {
    /// Job id (`job-000001`).
    pub id: String,
    /// Quota-accounting tenant.
    pub tenant: String,
    /// Scheduling priority (`0..=9`, higher first).
    pub priority: u8,
    /// Rank threads one run leases (`JobSpec::ranks()`).
    pub ranks: usize,
}

/// Live per-tenant usage, as reported by `GET /v1/tenants`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Jobs waiting in the queue (including preempted jobs).
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Rank threads those running jobs lease.
    pub running_ranks: usize,
}

#[derive(Debug)]
struct QueuedJob {
    ticket: JobTicket,
    /// Submission order; preserved across preemption so a preempted job
    /// does not lose its place to later same-priority submissions.
    seq: u64,
}

#[derive(Debug)]
struct RunningJob {
    ticket: JobTicket,
    seq: u64,
    preempt: Arc<AtomicBool>,
}

/// The pure scheduling state machine (no locks, no threads): queue,
/// running set, and per-tenant accounting. Public so the property-test
/// oracle can drive arbitrary interleavings against the same code the
/// daemon runs.
#[derive(Debug)]
pub struct SchedCore {
    queue_capacity: usize,
    quota: QuotaConfig,
    next_seq: u64,
    queue: Vec<QueuedJob>,
    running: BTreeMap<String, RunningJob>,
    tenants: BTreeMap<String, TenantUsage>,
}

impl SchedCore {
    /// An empty core with the given shared-queue bound and tenant quotas.
    pub fn new(queue_capacity: usize, quota: QuotaConfig) -> SchedCore {
        SchedCore {
            queue_capacity: queue_capacity.max(1),
            quota,
            next_seq: 0,
            queue: Vec::new(),
            running: BTreeMap::new(),
            tenants: BTreeMap::new(),
        }
    }

    /// The quotas in force.
    pub fn quota(&self) -> QuotaConfig {
        self.quota
    }

    /// Jobs waiting in the queue.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs currently dispatched to workers.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Snapshot of every tenant's live usage (zero-usage tenants pruned).
    pub fn usage(&self) -> BTreeMap<String, TenantUsage> {
        self.tenants.clone()
    }

    fn usage_mut(&mut self, tenant: &str) -> &mut TenantUsage {
        self.tenants.entry(tenant.to_string()).or_default()
    }

    fn prune(&mut self, tenant: &str) {
        if self.tenants.get(tenant).is_some_and(|u| *u == TenantUsage::default()) {
            self.tenants.remove(tenant);
        }
    }

    /// Admit a submission, or reject it with the typed 429 the HTTP layer
    /// serves verbatim: `backpressure` for the shared queue bound,
    /// `quota_exceeded` for per-tenant limits.
    pub fn submit(&mut self, ticket: JobTicket) -> Result<(), ServeError> {
        if self.queue.len() >= self.queue_capacity {
            return Err(ServeError::Backpressure(format!(
                "job queue is full; job `{}` rejected, retry later",
                ticket.id
            )));
        }
        let quota = self.quota;
        if quota.max_ranks > 0 && ticket.ranks > quota.max_ranks {
            return Err(ServeError::QuotaExceeded(format!(
                "job `{}` needs {} rank threads but tenant `{}` may lease at most {}",
                ticket.id, ticket.ranks, ticket.tenant, quota.max_ranks
            )));
        }
        let usage = self.usage_mut(&ticket.tenant);
        if quota.max_queued > 0 && usage.queued >= quota.max_queued {
            let detail = format!(
                "tenant `{}` already has {} queued jobs (max {}); job `{}` rejected",
                ticket.tenant, usage.queued, quota.max_queued, ticket.id
            );
            self.prune(&ticket.tenant);
            return Err(ServeError::QuotaExceeded(detail));
        }
        usage.queued += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedJob { ticket, seq });
        Ok(())
    }

    /// Admit a job recovered at restart: it was accepted before the
    /// crash, so it bypasses the queue bound and quota checks.
    pub fn admit_recovered(&mut self, ticket: JobTicket) {
        self.usage_mut(&ticket.tenant).queued += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedJob { ticket, seq });
    }

    /// Whether a queued job's tenant is under its running quotas.
    fn eligible(&self, ticket: &JobTicket) -> bool {
        let usage = self.tenants.get(&ticket.tenant).copied().unwrap_or_default();
        let under_running = self.quota.max_running == 0 || usage.running < self.quota.max_running;
        let under_ranks =
            self.quota.max_ranks == 0 || usage.running_ranks + ticket.ranks <= self.quota.max_ranks;
        under_running && under_ranks
    }

    /// The queue index a free worker should take next: the eligible job
    /// with the highest priority, ties broken by submission order. `None`
    /// when the queue is empty or every queued tenant is at quota.
    pub fn pick(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .filter(|(_, qj)| self.eligible(&qj.ticket))
            .max_by(|(_, a), (_, b)| {
                (a.ticket.priority, std::cmp::Reverse(a.seq))
                    .cmp(&(b.ticket.priority, std::cmp::Reverse(b.seq)))
            })
            .map(|(idx, _)| idx)
    }

    /// Move the picked job to the running set and hand back its ticket
    /// plus the preempt flag its progress hook must observe.
    pub fn dispatch(&mut self) -> Option<(JobTicket, Arc<AtomicBool>)> {
        let idx = self.pick()?;
        let QueuedJob { ticket, seq } = self.queue.remove(idx);
        let usage = self.usage_mut(&ticket.tenant);
        usage.queued -= 1;
        usage.running += 1;
        usage.running_ranks += ticket.ranks;
        let preempt = Arc::new(AtomicBool::new(false));
        self.running.insert(
            ticket.id.clone(),
            RunningJob { ticket: ticket.clone(), seq, preempt: preempt.clone() },
        );
        Some((ticket, preempt))
    }

    /// A running job reached a terminal state: release its worker slot
    /// and its tenant's running/rank accounting.
    pub fn complete(&mut self, id: &str) {
        let Some(run) = self.running.remove(id) else { return };
        let usage = self.usage_mut(&run.ticket.tenant);
        usage.running -= 1;
        usage.running_ranks -= run.ticket.ranks;
        self.prune(&run.ticket.tenant);
    }

    /// A running job yielded to preemption: put it back in the queue with
    /// its original submission order (quota checks do not re-apply — the
    /// job was already admitted).
    pub fn requeue_preempted(&mut self, id: &str) {
        let Some(run) = self.running.remove(id) else { return };
        let usage = self.usage_mut(&run.ticket.tenant);
        usage.running -= 1;
        usage.running_ranks -= run.ticket.ranks;
        usage.queued += 1;
        self.queue.push(QueuedJob { ticket: run.ticket, seq: run.seq });
    }

    /// Remove a still-queued job (cancellation): rolls back the tenant's
    /// queued-quota slot so the tenant can submit again immediately.
    /// Returns false if the job is not in the queue (already dispatched).
    pub fn take_queued(&mut self, id: &str) -> bool {
        let Some(idx) = self.queue.iter().position(|qj| qj.ticket.id == id) else {
            return false;
        };
        let QueuedJob { ticket, .. } = self.queue.remove(idx);
        self.usage_mut(&ticket.tenant).queued -= 1;
        self.prune(&ticket.tenant);
        true
    }

    /// Flag the preemption victim for an incoming job of `priority`, if
    /// one exists: the running job with the lowest priority strictly below
    /// `priority` (latest submission loses ties) that is not already being
    /// preempted. Returns whether a victim was flagged.
    pub fn preempt_victim(&mut self, priority: u8) -> bool {
        let victim = self
            .running
            .values()
            .filter(|r| r.ticket.priority < priority && !r.preempt.load(Ordering::SeqCst))
            .max_by(|a, b| {
                (std::cmp::Reverse(a.ticket.priority), a.seq)
                    .cmp(&(std::cmp::Reverse(b.ticket.priority), b.seq))
            });
        match victim {
            Some(run) => {
                run.preempt.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }
}

/// The bounded multi-tenant job queue plus its worker threads.
pub struct Scheduler {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
}

struct SchedState {
    core: SchedCore,
    idle_workers: usize,
    closed: bool,
}

impl Scheduler {
    /// Spawn `job_workers` workers over a queue of `queue_capacity` slots
    /// with the given per-tenant quotas. `store` is the daemon's shared
    /// profile-store directory; jobs whose spec opts in run their sweeps
    /// against it.
    pub fn start(
        registry: Arc<Registry>,
        job_workers: usize,
        queue_capacity: usize,
        quota: QuotaConfig,
        store: Option<PathBuf>,
    ) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                core: SchedCore::new(queue_capacity, quota),
                idle_workers: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        });
        let store = Arc::new(store);
        let handles = (0..job_workers.max(1))
            .map(|i| {
                let registry = registry.clone();
                let shared = shared.clone();
                let store = store.clone();
                std::thread::Builder::new()
                    .name(format!("critter-serve-job-{i}"))
                    .spawn(move || worker_loop(&shared, &registry, &store))
                    .expect("spawning a job worker")
            })
            .collect();
        Scheduler { shared, handles }
    }

    /// Enqueue a submitted job; a full queue or an exceeded tenant quota
    /// is a typed 429. When every worker is busy and the submission
    /// outranks a running job, the lowest-priority victim is flagged for
    /// checkpoint-consistent preemption.
    pub fn enqueue(&self, ticket: JobTicket) -> Result<(), ServeError> {
        let priority = ticket.priority;
        {
            let mut st = self.shared.state.lock();
            if st.closed {
                return Err(ServeError::Internal("job workers have shut down".into()));
            }
            st.core.submit(ticket)?;
            if st.idle_workers == 0 {
                st.core.preempt_victim(priority);
            }
        }
        self.shared.cv.notify_all();
        Ok(())
    }

    /// Enqueue a recovered job at startup; recovered jobs were admitted
    /// before the restart, so no admission checks re-apply.
    pub fn enqueue_recovered(&self, ticket: JobTicket) {
        self.shared.state.lock().core.admit_recovered(ticket);
        self.shared.cv.notify_all();
    }

    /// Cancel a still-queued job: remove it from the queue, roll back its
    /// tenant's queued-quota slot, and finalize the cancellation artifact
    /// immediately. Returns false when the job is not queued (the caller
    /// then relies on the cancel flag at the next unit boundary).
    pub fn cancel_queued(&self, registry: &Arc<Registry>, id: &str) -> bool {
        let taken = self.shared.state.lock().core.take_queued(id);
        if taken {
            finish(registry, id, JobState::Cancelled, None);
        }
        taken
    }

    /// Snapshot of per-tenant usage plus the quotas in force.
    pub fn tenant_usage(&self) -> (BTreeMap<String, TenantUsage>, QuotaConfig) {
        let st = self.shared.state.lock();
        (st.core.usage(), st.core.quota())
    }

    /// Close the queue and wait for the workers to finish their current
    /// jobs.
    pub fn shutdown(self) {
        self.shared.state.lock().closed = true;
        self.shared.cv.notify_all();
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// What one dispatched job run asks the worker to do next.
enum RunOutcome {
    /// The job reached a terminal state (artifact already written).
    Terminal,
    /// The job yielded to preemption; re-queue it.
    Preempted,
}

fn worker_loop(shared: &Arc<Shared>, registry: &Arc<Registry>, store: &Option<PathBuf>) {
    loop {
        let (ticket, preempt) = {
            let mut st = shared.state.lock();
            loop {
                if st.closed {
                    return;
                }
                if let Some(dispatched) = st.core.dispatch() {
                    break dispatched;
                }
                st.idle_workers += 1;
                shared.cv.wait(&mut st);
                st.idle_workers -= 1;
            }
        };
        // A sweep must never take a worker down with it: a panicking job
        // is recorded as failed and the worker moves on.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_job(registry, &ticket.id, store, &preempt)
        }));
        let outcome = outcome.unwrap_or_else(|panic| {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "sweep panicked".into());
            finish(registry, &ticket.id, JobState::Failed, Some(detail));
            RunOutcome::Terminal
        });
        {
            let mut st = shared.state.lock();
            match outcome {
                RunOutcome::Terminal => st.core.complete(&ticket.id),
                RunOutcome::Preempted => st.core.requeue_preempted(&ticket.id),
            }
        }
        // Completion may have freed quota for a queued sibling; requeue
        // may have put work back for an idle peer.
        shared.cv.notify_all();
    }
}

/// Run one job end to end: resume-or-start the sweep, then either write
/// the terminal artifact that encodes its final state or report that the
/// job yielded to preemption.
fn run_job(
    registry: &Arc<Registry>,
    id: &str,
    store: &Option<PathBuf>,
    preempt: &Arc<AtomicBool>,
) -> RunOutcome {
    let Ok(entry) = registry.get(id) else {
        return RunOutcome::Terminal; // discarded between enqueue and dequeue
    };
    if entry.cancel.load(Ordering::SeqCst) {
        finish(registry, id, JobState::Cancelled, None);
        return RunOutcome::Terminal;
    }
    registry.set_state(id, JobState::Running, None);

    let spec = entry.spec;
    let dir = registry.job_dir(id);
    let mut session = SessionConfig::new().with_checkpoint_dir(&dir);
    if spec.warm_start.is_some() {
        // The session engine prefers an existing checkpoint over the warm
        // start, so resumed jobs are unaffected by this.
        session = session
            .with_warm_start(dir.join("warm-start.json"))
            .with_staleness(spec.staleness_policy());
    }
    if spec.profile {
        session = session.with_profile_out(dir.join("profile.json"));
    }
    if spec.store {
        // Submission rejects store jobs on store-less daemons, but a
        // recovered job can land on a daemon restarted without --store;
        // failing it beats silently dropping its publication.
        let Some(store_dir) = store else {
            finish(
                registry,
                id,
                JobState::Failed,
                Some("job requires a profile store but the daemon has none (--store)".into()),
            );
            return RunOutcome::Terminal;
        };
        session = session.with_store(store_dir);
    }

    let progress_registry = registry.clone();
    let progress_id = id.to_string();
    let cancel = entry.cancel.clone();
    let preempt = preempt.clone();
    let tuner = Autotuner::new(spec.options()).with_progress(move |p| {
        progress_registry.set_progress(&progress_id, p.units_done);
        if cancel.load(Ordering::SeqCst) {
            ProgressVerdict::Cancel
        } else if preempt.load(Ordering::SeqCst) {
            ProgressVerdict::Preempt
        } else {
            ProgressVerdict::Continue
        }
    });

    let workloads = spec.workloads();
    match tuner.tune_session(&workloads, &session) {
        Ok(report) => {
            // `report.json` is the terminal artifact, so it goes last: a job
            // recovered as done has every artifact it serves.
            let write = || -> critter_core::Result<()> {
                if spec.observe {
                    let obs = report.obs.as_ref().expect("observed sweeps carry a trace");
                    write_atomic(&dir.join("metrics.txt"), obs.metrics_string().as_bytes())?;
                }
                write_atomic(&dir.join("report.json"), report.to_json_string().as_bytes())
            };
            match write() {
                Ok(()) => finish(registry, id, JobState::Done, None),
                Err(e) => {
                    finish(registry, id, JobState::Failed, Some(format!("writing artifacts: {e}")))
                }
            }
            RunOutcome::Terminal
        }
        Err(e) if e.is_preempted() => {
            // The committed boundary is checkpointed; the worker puts the
            // job back in the queue and it resumes byte-identically later.
            registry.set_state(id, JobState::Preempted, None);
            RunOutcome::Preempted
        }
        Err(e) if e.is_cancelled() => {
            finish(registry, id, JobState::Cancelled, None);
            RunOutcome::Terminal
        }
        Err(e) => {
            finish(registry, id, JobState::Failed, Some(e.to_string()));
            RunOutcome::Terminal
        }
    }
}

/// Write the terminal artifact for `state`, remove the job's resume state,
/// and update the registry. The artifact is written first: if the daemon
/// dies in between, restart recovery reads the state back from it (and
/// removes the resume state then); a job whose artifact failed keeps both.
fn finish(registry: &Arc<Registry>, id: &str, state: JobState, error: Option<String>) {
    let dir = registry.job_dir(id);
    let write_result = match state {
        JobState::Cancelled => {
            let body = "{\n  \"cancelled\": true\n}\n";
            write_atomic(&dir.join("cancelled.json"), body.as_bytes())
        }
        JobState::Failed => {
            let detail = error.clone().unwrap_or_else(|| "unknown failure".into());
            let body = ServeError::Internal(detail).to_body();
            write_atomic(&dir.join("error.json"), body.as_bytes())
        }
        _ => Ok(()),
    };
    match write_result {
        Ok(()) => remove_resume_state(&dir),
        Err(e) => eprintln!("critter-serve: recording terminal state of {id}: {e}"),
    }
    registry.set_state(id, state, error);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(id: &str, tenant: &str, priority: u8, ranks: usize) -> JobTicket {
        JobTicket { id: id.into(), tenant: tenant.into(), priority, ranks }
    }

    #[test]
    fn dispatch_order_is_priority_then_submission() {
        let mut core = SchedCore::new(16, QuotaConfig::default());
        core.submit(ticket("job-1", "a", 0, 4)).unwrap();
        core.submit(ticket("job-2", "b", 5, 4)).unwrap();
        core.submit(ticket("job-3", "c", 5, 4)).unwrap();
        core.submit(ticket("job-4", "d", 9, 4)).unwrap();
        let order: Vec<String> =
            std::iter::from_fn(|| core.dispatch().map(|(t, _)| t.id)).collect();
        assert_eq!(order, ["job-4", "job-2", "job-3", "job-1"]);
        assert_eq!(core.queued_len(), 0);
        assert_eq!(core.running_len(), 4);
    }

    #[test]
    fn queue_bound_and_tenant_quotas_reject_typed() {
        let quota = QuotaConfig { max_queued: 2, max_running: 1, max_ranks: 8 };
        let mut core = SchedCore::new(3, quota);
        core.submit(ticket("job-1", "a", 0, 4)).unwrap();
        core.submit(ticket("job-2", "a", 0, 4)).unwrap();
        // Tenant `a` is at max_queued.
        let err = core.submit(ticket("job-3", "a", 0, 4)).unwrap_err();
        assert_eq!(err.code().as_str(), "quota_exceeded");
        assert_eq!(err.status(), 429);
        // A job that could never run under the rank quota is rejected.
        let err = core.submit(ticket("job-4", "b", 0, 64)).unwrap_err();
        assert_eq!(err.code().as_str(), "quota_exceeded");
        // Another tenant still fits in the last shared slot …
        core.submit(ticket("job-5", "b", 0, 4)).unwrap();
        // … and the queue bound itself is backpressure, not a quota error.
        let err = core.submit(ticket("job-6", "c", 0, 4)).unwrap_err();
        assert_eq!(err.code().as_str(), "backpressure");

        // max_running 1: only one of tenant a's jobs dispatches.
        let (first, _) = core.dispatch().unwrap();
        assert_eq!(first.tenant, "a");
        let (second, _) = core.dispatch().unwrap();
        assert_eq!(second.tenant, "b", "tenant a is at its running quota");
        assert!(core.dispatch().is_none());
        core.complete(&first.id);
        let (third, _) = core.dispatch().unwrap();
        assert_eq!(third.id, "job-2");
    }

    #[test]
    fn rank_quota_gates_concurrent_dispatch() {
        let quota = QuotaConfig { max_queued: 0, max_running: 0, max_ranks: 8 };
        let mut core = SchedCore::new(16, quota);
        core.submit(ticket("job-1", "a", 0, 6)).unwrap();
        core.submit(ticket("job-2", "a", 0, 6)).unwrap();
        core.submit(ticket("job-3", "a", 0, 2)).unwrap();
        let (first, _) = core.dispatch().unwrap();
        assert_eq!(first.id, "job-1");
        // 6 + 6 > 8, but 6 + 2 fits: the rank quota skips to job-3.
        let (second, _) = core.dispatch().unwrap();
        assert_eq!(second.id, "job-3");
        assert!(core.dispatch().is_none());
        core.complete("job-1");
        assert_eq!(core.dispatch().unwrap().0.id, "job-2");
    }

    #[test]
    fn preempted_jobs_keep_their_submission_order() {
        let mut core = SchedCore::new(16, QuotaConfig::default());
        core.submit(ticket("job-1", "a", 1, 4)).unwrap();
        let (low, flag) = core.dispatch().unwrap();
        assert_eq!(low.id, "job-1");
        core.submit(ticket("job-2", "b", 5, 4)).unwrap();
        assert!(core.preempt_victim(5), "running priority-1 job is a victim for priority 5");
        assert!(flag.load(Ordering::SeqCst));
        core.requeue_preempted("job-1");
        // Same-priority-as-victim later submission must not overtake it.
        core.submit(ticket("job-3", "c", 1, 4)).unwrap();
        let order: Vec<String> =
            std::iter::from_fn(|| core.dispatch().map(|(t, _)| t.id)).collect();
        assert_eq!(order, ["job-2", "job-1", "job-3"]);
    }

    #[test]
    fn preempt_victim_picks_lowest_priority_latest_submission() {
        let mut core = SchedCore::new(16, QuotaConfig { max_running: 0, ..Default::default() });
        core.submit(ticket("job-1", "a", 2, 4)).unwrap();
        core.submit(ticket("job-2", "b", 1, 4)).unwrap();
        core.submit(ticket("job-3", "c", 1, 4)).unwrap();
        let flags: BTreeMap<String, Arc<AtomicBool>> =
            std::iter::from_fn(|| core.dispatch()).map(|(t, f)| (t.id, f)).collect();
        assert_eq!(flags.len(), 3);
        // No victim outranks priority 1.
        assert!(!core.preempt_victim(1));
        // Priority 5 preempts the lowest-priority, latest-submitted victim.
        assert!(core.preempt_victim(5));
        assert!(flags["job-3"].load(Ordering::SeqCst));
        // A second arrival picks the next victim, not the same one twice.
        assert!(core.preempt_victim(5));
        assert!(flags["job-2"].load(Ordering::SeqCst));
        assert!(core.preempt_victim(5));
        assert!(flags["job-1"].load(Ordering::SeqCst));
        assert!(!core.preempt_victim(9), "every running job is already yielding");
    }

    #[test]
    fn take_queued_rolls_back_the_tenant_quota_slot() {
        let quota = QuotaConfig { max_queued: 1, max_running: 1, max_ranks: 0 };
        let mut core = SchedCore::new(16, quota);
        core.submit(ticket("job-1", "a", 0, 4)).unwrap();
        assert_eq!(core.submit(ticket("job-2", "a", 0, 4)).unwrap_err().status(), 429);
        assert!(core.take_queued("job-1"));
        assert!(!core.take_queued("job-1"), "already removed");
        // The quota slot is free again — the regression this guards.
        core.submit(ticket("job-3", "a", 0, 4)).unwrap();
        assert_eq!(core.usage()["a"].queued, 1);
    }
}
