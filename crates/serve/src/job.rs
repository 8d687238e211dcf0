//! The job registry: state machine, on-disk layout, and status rendering.
//!
//! Every job owns one directory under the daemon's data dir:
//!
//! ```text
//! <data-dir>/job-000001/
//!   spec.json        canonical JobSpec (written at submit, reloaded on restart)
//!   warm-start.json  inline warm-start profile, when the spec carries one
//!   checkpoint.json  session-engine checkpoint head (until terminal)
//!   timeline.jsonl   observed runs the head counts, appended once per unit
//!                    (when the spec observes; until terminal)
//!   session.log      session-engine unit log
//!   events.jsonl     append-only state/progress event log (streamed via
//!                    GET /v1/jobs/{id}/events; reloaded on restart)
//!   report.json      canonical TuningReport bytes (terminal: done)
//!   metrics.txt      observability metrics, when the spec observes
//!   profile.json     kernel-model profile, when the spec requests one
//!   error.json       failure record (terminal: failed)
//!   cancelled.json   cancellation marker (terminal: cancelled)
//! ```
//!
//! The state machine is `queued → running → done | failed | cancelled`,
//! with a `preempted` detour (`running → preempted → running`) when a
//! higher-priority submission pauses a sweep at a committed unit boundary.
//! Terminal states are exactly the presence of a terminal artifact — which
//! is why a killed daemon can rebuild its registry by re-listing the job
//! directories: jobs with no terminal artifact (including jobs killed
//! while preempted) re-enter the queue and the session engine resumes them
//! from their checkpoint, which a terminal job no longer keeps.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use critter_core::json::{canonical_text, Reader};
use critter_session::durable;
use parking_lot::{Condvar, Mutex};
use serde_json::{Tape, Value};

use crate::api::JobSpec;
use crate::error::ServeError;

/// Lifecycle states of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting for a job worker.
    Queued,
    /// A worker is sweeping (or resuming) it.
    Running,
    /// Paused at a checkpointed unit boundary to yield its worker to a
    /// higher-priority job; back in the queue and will resume.
    Preempted,
    /// Finished; `report.json` is served verbatim.
    Done,
    /// The sweep returned an error; see `error.json`.
    Failed,
    /// Cancelled via `DELETE /v1/jobs/{id}` at a checkpointed unit
    /// boundary; the directory stays as a record.
    Cancelled,
}

impl JobState {
    /// Wire name (the `state` field of status responses).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is terminal.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// Append-only per-job event log: the in-memory mirror of the job
/// directory's `events.jsonl`.
///
/// Line `i` (0-based) always carries `"seq": i + 1`, so a client that has
/// seen `seq <= N` asks for `?since=N` and gets exactly the suffix. Writers
/// append under the lock and notify the condvar, which is what makes the
/// long-poll `GET /v1/jobs/{id}/events` endpoint cheap: waiters block on
/// the condvar instead of spinning on the file.
#[derive(Debug)]
pub struct JobEvents {
    /// The served lines and the file they are mirrored to, appended together.
    lines: Mutex<(Vec<String>, durable::Log)>,
    cv: Condvar,
}

impl JobEvents {
    /// Open the log at `path` (a fresh job's is missing), keeping the longest
    /// prefix of lines that decode with consecutive `seq` values, so the next
    /// append continues the log clients were served. A failed read cuts
    /// nothing.
    pub fn load(path: &Path) -> critter_core::Result<JobEvents> {
        let mut lines = Vec::new();
        let log = durable::Log::open(path, |found| {
            for line in found.lines() {
                let Ok(line) = line else { break };
                let Ok(tape) = Tape::parse(line) else { break };
                let seq = Reader::root("events.jsonl", tape.root()).at("seq").u64();
                if seq.ok() != Some(lines.len() as u64 + 1) {
                    break;
                }
                lines.push(line.to_string());
            }
            Ok(lines.len())
        })?;
        Ok(JobEvents { lines: Mutex::new((lines, log)), cv: Condvar::new() })
    }

    /// Append an event (the `seq` field is assigned here) and mirror it to
    /// `events.jsonl`. File errors are swallowed: the in-memory log and the
    /// waiters' wakeup must not depend on the disk.
    fn append(&self, mut doc: Value) {
        let mut guard = self.lines.lock();
        let (lines, log) = &mut *guard;
        let seq = lines.len() as u64 + 1;
        doc.as_object_mut()
            .expect("events are objects")
            .insert("seq".into(), serde_json::json!(seq));
        let line = serde_json::to_string(&doc).expect("json writer is total");
        if let Err(e) = log.append(format!("{line}\n").as_bytes()) {
            eprintln!("critter-serve: {e}");
        }
        lines.push(line);
        self.cv.notify_all();
    }

    /// Events with `seq > since`, plus the highest `seq` in the log (the
    /// client's next `since`). When there are none, blocks up to `wait` for
    /// one to arrive; a zero `wait` never blocks.
    pub fn since(&self, since: u64, wait: Duration) -> (Vec<Value>, u64) {
        let deadline = Instant::now() + wait;
        let mut guard = self.lines.lock();
        while guard.0.len() as u64 <= since {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.cv.wait_for(&mut guard, left).timed_out() {
                break;
            }
        }
        let lines = &guard.0;
        let next = lines.len() as u64;
        let events = lines[since.min(next) as usize..]
            .iter()
            .map(|l| serde_json::from_str(l).expect("log lines are valid JSON"))
            .collect();
        (events, next)
    }
}

/// In-memory record of one job (the durable truth lives in its directory).
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// The validated spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// Committed `(configuration, repetition)` units.
    pub units_done: usize,
    /// Total units in the sweep.
    pub units_total: usize,
    /// Failure detail, for `Failed` jobs.
    pub error: Option<String>,
    /// Set by `DELETE`; the progress hook observes it at unit boundaries.
    pub cancel: Arc<AtomicBool>,
    /// The job's ordered state/progress event log (see [`JobEvents`]).
    pub events: Arc<JobEvents>,
}

/// Remove the files a job resumes from (checkpoint head, observed-run
/// timeline), which a terminal job never reads again. A file already gone is
/// fine; any other failure is logged and never fails the job.
pub(crate) fn remove_resume_state(dir: &Path) {
    for path in [dir.join("checkpoint.json"), dir.join("timeline.jsonl")] {
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                eprintln!("critter-serve: removing {}: {e}", path.display())
            }
            _ => {}
        }
    }
}

/// The daemon's job table, backed by the data directory.
pub struct Registry {
    data_dir: PathBuf,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_id: AtomicU64,
}

impl Registry {
    /// Open (or create) `data_dir`, rebuilding the registry from the job
    /// directories found there. Returns the registry plus the ids of jobs
    /// with no terminal artifact, in submission order — the caller
    /// re-enqueues them and the session engine resumes each from its
    /// checkpoint.
    pub fn open(data_dir: &Path) -> std::io::Result<(Registry, Vec<String>)> {
        std::fs::create_dir_all(data_dir)?;
        let mut jobs = BTreeMap::new();
        let mut pending = Vec::new();
        let mut max_seq = 0u64;
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(data_dir)?.filter_map(|e| Some(e.ok()?.path())).collect();
        entries.sort();
        for dir in entries {
            let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
                continue;
            };
            let Some(seq) = id.strip_prefix("job-").and_then(|s| s.parse::<u64>().ok()) else {
                continue;
            };
            // Every `job-N` directory holds its id, loadable or not, so a
            // fresh submission never reuses (and overwrites) one.
            max_seq = max_seq.max(seq);
            let spec_text = match std::fs::read_to_string(dir.join("spec.json")) {
                Ok(t) => t,
                Err(_) => continue, // a partially created directory; ignore it
            };
            let spec = match JobSpec::from_json(&spec_text) {
                Ok(s) => s,
                Err(_) => continue,
            };
            // An unreadable event log is left as it is, like an unreadable
            // spec: cutting it would reissue the `seq`s clients were served.
            let Ok(events) = JobEvents::load(&dir.join("events.jsonl")) else { continue };
            let units_total = spec.units_total();
            let (state, units_done, error) = if dir.join("report.json").is_file() {
                (JobState::Done, units_total, None)
            } else if dir.join("cancelled.json").is_file() {
                (JobState::Cancelled, 0, None)
            } else if dir.join("error.json").is_file() {
                let detail = std::fs::read_to_string(dir.join("error.json"))
                    .ok()
                    .and_then(|text| {
                        let tape = Tape::parse(&text).ok()?;
                        let record = Reader::root("error.json", tape.root());
                        record.at("error").at("detail").str().ok().map(str::to_string)
                    })
                    .unwrap_or_else(|| "unreadable error record".into());
                (JobState::Failed, 0, Some(detail))
            } else {
                pending.push(id.clone());
                (JobState::Queued, 0, None)
            };
            if state.is_terminal() {
                remove_resume_state(&dir);
            }
            jobs.insert(
                id,
                JobEntry {
                    spec,
                    state,
                    units_done,
                    units_total,
                    error,
                    cancel: Arc::new(AtomicBool::new(false)),
                    events: Arc::new(events),
                },
            );
        }
        let registry = Registry {
            data_dir: data_dir.to_path_buf(),
            jobs: Mutex::new(jobs),
            next_id: AtomicU64::new(max_seq + 1),
        };
        // Recovered unfinished jobs re-enter the queue; say so in their
        // event logs, so a streaming client sees the restart seam.
        for id in &pending {
            registry.emit_state(id, JobState::Queued);
        }
        Ok((registry, pending))
    }

    /// The directory owned by `id`.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join(id)
    }

    /// Create a job: allocate an id, write the directory with `spec.json`
    /// (and `warm-start.json` when the spec carries an inline profile),
    /// and register it as queued.
    pub fn create(&self, spec: JobSpec) -> Result<String, ServeError> {
        let id = format!("job-{:06}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let dir = self.job_dir(&id);
        let write = |name: &str, bytes: &str| -> Result<(), ServeError> {
            durable::write_atomic(&dir.join(name), bytes.as_bytes())
                .map_err(|e| ServeError::Internal(format!("writing {name} for {id}: {e}")))
        };
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Internal(format!("creating job dir for {id}: {e}")))?;
        let events = JobEvents::load(&dir.join("events.jsonl"))
            .map_err(|e| ServeError::Internal(format!("opening the event log of {id}: {e}")))?;
        if let Some(w) = &spec.warm_start {
            write("warm-start.json", &canonical_text(w))?;
        }
        write("spec.json", &spec.to_json())?;
        let units_total = spec.units_total();
        self.jobs.lock().insert(
            id.clone(),
            JobEntry {
                spec,
                state: JobState::Queued,
                units_done: 0,
                units_total,
                error: None,
                cancel: Arc::new(AtomicBool::new(false)),
                events: Arc::new(events),
            },
        );
        self.emit_state(&id, JobState::Queued);
        Ok(id)
    }

    /// Roll back a [`Registry::create`] whose enqueue hit backpressure:
    /// forget the job and remove its directory.
    pub fn discard(&self, id: &str) {
        self.jobs.lock().remove(id);
        let _ = std::fs::remove_dir_all(self.job_dir(id));
    }

    /// Snapshot one job's entry.
    pub fn get(&self, id: &str) -> Result<JobEntry, ServeError> {
        self.jobs
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::NotFound(format!("no such job `{id}`")))
    }

    /// All job ids in submission order.
    pub fn ids(&self) -> Vec<String> {
        self.jobs.lock().keys().cloned().collect()
    }

    /// Per-tenant job totals across all states, for `GET /v1/tenants`.
    pub fn tenant_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for entry in self.jobs.lock().values() {
            *counts.entry(entry.spec.tenant.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Count of jobs per state, for `/v1/healthz`.
    pub fn state_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Preempted,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            counts.insert(state.name(), 0);
        }
        for entry in self.jobs.lock().values() {
            *counts.get_mut(entry.state.name()).expect("all states seeded") += 1;
        }
        counts
    }

    /// Transition `id` to `state` (with an error detail for failures) and
    /// append the matching `state` event to the job's log, as one step under
    /// the registry lock. Readers therefore see both or neither: a client
    /// that observed the transition via a status poll always finds the
    /// matching event, and one woken by the event (`/events` long-poll)
    /// always finds the state — `done` means `/report` answers 200. The
    /// `events.jsonl` append happens under the lock; a job makes only a
    /// handful of transitions, so status polls wait for it at most briefly.
    pub fn set_state(&self, id: &str, state: JobState, error: Option<String>) {
        let mut jobs = self.jobs.lock();
        let Some(entry) = jobs.get_mut(id) else { return };
        entry.state = state;
        if state == JobState::Done {
            entry.units_done = entry.units_total;
        }
        entry.error = error;
        Self::append_state(entry, state);
    }

    /// Record committed progress for `id` and append a `progress` event.
    pub fn set_progress(&self, id: &str, units_done: usize) {
        let (events, units_total) = {
            let mut jobs = self.jobs.lock();
            let Some(entry) = jobs.get_mut(id) else { return };
            entry.units_done = units_done;
            (entry.events.clone(), entry.units_total)
        };
        events.append(serde_json::json!({
            "kind": "progress",
            "units_done": units_done,
            "units_total": units_total,
        }));
    }

    /// Append a `state` event to `id`'s log (no state mutation).
    fn emit_state(&self, id: &str, state: JobState) {
        if let Some(entry) = self.jobs.lock().get(id) {
            Self::append_state(entry, state);
        }
    }

    /// The one writer of `state` events. Callers hold the registry lock
    /// (`entry` borrows from it); the event log's own lock nests inside it
    /// and is never held while taking the registry lock.
    fn append_state(entry: &JobEntry, state: JobState) {
        entry.events.append(serde_json::json!({ "kind": "state", "state": state.name() }));
    }

    /// Request cancellation of a queued or running job. The flag is
    /// observed at the next committed unit boundary, so cancellation is
    /// always checkpoint-consistent.
    pub fn cancel(&self, id: &str) -> Result<(), ServeError> {
        let jobs = self.jobs.lock();
        let entry =
            jobs.get(id).ok_or_else(|| ServeError::NotFound(format!("no such job `{id}`")))?;
        if entry.state.is_terminal() {
            return Err(ServeError::Conflict(format!(
                "job `{id}` is already {}",
                entry.state.name()
            )));
        }
        entry.cancel.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// The canonical status document for `id` (the `GET /v1/jobs/{id}`
    /// body): id, state, progress, the canonical spec, and a failure
    /// detail when failed.
    pub fn status_json(&self, id: &str) -> Result<String, ServeError> {
        let entry = self.get(id)?;
        Ok(render_status(id, &entry))
    }

    /// The list document for `GET /v1/jobs`: every job's id and state in
    /// submission order.
    pub fn list_json(&self) -> String {
        let jobs = self.jobs.lock();
        let items: Vec<Value> = jobs
            .iter()
            .map(|(id, entry)| {
                let progress = serde_json::json!({
                    "units_done": entry.units_done,
                    "units_total": entry.units_total,
                });
                serde_json::json!({
                    "id": id.as_str(),
                    "state": entry.state.name(),
                    "progress": progress,
                })
            })
            .collect();
        let items = Value::Array(items);
        canonical_text(&serde_json::json!({ "jobs": items }))
    }
}

fn render_status(id: &str, entry: &JobEntry) -> String {
    let spec_doc: Value =
        serde_json::from_str(&entry.spec.to_json()).expect("canonical spec parses");
    let progress = serde_json::json!({
        "units_done": entry.units_done,
        "units_total": entry.units_total,
    });
    let mut doc = serde_json::json!({
        "id": id,
        "state": entry.state.name(),
        "progress": progress,
        "spec": spec_doc,
    });
    let map = doc.as_object_mut().expect("doc is an object");
    if let Some(detail) = &entry.error {
        map.insert(
            "error".into(),
            serde_json::json!({ "code": "sweep_failed", "detail": detail.as_str() }),
        );
    }
    canonical_text(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_session::durable::write_atomic;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("critter-serve-job-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> JobSpec {
        JobSpec::from_json(
            r#"{"space": "slate-cholesky", "policy": "local", "smoke": true, "machine": "test"}"#,
        )
        .unwrap()
    }

    #[test]
    fn create_then_reopen_requeues_unfinished_jobs() {
        let dir = temp_dir("reopen");
        let (registry, pending) = Registry::open(&dir).unwrap();
        assert!(pending.is_empty());
        let a = registry.create(spec()).unwrap();
        let b = registry.create(spec()).unwrap();
        assert_eq!((a.as_str(), b.as_str()), ("job-000001", "job-000002"));

        // Finish `a` with a report artifact, leave `b` unfinished.
        write_atomic(&registry.job_dir(&a).join("report.json"), b"{}\n").unwrap();
        drop(registry);

        let (reopened, pending) = Registry::open(&dir).unwrap();
        assert_eq!(pending, vec![b.clone()]);
        assert_eq!(reopened.get(&a).unwrap().state, JobState::Done);
        assert_eq!(reopened.get(&b).unwrap().state, JobState::Queued);
        // New ids continue after the highest recovered sequence number.
        assert_eq!(reopened.create(spec()).unwrap(), "job-000003");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_never_reuses_the_id_of_an_unloadable_job_dir() {
        let dir = temp_dir("torn-spec");
        let (registry, _) = Registry::open(&dir).unwrap();
        assert_eq!(registry.create(spec()).unwrap(), "job-000001");
        drop(registry);
        // `job-000002` was torn mid-create: its spec does not parse, and it
        // still holds an artifact that must not be overwritten or adopted.
        let torn = dir.join("job-000002");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("spec.json"), b"{\"space\": \"slate-ch").unwrap();
        std::fs::write(torn.join("report.json"), b"{\"stale\": true}\n").unwrap();
        let before: Vec<_> = ["spec.json", "report.json"]
            .iter()
            .map(|f| std::fs::read(torn.join(f)).unwrap())
            .collect();

        let (reopened, pending) = Registry::open(&dir).unwrap();
        assert!(pending.contains(&"job-000001".to_string()));
        assert!(reopened.get("job-000002").is_err());
        assert_eq!(reopened.create(spec()).unwrap(), "job-000003");
        let after: Vec<_> = ["spec.json", "report.json"]
            .iter()
            .map(|f| std::fs::read(torn.join(f)).unwrap())
            .collect();
        assert_eq!(before, after, "the torn job's bytes must be untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cancel_rules_and_status_document() {
        let dir = temp_dir("cancel");
        let (registry, _) = Registry::open(&dir).unwrap();
        let id = registry.create(spec()).unwrap();
        assert!(registry.cancel(&id).is_ok());
        assert!(registry.get(&id).unwrap().cancel.load(Ordering::SeqCst));

        registry.set_state(&id, JobState::Done, None);
        let err = registry.cancel(&id).unwrap_err();
        assert_eq!(err.status(), 409);
        assert_eq!(registry.cancel("job-999999").unwrap_err().status(), 404);

        let status = registry.status_json(&id).unwrap();
        let tape = Tape::parse(&status).unwrap();
        let status = Reader::root("status", tape.root());
        assert_eq!(status.at("state").str().unwrap(), "done");
        assert_eq!(status.at("spec").at("space").str().unwrap(), "slate-cholesky");
        let progress = status.at("progress");
        assert_eq!(
            progress.at("units_done").u64().unwrap(),
            progress.at("units_total").u64().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_log_appends_persists_and_tolerates_torn_tail() {
        let dir = temp_dir("events");
        let (registry, _) = Registry::open(&dir).unwrap();
        let id = registry.create(spec()).unwrap();
        registry.set_state(&id, JobState::Running, None);
        registry.set_progress(&id, 1);
        registry.set_state(&id, JobState::Preempted, None);

        let entry = registry.get(&id).unwrap();
        let (events, next) = entry.events.since(0, Duration::ZERO);
        assert_eq!(next, 4);
        let kinds: Vec<&str> =
            events.iter().map(|e| e.get("kind").unwrap().as_str().unwrap()).collect();
        assert_eq!(kinds, ["state", "state", "progress", "state"]);
        assert_eq!(events[3].get("state").unwrap().as_str(), Some("preempted"));
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("seq"), Some(&serde_json::json!(i as u64 + 1)));
        }
        // `since` returns only the suffix.
        let (tail, _) = entry.events.since(3, Duration::ZERO);
        assert_eq!(tail.len(), 1);

        // Simulate a daemon killed mid-append: a torn final line must be
        // dropped on reload, everything before it preserved.
        let path = registry.job_dir(&id).join("events.jsonl");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"kind\": \"state\", \"se");
        std::fs::write(&path, &bytes).unwrap();
        drop(registry);
        let (reopened, _) = Registry::open(&dir).unwrap();
        let entry = reopened.get(&id).unwrap();
        // 4 surviving events + the recovery re-queue event appended by open.
        let (events, next) = entry.events.since(0, Duration::ZERO);
        assert_eq!(next, 5);
        assert_eq!(events[4].get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(events[4].get("seq"), Some(&serde_json::json!(5)));

        // The torn bytes were cut on reload, so a second restart keeps
        // every event served so far and never reissues a `seq`.
        reopened.set_state(&id, JobState::Running, None);
        let (served, _) = reopened.get(&id).unwrap().events.since(0, Duration::ZERO);
        drop(reopened);
        let (again, _) = Registry::open(&dir).unwrap();
        let (history, next) = again.get(&id).unwrap().events.since(0, Duration::ZERO);
        assert_eq!(next, 7, "6 served events + the second re-queue");
        assert_eq!(history[..served.len()], served[..]);

        // Regression: one invalid UTF-8 byte used to fail the whole read, so
        // the log loaded empty, the file was cut to nothing and `seq` 1 was
        // handed out again. It damages only its own line: the five before it
        // survive, and the next event continues at `seq` 6.
        drop(again);
        let mut bytes = std::fs::read(&path).unwrap();
        let sixth = bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').nth(4).unwrap().0 + 2;
        bytes[sixth] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (damaged, _) = Registry::open(&dir).unwrap();
        let (history, next) = damaged.get(&id).unwrap().events.since(0, Duration::ZERO);
        assert_eq!(next, 6, "5 undamaged events + the third re-queue");
        assert_eq!(history[..5], served[..5]);
        assert_eq!(history[5].get("state").unwrap().as_str(), Some("queued"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An event log that cannot be read is not cut: its job is skipped like
    /// one with an unreadable spec, and its id is never reused.
    #[test]
    fn an_unreadable_event_log_skips_its_job_and_keeps_its_id() {
        let dir = temp_dir("unreadable-events");
        let (registry, _) = Registry::open(&dir).unwrap();
        let id = registry.create(spec()).unwrap();
        drop(registry);
        let events = dir.join(&id).join("events.jsonl");
        std::fs::remove_file(&events).unwrap();
        std::fs::create_dir(&events).unwrap();
        let (reopened, pending) = Registry::open(&dir).unwrap();
        assert!(pending.is_empty() && reopened.get(&id).is_err());
        assert_eq!(reopened.create(spec()).unwrap(), "job-000002");
        assert!(events.is_dir(), "the unreadable log is left as it was");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn since_returns_immediately_when_events_exist() {
        let dir = temp_dir("since");
        std::fs::create_dir_all(&dir).unwrap();
        let ev = JobEvents::load(&dir.join("events.jsonl")).unwrap();
        ev.append(serde_json::json!({ "kind": "state", "state": "queued" }));
        let (events, next) = ev.since(0, Duration::from_secs(5));
        assert_eq!((events.len(), next), (1, 1));
        // And times out quickly when there is nothing new.
        let started = Instant::now();
        let (events, next) = ev.since(1, Duration::from_millis(50));
        assert!(events.is_empty() && next == 1);
        assert!(started.elapsed() < Duration::from_secs(2));
        // A zero wait never blocks.
        assert_eq!(ev.since(1, Duration::ZERO), (Vec::new(), 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A daemon that dies between a job's terminal artifact and the removal
    /// of its resume state (or a data dir written before terminal jobs
    /// dropped it) leaves both files behind; the restart removes them from
    /// every terminal job and keeps them for the one that still resumes.
    #[test]
    fn reopen_removes_the_resume_state_of_terminal_jobs() {
        let dir = temp_dir("leftovers");
        let (registry, _) = Registry::open(&dir).unwrap();
        let ids: Vec<String> = (0..4).map(|_| registry.create(spec()).unwrap()).collect();
        let artifacts = ["report.json", "error.json", "cancelled.json"];
        for (id, artifact) in ids.iter().zip(artifacts) {
            write_atomic(&registry.job_dir(id).join(artifact), b"{}\n").unwrap();
        }
        let resume_state = ["checkpoint.json", "timeline.jsonl"];
        for id in &ids {
            for name in resume_state {
                write_atomic(&registry.job_dir(id).join(name), b"{}\n").unwrap();
            }
        }
        drop(registry);

        let (reopened, pending) = Registry::open(&dir).unwrap();
        assert_eq!(pending, [ids[3].clone()]);
        for (i, id) in ids.iter().enumerate() {
            let job_dir = reopened.job_dir(id);
            for name in resume_state {
                assert_eq!(job_dir.join(name).exists(), i == 3, "{id}/{name}");
            }
            for kept in ["spec.json", "events.jsonl"] {
                assert!(job_dir.join(kept).is_file(), "{id}/{kept}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_jobs_recover_their_error_detail() {
        let dir = temp_dir("failed");
        let (registry, _) = Registry::open(&dir).unwrap();
        let id = registry.create(spec()).unwrap();
        let body = ServeError::Internal("disk full".into()).to_body();
        write_atomic(&registry.job_dir(&id).join("error.json"), body.as_bytes()).unwrap();
        drop(registry);
        let (reopened, pending) = Registry::open(&dir).unwrap();
        assert!(pending.is_empty());
        let entry = reopened.get(&id).unwrap();
        assert_eq!(entry.state, JobState::Failed);
        assert_eq!(entry.error.as_deref(), Some("disk full"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
