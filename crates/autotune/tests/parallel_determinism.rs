//! Property tests of the sweep engine's determinism guarantee: a tuning
//! sweep produces a bit-identical [`TuningReport`] no matter how many worker
//! threads prefetch the reference runs. Every `f64` in the report — elapsed
//! makespans, predicted times, path metrics — must match exactly, because
//! noise streams are keyed by run identity, never by dispatch order.
//!
//! The second half runs the engine's other features — checkpoint/resume,
//! fault retry/quarantine, the progress hook — at `workers` ∈ {1, 4} and
//! demands the same bytes (report, Chrome trace, every `checkpoint.json` and
//! the `timeline.jsonl` it counts), including across a kill or a preemption
//! resumed at the *other* count.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use critter_algs::{Workload, WorkloadOutput};
use critter_autotune::{
    Autotuner, ProgressVerdict, SessionConfig, TuningOptions, TuningReport, TuningSpace,
};
use critter_core::{CritterEnv, ExecutionPolicy};
use critter_obs::EventKind;
use critter_sim::FaultPlan;
use proptest::prelude::*;

fn policy_from(index: usize) -> ExecutionPolicy {
    [
        ExecutionPolicy::Full,
        ExecutionPolicy::ConditionalExecution,
        ExecutionPolicy::LocalPropagation,
        ExecutionPolicy::OnlinePropagation,
        ExecutionPolicy::APrioriPropagation,
        ExecutionPolicy::EagerPropagation,
    ][index % 6]
}

fn space_from(index: usize) -> TuningSpace {
    [TuningSpace::SlateCholesky, TuningSpace::SlateQr, TuningSpace::CapitalCholesky][index % 3]
}

fn tune_with_workers(
    workloads: &[Arc<dyn Workload>],
    policy: ExecutionPolicy,
    epsilon: f64,
    reps: usize,
    reset: bool,
    allocation: u64,
    workers: usize,
) -> critter_autotune::TuningReport {
    let mut opts = TuningOptions::new(policy, epsilon).with_test_machine().with_workers(workers);
    opts.reps = reps;
    opts.reset_between_configs = reset;
    opts.allocation = allocation;
    Autotuner::new(opts).tune(workloads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The central guarantee: serial (`workers = 1`) and parallel schedules
    /// of the same sweep agree bit for bit, across policies, tolerances,
    /// repetition counts, reset protocols, and allocations.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial(
        policy_idx in 0usize..6,
        space_idx in 0usize..3,
        eps_scale in 1u32..5,
        reps in 1usize..3,
        reset in any::<bool>(),
        allocation in 0u64..3,
        workers in 2usize..5,
    ) {
        let policy = policy_from(policy_idx);
        let epsilon = 0.25 * eps_scale as f64;
        let workloads = space_from(space_idx).smoke();
        let serial =
            tune_with_workers(&workloads, policy, epsilon, reps, reset, allocation, 1);
        let parallel =
            tune_with_workers(&workloads, policy, epsilon, reps, reset, allocation, workers);
        prop_assert_eq!(serial, parallel);
    }
}

/// Deterministic spot check kept outside the property harness so a failure
/// pinpoints the scheduler rather than a sampled input: the a-priori policy
/// exercises all three run kinds (reference, offline, selective) at once.
#[test]
fn apriori_parallel_matches_serial_exactly() {
    let workloads = TuningSpace::CandmcQr.smoke();
    let serial =
        tune_with_workers(&workloads, ExecutionPolicy::APrioriPropagation, 0.25, 2, true, 1, 1);
    let parallel =
        tune_with_workers(&workloads, ExecutionPolicy::APrioriPropagation, 0.25, 2, true, 1, 8);
    assert_eq!(serial, parallel);
    // Sanity: the sweep actually did work on every configuration.
    assert!(!serial.configs.is_empty());
    for c in &serial.configs {
        assert_eq!(c.pairs.len(), 2);
        assert!(!c.offline.is_empty());
        for (full, tuned) in &c.pairs {
            assert!(full.elapsed > 0.0);
            assert!(tuned.elapsed > 0.0);
        }
    }
}

/// Reports must also be reproducible across repeated identical calls (the
/// pooled rank threads carry no state between simulations).
#[test]
fn repeated_parallel_sweeps_are_reproducible() {
    let workloads = TuningSpace::SlateCholesky.smoke();
    let a = tune_with_workers(&workloads, ExecutionPolicy::OnlinePropagation, 0.5, 1, true, 0, 4);
    let b = tune_with_workers(&workloads, ExecutionPolicy::OnlinePropagation, 0.5, 1, true, 0, 4);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------------
// Checkpoints, faults and the progress hook at every worker count
// ---------------------------------------------------------------------------

/// Scratch checkpoint directory for one test input, cleaned before use.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("critter-autotune-parallel-determinism")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn smoke() -> Vec<Arc<dyn Workload>> {
    TuningSpace::SlateCholesky.smoke()
}

/// An observed 4-configuration × 2-repetition sweep: 8 units, and with the
/// a-priori policy all three run kinds per unit.
fn session_options(policy: ExecutionPolicy, workers: usize) -> TuningOptions {
    TuningOptions::new(policy, 0.25)
        .with_test_machine()
        .with_reps(2)
        .with_observe()
        .with_workers(workers)
}

/// A checkpoint as it sits on disk: the `checkpoint.json` head and the
/// `timeline.jsonl` sidecar whose committed prefix it counts.
fn checkpoint_files(dir: &Path) -> (String, String) {
    let read = |name: &str| std::fs::read_to_string(dir.join(name));
    (read("checkpoint.json").expect("checkpoint exists"), read("timeline.jsonl").expect("sidecar"))
}

/// The strongest observable surface of a finished session: report JSON,
/// Chrome trace of the obs timeline, and the final checkpoint files.
fn session_bytes(report: &TuningReport, dir: &Path) -> (String, String, (String, String)) {
    (
        report.to_json_string(),
        report.obs.as_ref().expect("observed sweep").timeline.to_chrome_string(),
        checkpoint_files(dir),
    )
}

/// What [`checkpointed_sweep`] returns: the finished session's bytes and the
/// checkpoint files the hook found at every unit boundary.
type Swept = ((String, String, (String, String)), Vec<(String, String)>);

/// Run a checkpoint-every-unit session to completion, recording the
/// checkpoint files the hook finds at every unit boundary.
fn checkpointed_sweep(opts: TuningOptions, tag: &str) -> Swept {
    let dir = scratch(tag);
    let session = SessionConfig::new().with_checkpoint_dir(&dir);
    let trail: Arc<Mutex<Vec<(String, String)>>> = Arc::default();
    let (sink, ckpt) = (Arc::clone(&trail), dir.clone());
    let report = Autotuner::new(opts)
        .with_progress(move |p| {
            if p.units_done > 0 {
                sink.lock().unwrap().push(checkpoint_files(&ckpt));
            }
            ProgressVerdict::Continue
        })
        .tune_session(&smoke(), &session)
        .expect("sweep completes");
    let bytes = session_bytes(&report, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let trail = std::mem::take(&mut *trail.lock().unwrap());
    (bytes, trail)
}

/// `kind:run-kind` of every session event in a `checkpoint.json`, e.g.
/// `fault:full`, `retry:tuned`, `quarantine:<config name>`.
fn session_events(checkpoint: &str) -> Vec<String> {
    let doc: serde_json::Value = serde_json::from_str(checkpoint).expect("checkpoint parses");
    let events = doc.get("payload").and_then(|p| p.get("session_events")?.as_array());
    events
        .expect("checkpoint payload lists session_events")
        .iter()
        .map(|e| {
            let text = |key: &str| e.get(key).and_then(|v| v.as_str()).expect("event field");
            format!("{}:{}", text("kind"), text("label").rsplit('/').next().unwrap())
        })
        .collect()
}

/// Report, trace and *every* checkpoint a sweep writes are the same bytes at
/// workers = 1 and workers = 4 — fault-free and under two pinned fault plans
/// (deterministic, so they cannot flake). The first quarantines a
/// configuration on its *reference* run, which at workers = 4 dies on a
/// worker while the chain has already run ahead; the second quarantines on
/// a chain run and retries a later reference.
#[test]
fn checkpointed_and_faulted_sweeps_write_the_same_bytes_at_every_worker_count() {
    /// One input: a tag, the armed plan with its retry budget, and the
    /// session events the plan is pinned for.
    type Input = (&'static str, Option<(FaultPlan, usize)>, &'static [&'static str]);
    let inputs: [Input; 3] = [
        ("clean", None, &[]),
        (
            "reference-quarantine",
            Some((FaultPlan::new(28).with_rank_panics(2e-3), 2)),
            &["fault:full", "retry:full", "quarantine:", "retry:offline", "retry:tuned"],
        ),
        (
            "chain-quarantine",
            Some((FaultPlan::new(23).with_rank_panics(1e-3), 1)),
            &["fault:offline", "quarantine:", "retry:full"],
        ),
    ];
    for (tag, faults, must_see) in inputs {
        let sweep = |workers: usize| {
            let mut opts = session_options(ExecutionPolicy::APrioriPropagation, workers);
            if let Some((plan, retries)) = faults {
                opts = opts.with_faults(plan).with_retries(retries);
            }
            checkpointed_sweep(opts, &format!("bytes-{tag}-w{workers}"))
        };
        let (serial, serial_trail) = sweep(1);
        let (parallel, parallel_trail) = sweep(4);
        assert_eq!(serial.0, parallel.0, "{tag}: report bytes");
        assert_eq!(serial.1, parallel.1, "{tag}: chrome trace bytes");
        assert_eq!(serial.2, parallel.2, "{tag}: final checkpoint.json and timeline.jsonl bytes");
        assert_eq!(serial_trail.len(), parallel_trail.len(), "{tag}: checkpoints written");
        for (boundary, (a, b)) in serial_trail.iter().zip(&parallel_trail).enumerate() {
            assert_eq!(a.0, b.0, "{tag}: checkpoint.json at boundary {boundary}");
            assert_eq!(a.1, b.1, "{tag}: timeline.jsonl at boundary {boundary}");
        }
        // The plan must exercise what it is pinned for.
        let events = session_events(&serial.2 .0);
        for needle in must_see {
            assert!(
                events.iter().any(|e| e.starts_with(needle)),
                "{tag}: no `{needle}` among {events:?}"
            );
        }
    }
}

/// Panics on rank 0 once the shared run counter reaches `kill_after` — and
/// on every run after it, on whichever thread runs it. `name()` delegates,
/// so the checkpoint resumes with the pristine workloads.
struct KillSwitch {
    inner: Arc<dyn Workload>,
    runs: Arc<AtomicUsize>,
    kill_after: usize,
}

impl Workload for KillSwitch {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        if env.rank() == 0 && self.runs.fetch_add(1, Ordering::SeqCst) >= self.kill_after {
            panic!("parallel determinism: injected kill");
        }
        self.inner.run(env)
    }
}

/// Kill a session after `kill_after` simulated runs at `killed_workers`,
/// resume it at `resumed_workers`, and return the finished session's bytes.
fn kill_and_resume(
    kill_after: usize,
    killed_workers: usize,
    resumed_workers: usize,
) -> (String, String, (String, String)) {
    let dir = scratch(&format!("kill-{kill_after}-w{killed_workers}"));
    let session = SessionConfig::new().with_checkpoint_dir(&dir);
    let runs = Arc::new(AtomicUsize::new(0));
    let killers: Vec<Arc<dyn Workload>> = smoke()
        .into_iter()
        .map(|inner| {
            Arc::new(KillSwitch { inner, runs: Arc::clone(&runs), kill_after }) as Arc<dyn Workload>
        })
        .collect();
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the kill is expected; keep stderr quiet
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Autotuner::new(session_options(ExecutionPolicy::LocalPropagation, killed_workers))
            .tune_session(&killers, &session)
    }));
    std::panic::set_hook(prior);
    assert!(killed.is_err(), "the kill switch must fire (kill_after {kill_after})");

    let resumed =
        Autotuner::new(session_options(ExecutionPolicy::LocalPropagation, resumed_workers))
            .tune_session(&smoke(), &session)
            .expect("resume succeeds");
    let bytes = session_bytes(&resumed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A checkpoint is a fact about the sweep, not about the schedule that
    /// wrote it: killed at a sampled run at workers = 4 and resumed at
    /// workers = 1 — and the reverse — the session finishes to the bytes of
    /// the uninterrupted serial sweep. (8 units × 2 runs = 16 runs.)
    #[test]
    fn a_killed_sweep_resumes_at_the_other_worker_count(
        kill_after in 1usize..16,
        kill_parallel in any::<bool>(),
    ) {
        let (baseline, _) = checkpointed_sweep(
            session_options(ExecutionPolicy::LocalPropagation, 1),
            &format!("kill-baseline-{kill_after}-{kill_parallel}"),
        );
        let (killed, resumed) = if kill_parallel { (4, 1) } else { (1, 4) };
        prop_assert_eq!(kill_and_resume(kill_after, killed, resumed), baseline);
    }
}

/// A progress hook that preempts mid-sweep at workers = 4: the session
/// resumes byte-identically, and across both sessions the hook sees every
/// unit boundary exactly once, in order, on the calling thread's schedule.
#[test]
fn preempted_parallel_sweep_resumes_byte_identically_and_reports_units_in_order() {
    let opts = session_options(ExecutionPolicy::APrioriPropagation, 4);
    let total = smoke().len() * 2;
    let (baseline, _) =
        checkpointed_sweep(session_options(ExecutionPolicy::APrioriPropagation, 1), "preempt-base");

    let dir = scratch("preempt-w4");
    let session = SessionConfig::new().with_checkpoint_dir(&dir);
    let seen: Arc<Mutex<Vec<usize>>> = Arc::default();
    let preempted_once = Arc::new(AtomicBool::new(false));
    let tuner = {
        let (seen, once) = (Arc::clone(&seen), Arc::clone(&preempted_once));
        Autotuner::new(opts).with_progress(move |p| {
            assert_eq!(p.units_total, total);
            seen.lock().unwrap().push(p.units_done);
            if p.units_done == 3 && !once.swap(true, Ordering::SeqCst) {
                ProgressVerdict::Preempt
            } else {
                ProgressVerdict::Continue
            }
        })
    };
    let err = tuner.tune_session(&smoke(), &session).expect_err("the hook preempts at unit 3");
    assert!(err.is_preempted(), "expected Preempted, got {err}");
    let resumed = tuner.tune_session(&smoke(), &session).expect("resume succeeds");

    // First session: the up-front call, then units 1..=3. Second session:
    // the restored count up front, then every remaining unit.
    let expected: Vec<usize> = (0..=3).chain(3..=total).collect();
    assert_eq!(*seen.lock().unwrap(), expected);
    let (json, trace, _) = session_bytes(&resumed, &dir);
    assert_eq!((json, trace), (baseline.0, baseline.1));
    let log = std::fs::read_to_string(dir.join("session.log")).expect("session log exists");
    for kind in [EventKind::Preempt, EventKind::Restore] {
        assert!(log.contains(&format!("\"{}\"", kind.name())), "session.log lacks {kind:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint costs what the unit it commits produced, not what the sweep
/// has produced so far: the head stays small (results and stores, no
/// timeline), and every observed run is written to the sidecar exactly once.
#[test]
fn a_checkpoint_writes_each_observed_run_once_and_a_head_that_does_not_grow_with_them() {
    let opts = session_options(ExecutionPolicy::LocalPropagation, 1);
    let ((_, _, (_, sidecar)), trail) = checkpointed_sweep(opts.clone(), "cost");
    assert_eq!(trail.len(), 8, "4 configurations × 2 repetitions, one checkpoint each");

    // The sidecar only grows, by the unit's own runs: its final bytes are the
    // report's runs rendered one line each, in order, once.
    let report = Autotuner::new(opts).tune(&smoke());
    let runs = report.obs.as_ref().expect("observed sweep").timeline.runs();
    let lines: Vec<String> =
        runs.iter().map(|run| serde_json::to_string(&run.to_json()).unwrap() + "\n").collect();
    assert_eq!(sidecar, lines.concat());
    assert_eq!(runs.len(), 16, "a reference and a tuned run per unit");
    let mut written = 0;
    for (unit, (_, at_boundary)) in trail.iter().enumerate() {
        written += lines[2 * unit].len() + lines[2 * unit + 1].len();
        assert_eq!(at_boundary.len(), written, "boundary {unit} appended more than its own unit");
    }

    // The head carries per-unit results (a few hundred bytes each) and the
    // stores, never the runs: from the first configuration boundary to the
    // last it grows by far less than one unit's timeline. (A head inside a
    // configuration holds the stores it was entered with, which on this
    // resetting space are nearly empty.)
    let (first, last) = (trail[1].0.len(), trail[7].0.len());
    let unit_timeline = lines[0].len() + lines[1].len();
    assert!(
        last < first + unit_timeline / 2 && last < 2 * first,
        "head grew from {first} to {last} bytes (one unit's timeline is {unit_timeline})"
    );
}

/// Checkpoints written by older commits must still restore — at either
/// worker count — and finish to the bytes of an uninterrupted sweep:
///
/// * `checkpoint-pr11.json`, written before the checkpoint format got one
///   codec, preempted at unit 3 of 8 on a resetting space;
/// * the last commit whose heads held two store fleets, `stores` beside
///   `entry_stores`, on an a-priori sweep that keeps its kernel models,
///   preempted inside a configuration (unit 3, where `entry_stores` is live)
///   and at a configuration boundary (unit 4, where `stores` is). Restoring
///   either from the other fleet changes the finished report.
#[test]
fn checkpoint_written_by_the_parent_commit_restores() {
    use ExecutionPolicy::{APrioriPropagation, LocalPropagation};
    for (fixture, policy, persist, stopped) in [
        ("checkpoint-pr11.json", LocalPropagation, false, 3),
        ("checkpoint-two-fleets-unit3.json", APrioriPropagation, true, 3),
        ("checkpoint-two-fleets-unit4.json", APrioriPropagation, true, 4),
    ] {
        restores_to_the_uninterrupted_bytes(fixture, policy, persist, stopped);
    }
}

fn restores_to_the_uninterrupted_bytes(
    fixture: &str,
    policy: ExecutionPolicy,
    persist: bool,
    stopped: usize,
) {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let options = |workers: usize| {
        TuningOptions::new(policy, 0.25)
            .with_test_machine()
            .with_reps(2)
            .with_persist_models(persist)
            .with_workers(workers)
    };
    let clean = Autotuner::new(options(1)).tune(&smoke()).to_json_string();
    for workers in [1, 4] {
        let dir = scratch(&format!("parent-ckpt-{stopped}-{persist}-w{workers}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(&fixture, dir.join("checkpoint.json")).unwrap();
        let first: Arc<Mutex<Option<usize>>> = Arc::default();
        let sink = Arc::clone(&first);
        let report = Autotuner::new(options(workers))
            .with_progress(move |p| {
                sink.lock().unwrap().get_or_insert(p.units_done);
                ProgressVerdict::Continue
            })
            .tune_session(&smoke(), &SessionConfig::new().with_checkpoint_dir(&dir))
            .expect("the parent commit's checkpoint restores");
        let at = *first.lock().unwrap();
        assert_eq!(at, Some(stopped), "{fixture:?}: resume must start at the stored boundary");
        assert_eq!(report.to_json_string(), clean, "{fixture:?}: workers = {workers}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
