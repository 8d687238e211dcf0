//! Session-layer oracles: kill/resume byte-identity, fault-injection
//! recovery, and warm-start reuse.
//!
//! These check the `critter-session` contracts end to end against the real
//! autotuner:
//!
//! * a sweep killed at *any* point — between a checkpoint's timeline append
//!   and its head publish included — and resumed from its checkpoint must
//!   finish to a report (and obs timeline) byte-identical to the
//!   uninterrupted sweep's;
//! * a fault-injected sweep must complete through retry + quarantine, and
//!   every configuration that survives must be bit-identical to the
//!   fault-free sweep's result — panic-only faults never perturb the
//!   surviving runs' virtual timing;
//! * warm-starting from a persisted profile must strictly reduce executed
//!   kernels while selecting the same winner.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use critter_algs::{Workload, WorkloadOutput};
use critter_autotune::{
    Autotuner, ProgressVerdict, SessionConfig, StalenessPolicy, TuningOptions, TuningSpace,
};
use critter_core::json::Reader;
use critter_core::{CritterEnv, ExecutionPolicy};
use critter_obs::EventKind;
use critter_sim::FaultPlan;
use proptest::prelude::*;

/// Scratch directory for one test, cleaned before use.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("critter-testkit-session-oracles")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A workload wrapper that panics (on rank 0) once the shared run counter
/// reaches `kill_after` — the "power cable" of the kill/resume oracle.
/// `name()` delegates, so the wrapped sweep has the same fingerprint as the
/// pristine one and its checkpoint resumes cleanly.
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
            panic!("session oracle: injected kill");
        }
        self.inner.run(env)
    }
}

fn options() -> TuningOptions {
    let space = TuningSpace::SlateCholesky;
    let mut opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
        .with_test_machine()
        .with_observe();
    opts.reset_between_configs = space.resets_between_configs();
    opts
}

fn workloads() -> Vec<Arc<dyn Workload>> {
    TuningSpace::SlateCholesky.smoke()
}

/// Canonical bytes of a report: the JSON snapshot plus the full Chrome
/// trace of the obs timeline (the strongest observable surface we have).
fn report_bytes(report: &critter_autotune::TuningReport) -> (String, String) {
    let json = report.to_json_string();
    let trace = report.obs.as_ref().expect("observed sweep").timeline.to_chrome_string();
    (json, trace)
}

/// The uninterrupted sweep, computed once (it is a pure function of the
/// codebase; proptest re-runs the oracle body many times).
fn baseline() -> &'static (String, String) {
    static BASELINE: OnceLock<(String, String)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let report =
            Autotuner::new(options()).tune_session(&workloads(), &SessionConfig::new()).unwrap();
        report_bytes(&report)
    })
}

/// Kill the sweep after `kill_after` simulated runs, then resume it from
/// the checkpoint with pristine workloads; returns the finished report's
/// bytes plus the session-log event kinds. With `workers` > 1 the kill may
/// land on a reference run a worker thread prefetched; it must surface (not
/// hang) all the same.
fn kill_and_resume(
    dir: &std::path::Path,
    kill_after: usize,
    workers: usize,
) -> ((String, String), Vec<EventKind>) {
    let session = SessionConfig::new().with_checkpoint_dir(dir);
    let tuner = Autotuner::new(options().with_workers(workers));
    let runs = Arc::new(AtomicUsize::new(0));
    let killers: Vec<Arc<dyn Workload>> = workloads()
        .into_iter()
        .map(|inner| {
            Arc::new(KillSwitch { inner, runs: Arc::clone(&runs), kill_after }) as Arc<dyn Workload>
        })
        .collect();
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the kill is expected; keep stderr quiet
    let killed =
        std::panic::catch_unwind(AssertUnwindSafe(|| tuner.tune_session(&killers, &session)));
    std::panic::set_hook(prior);
    assert!(killed.is_err(), "the kill switch must fire (kill_after {kill_after})");

    let resumed = tuner.tune_session(&workloads(), &session).expect("resume succeeds");
    let log = critter_session_log_kinds(&session);
    (report_bytes(&resumed), log)
}

fn critter_session_log_kinds(session: &SessionConfig) -> Vec<EventKind> {
    let path = session.log_path().expect("checkpointing session");
    let text = std::fs::read_to_string(path).expect("session log exists");
    text.lines()
        .map(|line| {
            let tape = serde_json::Tape::parse(line).unwrap();
            critter_obs::Event::read(Reader::root("session.log", tape.root())).unwrap().kind
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// Byte-identity under kill/resume, for a sampled kill point. The smoke
    /// sweep is 4 configurations × (full + tuned) = 8 simulated runs; any
    /// kill inside that range must leave a resumable checkpoint trail.
    #[test]
    fn killed_sweep_resumes_to_a_byte_identical_report(kill_after in 1usize..8) {
        for workers in [1, 4] {
            let dir = scratch(&format!("kill-{kill_after}-w{workers}"));
            let ((json, trace), log) = kill_and_resume(&dir, kill_after, workers);
            let (base_json, base_trace) = baseline();
            prop_assert_eq!(&json, base_json);
            prop_assert_eq!(&trace, base_trace);
            // Lifecycle facts live in the session log, never the report.
            // (A parallel sweep killed on an early prefetched reference may
            // die before its first checkpoint and restart from scratch.)
            prop_assert!(log.contains(&EventKind::Checkpoint));
            prop_assert!(workers > 1 || log.contains(&EventKind::Restore));
            prop_assert!(!json.contains("\"restore\""));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Run a checkpoint-every-unit session of `opts` in `dir` until the progress
/// hook preempts it at `units` committed units.
fn stop_at(dir: &std::path::Path, opts: TuningOptions, units: usize) -> SessionConfig {
    let session = SessionConfig::new().with_checkpoint_dir(dir);
    let stopped = Autotuner::new(opts)
        .with_progress(move |p| match p.units_done < units {
            true => ProgressVerdict::Continue,
            false => ProgressVerdict::Preempt,
        })
        .tune_session(&workloads(), &session)
        .expect_err("the hook preempts");
    assert!(stopped.is_preempted(), "got: {stopped}");
    session
}

/// The two crash windows the sidecar adds. A checkpoint appends its unit's
/// runs to `timeline.jsonl` and then publishes the head that counts them; a
/// kill in between leaves the appended lines — whole, or torn mid-line —
/// past what the last published head committed. The resume must cut them
/// off, re-run the unit and finish to the uninterrupted bytes.
#[test]
fn a_kill_between_timeline_append_and_head_publish_resumes_byte_identically() {
    for workers in [1, 4] {
        let opts = || options().with_workers(workers);
        // What the third unit's checkpoint appends: the sidecar of a session
        // stopped one unit later extends that of one stopped at unit 2.
        let ahead = scratch(&format!("tail-ahead-w{workers}"));
        let ahead_session = stop_at(&ahead, opts(), 3);
        let appended = std::fs::read(ahead_session.timeline_path().unwrap()).unwrap();
        for (window, torn) in [("whole", 0), ("torn", 17)] {
            let dir = scratch(&format!("tail-{window}-w{workers}"));
            let session = stop_at(&dir, opts(), 2);
            let sidecar = session.timeline_path().unwrap();
            let committed = std::fs::read(&sidecar).unwrap();
            assert!(appended.starts_with(&committed) && appended.len() > committed.len() + torn);
            std::fs::write(&sidecar, &appended[..appended.len() - torn]).unwrap();
            assert_eq!(torn == 0, std::fs::read(&sidecar).unwrap().ends_with(b"\n"));

            let resumed = Autotuner::new(opts()).tune_session(&workloads(), &session).unwrap();
            assert_eq!(&report_bytes(&resumed), baseline(), "{window} tail, workers {workers}");
            // The tail was cut, not kept: every run is in the sidecar once.
            let runs = resumed.obs.as_ref().unwrap().timeline.runs();
            let lines: String = runs
                .iter()
                .map(|run| serde_json::to_string(&run.to_json()).unwrap() + "\n")
                .collect();
            assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), lines);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&ahead);
    }
}

/// Regression: `observe` is not part of the fingerprint (it changes no
/// result), so a checkpoint written unobserved used to resume under
/// `with_observe()` with an empty timeline and return a report whose
/// timeline and metrics covered only the units after the resume. The head
/// now says whether it carries a timeline, and that resume is refused; the
/// converse loses nothing the caller asked for and stays legal.
#[test]
fn an_unobserved_checkpoint_refuses_an_observed_resume() {
    let mut unobserved = options();
    unobserved.observe = false;

    let dir = scratch("observe-mismatch");
    let session = stop_at(&dir, unobserved.clone(), 2);
    let err = Autotuner::new(options()).tune_session(&workloads(), &session).unwrap_err();
    assert!(matches!(err, critter_core::CritterError::Mismatch { .. }), "got: {err}");
    assert!(err.to_string().contains("written unobserved"), "the cause is named: {err}");
    // Refused, not consumed: the unobserved sweep still resumes.
    let plain = Autotuner::new(unobserved.clone()).tune(&workloads()).to_json_string();
    let resumed = Autotuner::new(unobserved.clone()).tune_session(&workloads(), &session).unwrap();
    assert_eq!(resumed.to_json_string(), plain);

    // An observed checkpoint resumed unobserved drops the timeline …
    let dir = scratch("observe-dropped");
    let session = stop_at(&dir, options(), 2);
    let resumed = Autotuner::new(unobserved).tune_session(&workloads(), &session).unwrap();
    assert!(resumed.obs.is_none());
    assert_eq!(resumed.to_json_string(), plain);
    // … for good: its heads no longer count the sidecar, so a later observed
    // resume is refused rather than handed the partial file.
    let err = Autotuner::new(options()).tune_session(&workloads(), &session).unwrap_err();
    assert!(matches!(err, critter_core::CritterError::Mismatch { .. }), "got: {err}");
    for name in ["observe-mismatch", "observe-dropped"] {
        let _ = std::fs::remove_dir_all(scratch(name));
    }
}

/// A checkpoint must refuse to resume a sweep with different options: the
/// envelope fingerprint catches the mismatch before any state is restored.
#[test]
fn checkpoint_refuses_a_different_sweep() {
    let dir = scratch("fingerprint-mismatch");
    let session = SessionConfig::new().with_checkpoint_dir(&dir);
    Autotuner::new(options()).tune_session(&workloads(), &session).unwrap();
    let err = Autotuner::new(options().with_seed(0xBAD5EED))
        .tune_session(&workloads(), &session)
        .unwrap_err();
    assert!(
        matches!(err, critter_core::CritterError::Mismatch { .. }),
        "expected a fingerprint mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-injection recovery: under a panic-only fault plan the sweep must
/// complete via retry (or quarantine), every surviving configuration must
/// be bit-identical to the fault-free sweep's (panic-only plans do not
/// perturb the virtual timing of runs that complete), and the fault/retry
/// decisions must be visible as obs events in the report's session run.
#[test]
fn fault_injected_sweep_recovers_to_the_fault_free_results() {
    let clean = Autotuner::new(options()).tune(&workloads());
    let plan = FaultPlan::new(17).with_rank_panics(3e-4);
    let sweep = |workers: usize| {
        Autotuner::new(options().with_faults(plan).with_retries(6).with_workers(workers))
            .tune(&workloads())
    };
    let faulty = sweep(1);
    // Reference-run faults fire on worker threads at workers = 4, yet land
    // in the report exactly where the serial sweep puts them.
    assert_eq!(report_bytes(&sweep(4)), report_bytes(&faulty), "workers must not move a fault");

    assert_eq!(faulty.configs.len(), clean.configs.len());
    let mut survived = 0;
    for (f, c) in faulty.configs.iter().zip(&clean.configs) {
        if !f.quarantined {
            assert_eq!(f, c, "surviving config {} must match the fault-free sweep", c.name);
            survived += 1;
        }
    }
    assert!(survived > 0, "at least one configuration must survive the fault plan");

    // The fault decisions are part of the report: a synthetic `session` run
    // carries them, and at least one fault must actually have fired (the
    // plan is deterministic, so this cannot flake).
    let obs = faulty.obs.as_ref().expect("observed sweep");
    let session_run = obs
        .timeline
        .runs()
        .iter()
        .find(|r| r.label == "session")
        .expect("fault-injected sweep records a session run");
    let faults = session_run.ranks[0].events.iter().filter(|e| e.kind == EventKind::Fault).count();
    let retries = session_run.ranks[0].events.iter().filter(|e| e.kind == EventKind::Retry).count();
    assert!(faults > 0, "the pinned fault plan must fire at least once");
    assert!(retries > 0, "every non-final fault must be followed by a retry");

    // The selection metrics skip quarantined configurations, so when the
    // fault-free winner survived, both sweeps agree on it.
    if !faulty.configs[clean.selected()].quarantined {
        assert_eq!(faulty.selected(), clean.selected(), "same winner under panics with retry");
    }
}

/// Warm-starting a sweep that resets statistics between configurations is
/// refused up front: the per-config reset would silently discard the seeded
/// models, so the engine must fail loudly instead.
#[test]
fn warm_start_refuses_per_config_resets() {
    let opts = options(); // SLATE protocol: reset_between_configs = true
    assert!(opts.reset_between_configs);
    let err = Autotuner::new(opts)
        .tune_session(
            &workloads(),
            &SessionConfig::new().with_warm_start("/nonexistent/profile.json"),
        )
        .unwrap_err();
    assert!(
        matches!(err, critter_core::CritterError::Mismatch { .. }),
        "expected a protocol mismatch, got: {err}"
    );
}

/// Warm-start reuse: persist a profile, seed a second session from it
/// (Capital's persist-models protocol), and the second sweep must execute
/// strictly fewer kernels while selecting the same winner.
#[test]
fn warm_start_executes_fewer_kernels_and_picks_the_same_winner() {
    let dir = scratch("warm-start");
    let profile = dir.join("profile.json");
    let space = TuningSpace::CapitalCholesky;
    let mut opts = TuningOptions::new(ExecutionPolicy::LocalPropagation, 0.25)
        .with_test_machine()
        .with_persist_models(true);
    opts.reset_between_configs = space.resets_between_configs();
    let tuner = Autotuner::new(opts);
    let workloads = space.smoke();

    let executed = |report: &critter_autotune::TuningReport| -> u64 {
        report
            .configs
            .iter()
            .flat_map(|c| c.pairs.iter().map(|(_, tuned)| tuned.kernels_executed))
            .sum()
    };

    let cold =
        tuner.tune_session(&workloads, &SessionConfig::new().with_profile_out(&profile)).unwrap();
    assert!(profile.exists(), "profile must be persisted");

    let warm =
        tuner.tune_session(&workloads, &SessionConfig::new().with_warm_start(&profile)).unwrap();
    assert!(
        executed(&warm) < executed(&cold),
        "warm start must execute strictly fewer kernels ({} vs {})",
        executed(&warm),
        executed(&cold)
    );
    assert_eq!(warm.selected(), cold.selected(), "warm start must not change the winner");

    // A stale profile is trusted less, so it re-verifies more than a fresh
    // one — but still less than a cold start.
    let stale = tuner
        .tune_session(
            &workloads,
            &SessionConfig::new().with_warm_start(&profile).with_staleness(
                StalenessPolicy::fresh().with_decay(0.25).with_variance_inflation(4.0),
            ),
        )
        .unwrap();
    assert!(executed(&stale) < executed(&cold));
    assert!(executed(&stale) >= executed(&warm));
    assert_eq!(stale.selected(), cold.selected());
    let _ = std::fs::remove_dir_all(&dir);
}
