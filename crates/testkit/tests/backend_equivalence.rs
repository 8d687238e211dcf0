//! The cross-backend oracle suite: the simulator's observable artifacts are
//! a pure function of the tuning problem, never of the machinery hosting the
//! simulated ranks. Every oracle here runs the same sweep on the `threads`
//! and `tasks` communicator backends, across matching-core shard counts, and
//! demands *byte identity* on the strongest surfaces we export:
//!
//! * the canonical `TuningReport` JSON snapshot,
//! * the Chrome trace of the observed timeline,
//! * the aggregated metrics registry.
//!
//! A property family additionally samples (space, policy, ε, seed, shard
//! count, schedule perturbation) tuples, perturbing only the `tasks` run —
//! wall-clock yields and sleeps must never leak into virtual time. Finally,
//! the PR 4 kill/resume oracles are replayed on the `tasks` backend, and
//! *across* backends: the checkpoint fingerprint deliberately excludes the
//! backend, so a sweep killed under `threads` must resume under `tasks` to
//! the same bytes.
//!
//! CI quick profile: set `CRITTER_EQUIV_QUICK=1` to shrink the deterministic
//! shard matrix and `PROPTEST_CASES=N` to bound the sampled family.

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use critter_algs::{Workload, WorkloadOutput};
use critter_autotune::{Autotuner, SessionConfig, TuningOptions, TuningReport, TuningSpace};
use critter_core::{CritterEnv, ExecutionPolicy};
use critter_sim::{BackendKind, PerturbParams};
use proptest::prelude::*;

/// Spaces the sampled family draws from (distinct rank counts and
/// statistics-reset protocols).
const SPACES: [TuningSpace; 3] =
    [TuningSpace::SlateCholesky, TuningSpace::CandmcQr, TuningSpace::CapitalCholesky];

/// Policies the sampled family draws from: the count-scaling extremes plus
/// the paper's headline online policy.
const POLICIES: [ExecutionPolicy; 3] = [
    ExecutionPolicy::ConditionalExecution,
    ExecutionPolicy::OnlinePropagation,
    ExecutionPolicy::EagerPropagation,
];

/// Shard counts the deterministic matrix exercises: auto, the degenerate
/// single shard (maximum contention), a non-power-of-two, and a spread.
fn shard_counts() -> Vec<usize> {
    if std::env::var_os("CRITTER_EQUIV_QUICK").is_some() {
        vec![0, 1]
    } else {
        vec![0, 1, 3, 8]
    }
}

/// Explicit case count, honoring the `PROPTEST_CASES` override (the CI quick
/// profile sets it low; an explicit struct literal would pin it).
fn cases(default_cases: u32) -> ProptestConfig {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig { cases }
}

/// Canonical bytes of one observed sweep: (report JSON, Chrome trace,
/// metrics registry).
fn artifact_bytes(report: &TuningReport) -> (String, String, String) {
    let obs = report.obs.as_ref().expect("observed sweep");
    (report.to_json_string(), obs.timeline.to_chrome_string(), obs.metrics_string())
}

fn observed(space: TuningSpace, policy: ExecutionPolicy, epsilon: f64, seed: u64) -> TuningOptions {
    let mut opts =
        TuningOptions::new(policy, epsilon).with_test_machine().with_observe().with_seed(seed);
    opts.reset_between_configs = space.resets_between_configs();
    opts
}

fn sweep(space: TuningSpace, opts: TuningOptions) -> TuningReport {
    Autotuner::new(opts).tune(&space.smoke())
}

/// The deterministic matrix: one smoke sweep per backend × shard count, all
/// byte-identical to the `threads`/auto-shards reference on every surface.
#[test]
fn every_backend_and_shard_count_yields_byte_identical_artifacts() {
    let space = TuningSpace::SlateCholesky;
    let base = || observed(space, ExecutionPolicy::OnlinePropagation, 0.25, 7);
    let (ref_json, ref_trace, ref_metrics) = artifact_bytes(&sweep(space, base()));
    for backend in BackendKind::ALL {
        for &shards in &shard_counts() {
            if backend == BackendKind::Threads && shards == 0 {
                continue; // the reference itself
            }
            let report = sweep(space, base().with_backend(backend).with_shards(shards));
            let (json, trace, metrics) = artifact_bytes(&report);
            assert_eq!(json, ref_json, "report JSON diverged on {backend} shards={shards}");
            assert_eq!(trace, ref_trace, "Chrome trace diverged on {backend} shards={shards}");
            assert_eq!(metrics, ref_metrics, "metrics diverged on {backend} shards={shards}");
        }
    }
}

proptest! {
    #![proptest_config(cases(5))]

    /// The sampled family: for a random (space, policy, ε, seed, shards,
    /// perturbation) tuple, a perturbed `tasks` sweep is byte-identical to
    /// the unperturbed `threads` sweep of the same problem.
    #[test]
    fn sampled_problems_agree_across_backends(
        space_pick in 0usize..SPACES.len(),
        policy_pick in 0usize..POLICIES.len(),
        eps_pick in 0usize..3,
        seed in 0u64..1 << 16,
        shards in 0usize..9,
        perturb in (any::<bool>(), 0u64..1 << 10, 0u32..50, 0u32..20, 0u64..40)
            .prop_map(|(on, seed, y, s, us)| on.then_some((seed, y, s, us))),
    ) {
        let space = SPACES[space_pick];
        let policy = POLICIES[policy_pick];
        let epsilon = [1.0, 0.25, 0.0625][eps_pick];
        let reference = artifact_bytes(&sweep(space, observed(space, policy, epsilon, seed)));
        let mut opts = observed(space, policy, epsilon, seed)
            .with_backend(BackendKind::Tasks)
            .with_shards(shards);
        if let Some((pseed, yield_pct, sleep_pct, max_sleep_us)) = perturb {
            opts = opts.with_perturb(PerturbParams {
                seed: pseed,
                yield_prob: yield_pct as f64 / 100.0,
                sleep_prob: sleep_pct as f64 / 100.0,
                max_sleep_us,
            });
        }
        let tasks = artifact_bytes(&sweep(space, opts));
        prop_assert_eq!(&tasks.0, &reference.0);
        prop_assert_eq!(&tasks.1, &reference.1);
        prop_assert_eq!(&tasks.2, &reference.2);
    }
}

// ---------------------------------------------------------------------------
// Kill/resume byte-identity on (and across) backends.
// ---------------------------------------------------------------------------

/// Scratch directory for one test, cleaned before use.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("critter-testkit-backend-equivalence")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A workload wrapper that panics (on rank 0) once the shared run counter
/// reaches `kill_after`; `name()` delegates so the wrapped sweep fingerprints
/// identically to the pristine one (see `session_oracles.rs`).
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
            panic!("backend oracle: injected kill");
        }
        self.inner.run(env)
    }
}

/// Kill a `kill_backend` sweep after `kill_after` simulated runs, resume it
/// from the checkpoint on `resume_backend`, and return the finished bytes.
fn kill_and_resume(
    dir: &std::path::Path,
    kill_after: usize,
    kill_backend: BackendKind,
    resume_backend: BackendKind,
) -> (String, String, String) {
    let space = TuningSpace::SlateCholesky;
    let opts =
        |backend| observed(space, ExecutionPolicy::LocalPropagation, 0.25, 0).with_backend(backend);
    let session = SessionConfig::new().with_checkpoint_dir(dir);
    let runs = Arc::new(AtomicUsize::new(0));
    let killers: Vec<Arc<dyn Workload>> = space
        .smoke()
        .into_iter()
        .map(|inner| {
            Arc::new(KillSwitch { inner, runs: Arc::clone(&runs), kill_after }) as Arc<dyn Workload>
        })
        .collect();
    let prior = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the kill is expected; keep stderr quiet
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Autotuner::new(opts(kill_backend)).tune_session(&killers, &session)
    }));
    std::panic::set_hook(prior);
    assert!(killed.is_err(), "the kill switch must fire (kill_after {kill_after})");

    let resumed = Autotuner::new(opts(resume_backend))
        .tune_session(&space.smoke(), &session)
        .expect("resume succeeds");
    artifact_bytes(&resumed)
}

/// The uninterrupted sweep the kill/resume variants must reproduce, computed
/// on the `threads` backend: resuming on *any* backend lands on these bytes.
fn uninterrupted_baseline() -> (String, String, String) {
    let space = TuningSpace::SlateCholesky;
    let opts = observed(space, ExecutionPolicy::LocalPropagation, 0.25, 0);
    let report = Autotuner::new(opts).tune_session(&space.smoke(), &SessionConfig::new()).unwrap();
    artifact_bytes(&report)
}

#[test]
fn tasks_sweep_killed_and_resumed_is_byte_identical() {
    let dir = scratch("kill-tasks-resume-tasks");
    let resumed = kill_and_resume(&dir, 3, BackendKind::Tasks, BackendKind::Tasks);
    assert_eq!(resumed, uninterrupted_baseline());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_killed_on_threads_resumes_on_tasks_byte_identically() {
    // The checkpoint fingerprint excludes the backend (it cannot change the
    // result), so a checkpoint written under one backend is a valid resume
    // point for the other.
    let dir = scratch("kill-threads-resume-tasks");
    let resumed = kill_and_resume(&dir, 5, BackendKind::Threads, BackendKind::Tasks);
    assert_eq!(resumed, uninterrupted_baseline());
    let _ = std::fs::remove_dir_all(&dir);
}
