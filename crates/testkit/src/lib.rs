//! # critter-testkit
//!
//! Executable conformance oracles for the critter-rs stack. Where the unit
//! tests of the individual crates check local contracts, this crate checks
//! the *statistical* claims the paper's framework rests on, end to end
//! against the real simulator and autotuner:
//!
//! * **CI coverage** (`tests/ci_coverage.rs`) — the per-kernel confidence
//!   intervals must cover the noise model's true mean at their nominal rate;
//! * **√k scaling** (`tests/sqrt_k_scaling.rs`) — inflating the critical-path
//!   count `k` must cut samples-to-convergence like `1/k`;
//! * **policy conformance** (`tests/policy_conformance.rs`) — every selective
//!   policy must land within the ε-derived bound of the Full-policy winner,
//!   and skip fractions must respect the paper's policy ordering;
//! * **schedule-perturbation fuzzing** (`tests/perturbation_fuzz.rs`) —
//!   random wall-clock yields/delays in the rank threads must leave every
//!   report bit-identical, plus metamorphic symmetries (rank relabeling,
//!   grid-dimension permutation) under a noise-free machine;
//! * **golden reports** (`tests/golden_reports.rs`) — one small tune per
//!   workload space serialized against committed JSON fixtures, regenerated with
//!   `CRITTER_BLESS=1` or `cargo run -p critter-testkit --bin bless`;
//! * **shape determinism** (`tests/shape_determinism.rs`) — one digest per
//!   smoke space × policy cell, blessed while kernel bodies still ran, that
//!   sweeps running no body must reproduce on every backend.
//!
//! This library crate holds the shared machinery: kernel-sample collection
//! through the real interception layer, the noise model's analytic truth,
//! the golden-tune definitions, and the snapshot check/bless helper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use critter_algs::Workload;
use critter_autotune::{Autotuner, TuningOptions, TuningReport, TuningSpace};
use critter_core::{ComputeOp, CritterConfig, CritterEnv, ExecutionPolicy, KernelStore};
use critter_machine::{KernelClass, MachineModel, MachineParams, NoiseParams};
use critter_sim::{run_simulation, BackendKind, SimConfig};

/// The probe kernel every sampling helper uses: a square GEMM tile.
pub const PROBE_M: usize = 16;
/// Probe tile width.
pub const PROBE_N: usize = 16;
/// Probe tile depth.
pub const PROBE_K: usize = 16;

/// Flop count of the probe kernel.
pub fn probe_flops() -> f64 {
    2.0 * (PROBE_M * PROBE_N * PROBE_K) as f64
}

/// The single-rank noisy machine the statistical oracles sample from.
pub fn probe_machine(seed: u64) -> MachineModel {
    MachineModel::new(MachineParams::test_machine(), NoiseParams::cluster(), 1, seed, 0)
}

/// Collect `n` measured execution times of the probe kernel by running a
/// one-rank simulation through the full interception layer (`CritterEnv`
/// under the Full policy): every sample passes through `RankCtx::compute`,
/// the store's Welford accumulator, and the report plumbing — exactly the
/// path a tuning run takes.
pub fn sample_kernel_times(seed: u64, n: usize) -> Vec<f64> {
    let machine = probe_machine(seed).shared();
    let report = run_simulation(SimConfig::new(1), machine, move |ctx| {
        let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
        let samples: Vec<f64> = (0..n)
            .map(|_| env.kernel(ComputeOp::Gemm, PROBE_M, PROBE_N, PROBE_K, probe_flops(), || {}))
            .collect();
        let _ = env.finish();
        samples
    });
    report.outputs.into_iter().next().expect("one rank")
}

/// The analytic mean of the probe kernel's sampled time on `seed`'s machine:
/// `base_cost · node_factor(rank 0) · E[lognormal(0, σ)]`, with
/// `E[lognormal(0, σ)] = exp(σ²/2)`. This is the "truth" the CI-coverage
/// oracle checks the intervals against.
pub fn true_kernel_mean(seed: u64) -> f64 {
    let machine = probe_machine(seed);
    let base = machine.compute_time_exact(KernelClass::Gemm, probe_flops());
    let node = machine.noise().node_factor(machine.topology(), 0);
    let sigma = machine.noise().params().compute_sigma;
    base * node * (sigma * sigma / 2.0).exp()
}

/// One golden-tune definition: a named, fully pinned tuning sweep.
pub struct GoldenTune {
    /// Fixture stem (`fixtures/<name>.json`).
    pub name: &'static str,
    /// The configuration space swept.
    pub space: TuningSpace,
    /// Selective policy under test.
    pub policy: ExecutionPolicy,
    /// Confidence tolerance ε.
    pub epsilon: f64,
}

impl GoldenTune {
    /// Run the sweep. Everything is pinned (test machine, cluster noise,
    /// fixed seed, one repetition, serial schedule), so the resulting
    /// [`TuningReport`] — and therefore its canonical JSON — is a pure
    /// function of the codebase.
    pub fn run(&self) -> TuningReport {
        let mut opts = TuningOptions::new(self.policy, self.epsilon).with_test_machine();
        opts.reset_between_configs = self.space.resets_between_configs();
        let workloads: Vec<Arc<dyn Workload>> = self.space.smoke();
        Autotuner::new(opts).tune(&workloads)
    }
}

/// Name of the committed golden trace fixture
/// (`fixtures/trace-cholesky-online-eps25.json`).
pub const GOLDEN_TRACE_NAME: &str = "trace-cholesky-online-eps25";

/// The pinned observed sweep behind the golden trace fixture: a smoke-sized
/// SLATE-Cholesky tune under online propagation at ε = 0.25 with
/// observability recording on, serialized as a Chrome trace-event JSON.
/// Everything is pinned (test machine, cluster noise, fixed seed, serial
/// schedule), so the bytes are a pure function of the codebase — the trace
/// counterpart of the golden reports.
pub fn golden_trace() -> String {
    let mut opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25)
        .with_test_machine()
        .with_observe();
    let space = TuningSpace::SlateCholesky;
    opts.reset_between_configs = space.resets_between_configs();
    let report = Autotuner::new(opts).tune(&space.smoke());
    report.obs.expect("observed sweep").timeline.to_chrome_string()
}

/// Name of the committed shape-digest table (`fixtures/shape-digests.json`).
pub const SHAPE_DIGESTS_NAME: &str = "shape-digests";

/// The shape-digest table: one cell per smoke space × policy at ε = 0.25
/// and the default seed and machine, plus online propagation with the
/// §VIII extrapolation per space. A cell is one observed sweep on
/// `backend`, digested with FNV-1a over its canonical report JSON followed
/// by its observability metrics text. The result is the table's canonical
/// JSON, one `"<space>/<policy>": "<hex digest>"` line per cell.
///
/// A sweep's schedule is a function of tile shapes alone, so no value a
/// kernel body computes may move a cell: the table written while bodies
/// still ran is the one every later build must reproduce, on every backend.
pub fn shape_digests(backend: BackendKind) -> String {
    use std::hash::Hasher;
    let mut cells = serde_json::Map::new();
    for space in TuningSpace::ALL {
        let runs = ExecutionPolicy::SHORT_NAMES
            .iter()
            .map(|&(name, policy)| (name, policy, false))
            .chain([("online-extrapolate", ExecutionPolicy::OnlinePropagation, true)]);
        for (name, policy, extrapolate) in runs {
            let mut opts = TuningOptions::new(policy, 0.25).with_backend(backend).with_observe();
            opts.reset_between_configs = space.resets_between_configs();
            opts.extrapolate = extrapolate;
            let report = Autotuner::new(opts).tune(&space.smoke());
            let mut digest = critter_core::fnv::FnvHasher::default();
            digest.write(report.to_json_string().as_bytes());
            digest.write(report.obs.expect("observed sweep").metrics_string().as_bytes());
            let cell = format!("{}/{name}", space.name());
            cells.insert(cell, serde_json::Value::String(format!("{:016x}", digest.finish())));
        }
    }
    critter_core::json::canonical_text(&serde_json::Value::Object(cells))
}

/// The committed golden tunes: one small sweep per workload space, on
/// different policies so the local, online, eager, conditional and a-priori
/// paths are all pinned. The SLATE sweeps cover point-to-point
/// interception; Capital, CANDMC and SUMMA cover `bcast` / `allgather` /
/// `gather` / `scatter` and the `isend` + `recv` pipeline.
pub fn golden_tunes() -> Vec<GoldenTune> {
    use ExecutionPolicy as P;
    use TuningSpace as S;
    let tune = |name, space, policy| GoldenTune { name, space, policy, epsilon: 0.25 };
    vec![
        tune("cholesky-local-eps25", S::SlateCholesky, P::LocalPropagation),
        tune("qr-online-eps25", S::SlateQr, P::OnlinePropagation),
        tune("capital-eager-eps25", S::CapitalCholesky, P::EagerPropagation),
        tune("candmc-qr-conditional-eps25", S::CandmcQr, P::ConditionalExecution),
        tune("summa25d-apriori-eps25", S::Summa25D, P::APrioriPropagation),
    ]
}

/// The golden HTTP scenario behind the `critter-serve` API contract
/// fixtures (`fixtures/serve-*.json`).
///
/// Drives a live in-process daemon on an ephemeral port through a pinned
/// conversation — submit the [`golden_tunes`] Cholesky sweep as a job,
/// wait for it, and probe every error class — and captures the response
/// documents. Everything in the scenario is deterministic (fresh data
/// dir, so the id is always `job-000001`; pinned spec; submit responses
/// snapshot the job before it is enqueued), so the captured bytes are a
/// pure function of the codebase, exactly like the golden reports.
pub mod serve_oracle {
    use std::net::SocketAddr;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    use critter_core::json::canonical_text;
    use critter_serve::http::client;
    use critter_serve::{Server, ServerConfig};

    /// The job spec of the scenario: the same pinned sweep as the
    /// `cholesky-local-eps25` golden tune, so the report the daemon
    /// serves must be byte-identical to that committed fixture.
    pub const GOLDEN_JOB_SPEC: &str = r#"{
    "space": "slate-cholesky", "policy": "local", "epsilon": 0.25,
    "smoke": true, "machine": "test"
}"#;

    /// The captured scenario: fixture documents plus the served report.
    pub struct ServeScenario {
        /// `(fixture name, canonical bytes)` pairs for the bless flow.
        pub docs: Vec<(&'static str, String)>,
        /// The `GET /v1/jobs/job-000001/report` body, byte-for-byte.
        pub report: String,
    }

    fn fresh_data_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("critter-serve-oracle-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Wait until `id` reaches a terminal state; panics on `failed`.
    pub fn wait_done(addr: SocketAddr, id: &str) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, doc) = client::request_json(addr, "GET", &format!("/v1/jobs/{id}"), None)
                .expect("status poll");
            match doc.get("state").and_then(|s| s.as_str()) {
                Some("done") => return,
                Some("failed") => panic!("job {id} failed: {doc:?}"),
                _ => {}
            }
            assert!(Instant::now() < deadline, "job {id} never finished");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The malformed-request table: every row must map to a typed 4xx —
    /// never a 5xx, never a connection drop. `(method, path, body)`.
    pub const MALFORMED_REQUESTS: [(&str, &str, Option<&str>); 14] = [
        ("POST", "/v1/jobs", Some("not json")),
        ("POST", "/v1/jobs", Some("[1, 2, 3]")),
        ("POST", "/v1/jobs", Some(r#"{"space": "slate-cholesky"}"#)),
        ("POST", "/v1/jobs", Some(r#"{"space": "hypercube", "policy": "local"}"#)),
        ("POST", "/v1/jobs", Some(r#"{"space": "slate-cholesky", "policy": "local", "bogus": 1}"#)),
        ("POST", "/v1/jobs", Some(r#"{"space": "slate-cholesky", "policy": "local", "reps": 0}"#)),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"space": "slate-cholesky", "policy": "local", "tenant": "team/a"}"#),
        ),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"space": "slate-cholesky", "policy": "local", "priority": 10}"#),
        ),
        (
            "POST",
            "/v1/jobs",
            Some(r#"{"space": "slate-cholesky", "policy": "local", "priority": "high"}"#),
        ),
        ("GET", "/v1/jobs/job-000001/events?since=soon", None),
        ("GET", "/v1/jobs/job-999999", None),
        ("DELETE", "/v1/jobs/job-000001", None), // already done: 409
        ("PUT", "/v1/jobs", None),
        ("GET", "/v1/nope", None),
    ];

    /// Run the scenario against a fresh daemon and capture its documents.
    pub fn run(tag: &str) -> ServeScenario {
        let data_dir = fresh_data_dir(tag);
        let mut config = ServerConfig::new(&data_dir);
        config.addr = "127.0.0.1:0".into();
        config.job_workers = 1;
        let server = Server::start(config).expect("daemon starts");
        let addr = server.addr();

        let (status, submit_body) =
            client::request(addr, "POST", "/v1/jobs", Some(GOLDEN_JOB_SPEC)).expect("submit");
        assert_eq!(status, 202, "submit must be accepted: {submit_body}");
        wait_done(addr, "job-000001");
        let (status, status_body) =
            client::request(addr, "GET", "/v1/jobs/job-000001", None).expect("status");
        assert_eq!(status, 200);
        let (status, health_body) =
            client::request(addr, "GET", "/v1/healthz", None).expect("healthz");
        assert_eq!(status, 200);
        let (status, report) =
            client::request(addr, "GET", "/v1/jobs/job-000001/report", None).expect("report");
        assert_eq!(status, 200);
        // The event log is complete once the job is done, so the captured
        // document pins the full queued → running → progress… → done
        // sequence with its seq numbering.
        let (status, events_body) =
            client::request(addr, "GET", "/v1/jobs/job-000001/events", None).expect("events");
        assert_eq!(status, 200);
        let (status, tenants_body) =
            client::request(addr, "GET", "/v1/tenants", None).expect("tenants");
        assert_eq!(status, 200);

        // The error table runs after the job is done so every row's
        // response is pinned (including the 409 on cancelling a done job).
        let mut rows = Vec::new();
        for (method, path, body) in MALFORMED_REQUESTS {
            let (status, response) =
                client::request_json(addr, method, path, body).expect("error-table request");
            assert!(
                (400..500).contains(&status),
                "{method} {path} must be a typed 4xx, got {status}"
            );
            let row = serde_json::json!({
                "method": method,
                "path": path,
                "request_body": body.unwrap_or(""),
                "status": status,
                "response": response,
            });
            rows.push(row);
        }
        let errors_doc = serde_json::json!({ "cases": serde_json::Value::Array(rows) });
        let errors_body = canonical_text(&errors_doc);

        server.shutdown();
        let _ = std::fs::remove_dir_all(&data_dir);
        ServeScenario {
            docs: vec![
                ("serve-submit", submit_body),
                ("serve-status-done", status_body),
                ("serve-healthz", health_body),
                ("serve-events", events_body),
                ("serve-tenants", tenants_body),
                ("serve-errors", errors_body),
            ],
            report,
        }
    }
}

/// Golden-snapshot bookkeeping.
pub mod golden {
    use std::path::PathBuf;

    /// Directory the committed fixtures live in.
    pub fn fixtures_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
    }

    /// Whether the caller asked to regenerate fixtures instead of checking.
    pub fn blessing() -> bool {
        std::env::var("CRITTER_BLESS").map(|v| v == "1").unwrap_or(false)
    }

    /// Write `text` as the new fixture for `name`.
    pub fn bless(name: &str, text: &str) -> PathBuf {
        let dir = fixtures_dir();
        std::fs::create_dir_all(&dir).expect("create fixtures dir");
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, text).expect("write fixture");
        path
    }

    /// Compare `text` byte-for-byte against the committed fixture, or
    /// rewrite the fixture when `CRITTER_BLESS=1`. Panics with a contextual
    /// diff summary on mismatch.
    pub fn check_or_bless(name: &str, text: &str) {
        if blessing() {
            let path = bless(name, text);
            eprintln!("blessed {}", path.display());
            return;
        }
        let path = fixtures_dir().join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 `cargo run -p critter-testkit --bin bless`",
                path.display()
            )
        });
        if committed != text {
            let diff_line = committed
                .lines()
                .zip(text.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or_else(|| committed.lines().count().min(text.lines().count()) + 1);
            panic!(
                "golden report `{name}` drifted from {} (first differing line: {diff_line}).\n\
                 If the change is intentional, regenerate fixtures with\n\
                 `cargo run -p critter-testkit --bin bless` (or CRITTER_BLESS=1) and\n\
                 commit the diff.",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = sample_kernel_times(7, 6);
        let b = sample_kernel_times(7, 6);
        let c = sample_kernel_times(8, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn true_mean_tracks_the_empirical_mean() {
        // Law-of-large-numbers sanity on the analytic truth: the empirical
        // mean of many simulator samples converges to `true_kernel_mean`.
        let samples = sample_kernel_times(3, 4000);
        let emp = samples.iter().sum::<f64>() / samples.len() as f64;
        let truth = true_kernel_mean(3);
        let rel = (emp - truth).abs() / truth;
        assert!(rel < 0.01, "empirical {emp} vs analytic {truth} (rel err {rel})");
    }

    #[test]
    fn golden_tunes_are_pure_functions_of_the_code() {
        for tune in golden_tunes() {
            let a = tune.run().to_json_string();
            let b = tune.run().to_json_string();
            assert_eq!(a, b, "golden tune {} must be deterministic", tune.name);
        }
    }
}
