//! # critter-bench
//!
//! The figure-regeneration harness. Each binary reproduces one of the paper's
//! evaluation figures on the scaled configuration spaces (see DESIGN.md's
//! per-experiment index):
//!
//! * `fig3` — BSP trade-off panels 3a–3l (measured critical-path costs per
//!   configuration + analytic BSP cross-check);
//! * `fig4` — Cholesky autotuning time and prediction error, panels 4a–4h;
//! * `fig5` — QR autotuning time and prediction error, panels 5a–5h;
//! * `ablate` — the DESIGN.md ablations (noise amplitude, profiling
//!   overhead charging, signature granularity, count scaling).
//!
//! Binaries print aligned tables to stdout and write CSV + JSON into
//! `results/` so EXPERIMENTS.md's paper-vs-measured entries can be refreshed
//! mechanically. Pass `--quick` for a reduced ε grid.

pub mod fig3;
pub mod harness;
pub mod plot;
pub mod trajectory;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use critter_autotune::{Autotuner, SessionConfig, TuningOptions, TuningReport, TuningSpace};
use critter_core::ExecutionPolicy;
use critter_obs::ObsReport;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// Reduced ε grid and single repetition.
    pub quick: bool,
    /// Number of node allocations to repeat the experiment on (paper: 2).
    pub allocations: u64,
    /// Repetitions per configuration within an allocation.
    pub reps: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Threads used to run independent tuning sweeps concurrently. Sweeps
    /// are deterministic per (policy, ε, allocation), so the artifacts are
    /// identical at any job count.
    pub jobs: usize,
    /// Write a Chrome/Perfetto trace-event JSON of every simulated run here
    /// (`--trace-out`). Byte-identical at any `--jobs` level.
    pub trace_out: Option<PathBuf>,
    /// Write a folded-stack flamegraph file here (`--folded-out`).
    pub folded_out: Option<PathBuf>,
    /// Write the aggregated metrics registry (canonical JSON) here
    /// (`--metrics-out`).
    pub metrics_out: Option<PathBuf>,
    /// Base directory for per-sweep checkpoints (`--checkpoint-dir`). Each
    /// `(space, policy, ε, allocation)` sweep checkpoints into its own
    /// subdirectory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from existing checkpoints (`--resume`). Without it, stale
    /// per-sweep checkpoint directories are cleared so every sweep starts
    /// fresh.
    pub resume: bool,
    /// Kernel-model profile to warm-start every sweep from (`--warm-start`).
    pub warm_start: Option<PathBuf>,
    /// Base directory for per-sweep kernel-model profiles (`--profile-out`).
    pub profile_out: Option<PathBuf>,
    /// Shared content-addressed profile store every persist-models sweep
    /// warm-starts from and publishes back into (`--store`).
    pub store: Option<PathBuf>,
    /// Rank-panic probability per fault point (`--faults P`): arms
    /// deterministic fault injection with retry and quarantine.
    pub faults: Option<f64>,
    /// Seed of the fault stream (`--fault-seed N`).
    pub fault_seed: u64,
    /// Retry budget per simulated run when faults are armed (`--retries N`).
    pub retries: usize,
    /// Communicator backend hosting the simulated ranks (`--backend
    /// threads|tasks`). Virtual time is backend-independent, so artifacts
    /// are byte-identical either way.
    pub backend: critter_sim::BackendKind,
}

/// Default sweep-level job count: the host's cores, capped at 8.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

impl FigOpts {
    /// The flag defaults (what a bare binary invocation runs with).
    pub fn defaults() -> Self {
        FigOpts {
            quick: false,
            allocations: 1,
            reps: 1,
            out_dir: PathBuf::from("results"),
            jobs: default_jobs(),
            trace_out: None,
            folded_out: None,
            metrics_out: None,
            checkpoint_dir: None,
            resume: false,
            warm_start: None,
            profile_out: None,
            store: None,
            faults: None,
            fault_seed: 0xFA17,
            retries: 2,
            backend: critter_sim::BackendKind::default(),
        }
    }

    /// Parse from `std::env::args` (flags: `--quick`, `--allocations N`,
    /// `--reps N`, `--out DIR`, `--jobs N`, `--trace-out FILE`,
    /// `--folded-out FILE`, `--metrics-out FILE`, `--checkpoint-dir DIR`,
    /// `--resume`, `--warm-start FILE`, `--profile-out DIR`, `--store DIR`,
    /// `--faults P`, `--fault-seed N`, `--retries N`,
    /// `--backend threads|tasks`).
    pub fn from_args() -> Self {
        let mut opts = Self::defaults();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--allocations" => {
                    i += 1;
                    opts.allocations = args[i].parse().expect("--allocations N");
                }
                "--reps" => {
                    i += 1;
                    opts.reps = args[i].parse().expect("--reps N");
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(&args[i]);
                }
                "--jobs" => {
                    i += 1;
                    opts.jobs = args[i].parse::<usize>().expect("--jobs N").max(1);
                }
                "--trace-out" => {
                    i += 1;
                    opts.trace_out = Some(PathBuf::from(&args[i]));
                }
                "--folded-out" => {
                    i += 1;
                    opts.folded_out = Some(PathBuf::from(&args[i]));
                }
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out = Some(PathBuf::from(&args[i]));
                }
                "--checkpoint-dir" => {
                    i += 1;
                    opts.checkpoint_dir = Some(PathBuf::from(&args[i]));
                }
                "--resume" => opts.resume = true,
                "--warm-start" => {
                    i += 1;
                    opts.warm_start = Some(PathBuf::from(&args[i]));
                }
                "--profile-out" => {
                    i += 1;
                    opts.profile_out = Some(PathBuf::from(&args[i]));
                }
                "--store" => {
                    i += 1;
                    opts.store = Some(PathBuf::from(&args[i]));
                }
                "--faults" => {
                    i += 1;
                    opts.faults = Some(args[i].parse().expect("--faults PANIC_PROB"));
                }
                "--fault-seed" => {
                    i += 1;
                    opts.fault_seed = args[i].parse().expect("--fault-seed N");
                }
                "--retries" => {
                    i += 1;
                    opts.retries = args[i].parse().expect("--retries N");
                }
                "--backend" => {
                    i += 1;
                    opts.backend =
                        args[i].parse().unwrap_or_else(|e| panic!("--backend threads|tasks: {e}"));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "figure-driver flags:\n\
                         \x20 [--quick] [--allocations N=1] [--reps N=1] [--out DIR=results]\n\
                         \x20 [--jobs N] [--trace-out FILE] [--folded-out FILE] [--metrics-out FILE]\n\
                         \x20 [--checkpoint-dir DIR] [--resume] [--warm-start FILE]\n\
                         \x20 [--profile-out DIR] [--store DIR] [--faults PANIC_PROB]\n\
                         \x20 [--fault-seed N=0xFA17]\n\
                         \x20 [--retries N=2] [--backend <threads|tasks>]"
                    );
                    std::process::exit(2)
                }
                other => panic!("unknown flag {other}"),
            }
            i += 1;
        }
        opts
    }

    /// The ε grid: the paper sweeps ε = 1 down to 2⁻⁸; quick mode uses three
    /// representative points.
    pub fn epsilons(&self) -> Vec<f64> {
        if self.quick {
            vec![1.0, 0.25, 0.0625]
        } else {
            (0..=8).map(|k| 1.0 / (1u64 << k) as f64).collect()
        }
    }

    /// Whether any observability export was requested.
    pub fn observe(&self) -> bool {
        self.trace_out.is_some() || self.folded_out.is_some() || self.metrics_out.is_some()
    }
}

/// Write the requested observability artifacts (Chrome trace, folded stacks,
/// metrics JSON) for an assembled [`ObsReport`]. Creates parent directories
/// as needed; paths come from `--trace-out` / `--folded-out` /
/// `--metrics-out`.
pub fn emit_obs(opts: &FigOpts, obs: &ObsReport) {
    let write = |path: &Path, text: String| {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).expect("create trace output dir");
            }
        }
        fs::write(path, text).expect("write observability artifact");
        eprintln!("wrote {}", path.display());
    };
    if let Some(path) = &opts.trace_out {
        write(path, obs.timeline.to_chrome_string());
    }
    if let Some(path) = &opts.folded_out {
        write(path, obs.timeline.to_folded());
    }
    if let Some(path) = &opts.metrics_out {
        write(path, obs.metrics_string());
    }
}

/// Filesystem-safe slug identifying one sweep (used to key per-sweep
/// checkpoint directories and profile files).
pub fn sweep_slug(
    space: TuningSpace,
    policy: ExecutionPolicy,
    epsilon: f64,
    allocation: u64,
) -> String {
    format!("{}-{}-eps{epsilon}-a{allocation}", space.name(), policy.name().replace(' ', "-"))
}

/// Run one `(space, policy, ε, allocation)` tuning sweep with the paper's
/// per-space statistics-reset protocol, honoring the session flags in
/// `opts`: per-sweep checkpoint directory (cleared unless `--resume`),
/// warm-start profile, per-sweep profile output, profile store, and fault
/// injection with the configured retry budget. With none of them set this
/// is a plain in-memory sweep.
///
/// `workers` > 1 prefetches the sweep's reference full executions
/// (bit-identical result either way); `observe` records the trace/metrics
/// timeline into [`TuningReport::obs`]; `smoke` tunes over the space's
/// reduced smoke-test configurations instead of the full benchmark grid.
#[allow(clippy::too_many_arguments)] // a flat sweep-spec
pub fn sweep(
    opts: &FigOpts,
    space: TuningSpace,
    policy: ExecutionPolicy,
    epsilon: f64,
    allocation: u64,
    workers: usize,
    observe: bool,
    smoke: bool,
) -> TuningReport {
    let mut topts =
        TuningOptions::new(policy, epsilon).with_workers(workers).with_backend(opts.backend);
    topts.reset_between_configs = space.resets_between_configs();
    topts.reps = opts.reps;
    topts.allocation = allocation;
    topts.observe = observe;
    if let Some(p) = opts.faults {
        topts = topts
            .with_faults(critter_sim::FaultPlan::new(opts.fault_seed).with_rank_panics(p))
            .with_retries(opts.retries);
    }
    let slug = sweep_slug(space, policy, epsilon, allocation);
    let mut session = SessionConfig::new();
    if let Some(base) = &opts.checkpoint_dir {
        let dir = base.join(&slug);
        if !opts.resume {
            let _ = fs::remove_dir_all(&dir);
        }
        session = session.with_checkpoint_dir(dir);
    }
    if let Some(profile) = &opts.warm_start {
        // Warm-start requires the persist-models protocol; sweeps that reset
        // statistics between configurations (SLATE, CANDMC) would refuse it.
        if topts.reset_between_configs {
            eprintln!("note: {slug} resets models per config; ignoring --warm-start");
        } else {
            session = session.with_warm_start(profile);
        }
    }
    if let Some(base) = &opts.profile_out {
        fs::create_dir_all(base).expect("create profile output dir");
        session = session.with_profile_out(base.join(format!("{slug}.json")));
    }
    if let Some(dir) = &opts.store {
        // The store, like a warm-start file, seeds models before the sweep
        // and therefore needs the persist-models protocol.
        if topts.reset_between_configs {
            eprintln!("note: {slug} resets models per config; ignoring --store");
        } else {
            session = session.with_store(dir);
        }
    }
    let workloads = if smoke { space.smoke() } else { space.bench() };
    Autotuner::new(topts)
        .tune_session(&workloads, &session)
        .unwrap_or_else(|e| panic!("sweep {slug} failed: {e}"))
}

/// Map `f` over `items` on up to `jobs` threads, preserving input order in
/// the returned vector. Items are pulled from an atomic queue, so long and
/// short jobs load-balance; `jobs <= 1` degenerates to a plain serial map.
/// A panicking job propagates to the caller.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("parallel_map job completed")
        })
        .collect()
}

/// A CSV/table writer that accumulates rows and flushes to disk + stdout.
pub struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column names.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout and write `<out_dir>/<name>.csv`.
    pub fn emit(&self, out_dir: &Path) {
        println!("{}", self.render());
        fs::create_dir_all(out_dir).expect("create results dir");
        let quote = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut csv = self.header.iter().map(quote).collect::<Vec<_>>().join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.iter().map(quote).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        let path = out_dir.join(format!("{}.csv", self.name));
        fs::write(&path, csv).expect("write csv");
        eprintln!("wrote {}", path.display());
    }
}

/// Format a float with engineering-friendly precision.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e4 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// The five selective policies plus labels, in the paper's order.
pub fn policies() -> Vec<(ExecutionPolicy, &'static str)> {
    ExecutionPolicy::ALL_SELECTIVE.iter().map(|&p| (p, p.name())).collect()
}

/// Dump a JSON summary next to the CSVs.
pub fn write_json(out_dir: &Path, name: &str, value: &serde_json::Value) {
    fs::create_dir_all(out_dir).expect("create results dir");
    let path = out_dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value).expect("serialize")).expect("write json");
    eprintln!("wrote {}", path.display());
}

/// Shared implementation for Figures 4 (Cholesky) and 5 (QR): `space_a` fills
/// the left panels, `space_b` the right ones.
pub fn run_figure(opts: &FigOpts, space_a: TuningSpace, space_b: TuningSpace, fig: &str) {
    let mut summary = Vec::new();
    for space in [space_a, space_b] {
        let mut sweep_table = Table::new(
            &format!("{fig}-{}-sweeps", space.name()),
            &[
                "policy",
                "epsilon",
                "alloc",
                "tuning_time",
                "full_time",
                "speedup",
                "kernel_time",
                "full_kernel_time",
                "kernel_speedup",
                "mean_err",
                "mean_comp_err",
                "skip_frac",
                "sel_quality",
            ],
        );
        let mut per_config = Table::new(
            &format!("{fig}-{}-online-per-config", space.name()),
            &["epsilon", "alloc", "v", "config", "rel_error", "true_time", "predicted"],
        );
        // Every (allocation, policy, ε) sweep is independent and
        // deterministic: fan them out over the job pool, then emit rows in
        // the original order so tables and JSON match the serial harness.
        let mut specs: Vec<(u64, ExecutionPolicy, &'static str, f64)> = Vec::new();
        for allocation in 0..opts.allocations {
            for &(policy, label) in &policies() {
                for &eps in &opts.epsilons() {
                    specs.push((allocation, policy, label, eps));
                }
            }
        }
        let reports = parallel_map(&specs, opts.jobs, |&(allocation, policy, _, eps)| {
            sweep(opts, space, policy, eps, allocation, 1, false, false)
        });
        for (&(allocation, policy, label, eps), report) in specs.iter().zip(&reports) {
            sweep_table.row(vec![
                label.to_string(),
                f(eps),
                allocation.to_string(),
                f(report.tuning_time()),
                f(report.full_time()),
                f(report.speedup()),
                f(report.kernel_time()),
                f(report.full_kernel_time()),
                f(report.kernel_time_speedup()),
                f(report.mean_error()),
                f(report.mean_comp_error()),
                f(report.skip_fraction()),
                f(report.selection_quality()),
            ]);
            summary.push(serde_json::json!({
                "space": space.name(),
                "policy": label,
                "epsilon": eps,
                "allocation": allocation,
                "tuning_time": report.tuning_time(),
                "full_time": report.full_time(),
                "speedup": report.speedup(),
                "kernel_time_speedup": report.kernel_time_speedup(),
                "mean_error": report.mean_error(),
                "mean_comp_error": report.mean_comp_error(),
                "selection_quality": report.selection_quality(),
                "skip_fraction": report.skip_fraction(),
            }));
            // Panels g/h: per-configuration error for online freq
            // propagation.
            if policy == ExecutionPolicy::OnlinePropagation {
                let errs = report.per_config_error();
                let truth = report.true_times();
                let preds = report.predicted_times();
                for (v, cfg) in report.configs.iter().enumerate() {
                    per_config.row(vec![
                        f(eps),
                        allocation.to_string(),
                        v.to_string(),
                        cfg.name.clone(),
                        f(errs[v]),
                        f(truth[v]),
                        f(preds[v]),
                    ]);
                }
            }
        }
        sweep_table.emit(&opts.out_dir);
        per_config.emit(&opts.out_dir);
    }
    write_json(&opts.out_dir, fig, &serde_json::Value::Array(summary));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-col"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-col"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert!(f(123456.0).contains('e'));
        assert_eq!(f(1.5), "1.5000");
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_all() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        let parallel = parallel_map(&items, 4, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[36], 36 * 36);
    }

    #[test]
    fn epsilon_grids() {
        let quick = FigOpts { quick: true, ..FigOpts::defaults() };
        assert_eq!(quick.epsilons().len(), 3);
        let full = FigOpts { quick: false, ..quick };
        assert_eq!(full.epsilons().len(), 9);
        assert_eq!(full.epsilons()[8], 1.0 / 256.0);
    }

    #[test]
    fn sweep_slug_names_space_policy_epsilon_and_allocation() {
        assert_eq!(
            sweep_slug(TuningSpace::SlateCholesky, ExecutionPolicy::LocalPropagation, 0.25, 1),
            format!("{}-local-propagation-eps0.25-a1", TuningSpace::SlateCholesky.name())
        );
    }
}
