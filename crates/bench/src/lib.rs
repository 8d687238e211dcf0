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

#![forbid(unsafe_code)]

pub mod fig3;
pub mod plot;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use critter_autotune::flags::SessionFlags;
use critter_autotune::{Autotuner, TuningOptions, TuningReport, TuningSpace};
use critter_core::ExecutionPolicy;
use critter_obs::ObsReport;
use critter_session::cli::{Cli, Flag};

/// Grid flags: how many points the figure sweeps cover.
pub const GRID: &[Flag] = &[
    Flag("--quick", "3-point ε grid instead of the full 9-point sweep"),
    Flag("--allocations N", "repeat on N simulated node allocations (default 1)"),
];

/// Output flags: where artifacts go and how many sweeps run at once.
pub const OUTPUT: &[Flag] = &[
    Flag("--out DIR", "output directory (default `results/`)"),
    Flag("--jobs N", "fan independent sweeps over N threads (default: cores, at most 8)"),
];

/// Observability flags; any of them makes the sweeps observed.
pub const OBS: &[Flag] = &[
    Flag("--trace-out FILE", "Chrome/Perfetto trace-event JSON of every run"),
    Flag("--folded-out FILE", "flamegraph folded stacks"),
    Flag("--metrics-out FILE", "aggregated counters and histograms"),
];

/// Seed of the fault stream `--faults` arms (figure drivers only).
pub const FAULT_SEED: &[Flag] =
    &[Flag("--fault-seed N", "fault-stream seed (default 0xFA17 = 64023)")];

/// Options of the figure binaries; each binary's flag table is the union of
/// the groups it reads ([`GRID`], [`OUTPUT`], [`OBS`],
/// [`SESSION`](critter_autotune::flags::SESSION), [`FAULT_SEED`],
/// [`SIM`](critter_autotune::flags::SIM)), and those tables say what each
/// option means. Artifacts are byte-identical at any `jobs` level and on
/// either `backend`.
#[derive(Debug, Clone)]
pub struct FigOpts {
    /// `--quick`: reduced ε grid.
    pub quick: bool,
    /// `--allocations`: node allocations to repeat the experiment on (paper: 2).
    pub allocations: u64,
    /// `--reps`: repetitions per configuration within an allocation.
    pub reps: usize,
    /// `--out`: directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// `--jobs`: threads running independent tuning sweeps concurrently.
    pub jobs: usize,
    /// `--trace-out`: Chrome/Perfetto trace-event JSON of every simulated run.
    pub trace_out: Option<PathBuf>,
    /// `--folded-out`: folded-stack flamegraph file.
    pub folded_out: Option<PathBuf>,
    /// `--metrics-out`: the aggregated metrics registry (canonical JSON).
    pub metrics_out: Option<PathBuf>,
    /// The session group, applied per `(space, policy, ε, allocation)` sweep.
    pub session: SessionFlags,
    /// `--backend`: communicator backend hosting the simulated ranks.
    pub backend: critter_sim::BackendKind,
}

impl FigOpts {
    /// The flag defaults (what a bare binary invocation runs with).
    pub fn defaults() -> Self {
        FigOpts {
            quick: false,
            allocations: 1,
            reps: 1,
            out_dir: PathBuf::from("results"),
            // The host's cores, capped at 8.
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()).min(8),
            trace_out: None,
            folded_out: None,
            metrics_out: None,
            session: SessionFlags::default(),
            backend: critter_sim::BackendKind::default(),
        }
    }

    /// Parse the process's command line against `cli` (see
    /// [`Cli::parse_env`] for `--help` and error behaviour). Every driver
    /// reads [`OUTPUT`], [`OBS`] and `SIM`; the grid and session fields are
    /// filled when the binary's table declares those groups.
    pub fn from_args(cli: &Cli) -> Self {
        cli.parse_env(|p| {
            let mut opts = Self::defaults();
            opts.out_dir = p.get("--out")?.unwrap_or(opts.out_dir);
            opts.jobs = p.get("--jobs")?.unwrap_or(opts.jobs).max(1);
            opts.trace_out = p.get("--trace-out")?;
            opts.folded_out = p.get("--folded-out")?;
            opts.metrics_out = p.get("--metrics-out")?;
            opts.backend = p.get("--backend")?.unwrap_or_default();
            if p.declares("--quick") {
                opts.quick = p.switch("--quick");
                opts.allocations = p.get("--allocations")?.unwrap_or(opts.allocations);
            }
            if p.declares("--reps") {
                opts.reps = p.get("--reps")?.unwrap_or(opts.reps);
                opts.session = SessionFlags::from_parsed(p)?;
            }
            Ok(opts)
        })
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
/// `opts` per sweep (see [`SessionFlags::session`]). With none of them set
/// this is a plain in-memory sweep.
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
    let slug = sweep_slug(space, policy, epsilon, allocation);
    let (topts, session) = opts.session.session(topts, Some(&slug));
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
        let mut specs: Vec<(u64, ExecutionPolicy, f64)> = Vec::new();
        for allocation in 0..opts.allocations {
            for policy in ExecutionPolicy::ALL_SELECTIVE {
                for &eps in &opts.epsilons() {
                    specs.push((allocation, policy, eps));
                }
            }
        }
        let reports = parallel_map(&specs, opts.jobs, |&(allocation, policy, eps)| {
            sweep(opts, space, policy, eps, allocation, 1, false, false)
        });
        for (&(allocation, policy, eps), report) in specs.iter().zip(&reports) {
            sweep_table.row(vec![
                policy.name().to_string(),
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
                "policy": policy.name(),
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
