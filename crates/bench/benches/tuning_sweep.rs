//! End-to-end tuning-sweep cost, in host time (the simulated-time comparison
//! is what fig4/fig5 report), plus the serial-vs-parallel scheduler
//! comparison: the same sweeps run with the single-threaded schedule and
//! with pipelined reference runs / concurrent sweeps. Results are
//! bit-identical across schedules (asserted), so the speedup lines measure
//! pure scheduling gain. On a multi-core host the parallel schedule of the
//! 8-configuration sweep should come in at ≥2× — on a single core it
//! degenerates to ~1×, which the printed ratio makes visible.

use std::sync::Arc;

use critter_algs::slate_chol::SlateCholesky;
use critter_algs::Workload;
use critter_autotune::flags::SIM;
use critter_autotune::{Autotuner, TuningOptions, TuningSpace};
use critter_bench::harness::{bench, black_box, speedup};
use critter_bench::{emit_obs, parallel_map, FigOpts, CARGO_BENCH, METRICS_OUT, TRACE_OUT};
use critter_core::ExecutionPolicy;
use critter_session::cli::Cli;
use critter_sim::BackendKind;

const CLI: Cli = Cli {
    about: "End-to-end tuning-sweep cost in host time, serial vs parallel schedules. With\n\
            --trace-out/--metrics-out the schedule-agreement check also runs observed and\n\
            exports the sweep's timeline.",
    ..Cli::new("tuning_sweep", &[SIM, &[TRACE_OUT, METRICS_OUT, CARGO_BENCH]])
};

fn bench_policies(backend: BackendKind) {
    let space = TuningSpace::SlateCholesky;
    let workloads = space.smoke();
    for policy in ExecutionPolicy::ALL_SELECTIVE {
        bench("smoke_sweep_slate_chol", policy.name(), 5, || {
            let mut opts =
                TuningOptions::new(policy, 0.25).with_test_machine().with_backend(backend);
            opts.reset_between_configs = space.resets_between_configs();
            let report = Autotuner::new(opts).tune(&workloads);
            black_box(report.speedup());
        });
    }
}

fn bench_epsilons(backend: BackendKind) {
    let workloads = TuningSpace::CandmcQr.smoke();
    for &eps in &[1.0, 0.125] {
        bench("smoke_sweep_candmc_eps", &eps.to_string(), 5, || {
            let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, eps)
                .with_test_machine()
                .with_backend(backend);
            let report = Autotuner::new(opts).tune(&workloads);
            black_box(report.mean_error());
        });
    }
}

/// The same 8-configuration sweep on each backend: asserts the reports agree
/// bit for bit, then times both so the backend overhead delta is visible.
fn bench_backend_agreement() {
    let workloads = eight_config_space();
    let tune = |backend: BackendKind| {
        let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 1.0)
            .with_test_machine()
            .with_backend(backend);
        Autotuner::new(opts).tune(&workloads)
    };
    let reference = tune(BackendKind::Threads);
    for &backend in &BackendKind::ALL[1..] {
        assert_eq!(reference, tune(backend), "backends must agree bit for bit");
    }
    for backend in BackendKind::ALL {
        bench("tune_8cfg_backend", backend.name(), 5, || {
            black_box(tune(backend).speedup());
        });
    }
}

/// An 8-configuration tile-Cholesky space on 4 ranks: large enough that the
/// reference-run pipeline has work to overlap, small enough to iterate.
fn eight_config_space() -> Vec<Arc<dyn Workload>> {
    (0..8)
        .map(|v| {
            Arc::new(SlateCholesky { n: 64, tile: 8 + 8 * (v % 4), lookahead: v / 4, pr: 2, pc: 2 })
                as Arc<dyn Workload>
        })
        .collect()
}

/// One sweep, serial schedule vs pipelined reference runs. With
/// `--trace-out`/`--metrics-out`, the schedule-agreement check additionally
/// runs observed and exports the sweep's timeline artifacts.
fn bench_pipelined_tune(opts: &FigOpts) {
    let workloads = eight_config_space();
    let tune = |workers: usize| {
        let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 1.0)
            .with_test_machine()
            .with_workers(workers);
        Autotuner::new(opts).tune(&workloads)
    };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = threads.max(2);
    assert_eq!(tune(1), tune(workers), "schedules must agree bit for bit");
    export_observed_sweep(opts, &workloads, workers);
    let serial = bench("tune_8cfg_slate_chol", "workers=1", 5, || {
        black_box(tune(1).speedup());
    });
    let parallel = bench("tune_8cfg_slate_chol", &format!("workers={workers}"), 5, || {
        black_box(tune(workers).speedup());
    });
    println!(
        "tune_8cfg_slate_chol pipeline speedup: {:.2}x on {threads} core(s)",
        speedup(serial, parallel)
    );
}

/// Eight independent (policy, ε) sweeps, run back to back vs fanned out.
fn bench_sweep_level_parallelism() {
    let workloads = eight_config_space();
    let specs: Vec<(ExecutionPolicy, f64)> = ExecutionPolicy::ALL_SELECTIVE
        .iter()
        .flat_map(|&p| [(p, 1.0), (p, 0.25)])
        .take(8)
        .collect();
    let run_all = |jobs: usize| {
        parallel_map(&specs, jobs, |&(policy, eps)| {
            let opts = TuningOptions::new(policy, eps).with_test_machine();
            Autotuner::new(opts).tune(&workloads)
        })
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let jobs = cores.clamp(2, 8);
    assert_eq!(run_all(1), run_all(jobs), "sweep fan-out must not change results");
    let serial = bench("sweep8_slate_chol", "jobs=1", 3, || {
        black_box(run_all(1).len());
    });
    let parallel = bench("sweep8_slate_chol", &format!("jobs={jobs}"), 3, || {
        black_box(run_all(jobs).len());
    });
    println!(
        "sweep8_slate_chol sweep-level speedup: {:.2}x on {cores} core(s)",
        speedup(serial, parallel)
    );
}

/// Honor `--trace-out FILE` / `--metrics-out FILE` (as in the figure
/// binaries): rerun the 8-configuration sweep observed, serial and pipelined,
/// assert the timelines agree byte for byte, and write the artifacts.
fn export_observed_sweep(opts: &FigOpts, workloads: &[Arc<dyn Workload>], workers: usize) {
    if !opts.observe() {
        return;
    }
    let tune = |workers: usize| {
        let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 1.0)
            .with_test_machine()
            .with_workers(workers)
            .with_observe();
        Autotuner::new(opts).tune(workloads).obs.expect("observed sweep")
    };
    let obs = tune(workers);
    assert_eq!(
        obs.timeline.to_chrome_string(),
        tune(1).timeline.to_chrome_string(),
        "observed timelines must agree byte for byte across schedules"
    );
    emit_obs(opts, &obs);
}

fn main() {
    let opts = CLI.parse_env(|p| {
        Ok(FigOpts {
            backend: p.get("--backend")?.unwrap_or_default(),
            trace_out: p.get("--trace-out")?,
            metrics_out: p.get("--metrics-out")?,
            ..FigOpts::defaults()
        })
    });
    bench_policies(opts.backend);
    bench_epsilons(opts.backend);
    bench_pipelined_tune(&opts);
    bench_sweep_level_parallelism();
    bench_backend_agreement();
}
