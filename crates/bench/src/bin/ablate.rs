//! Ablation studies for the design choices DESIGN.md §4 calls out:
//!
//! * `noise` — how policy speedup and prediction error respond to machine
//!   noise amplitude (0×, 1×, 2×, 4× the calibrated cluster level);
//! * `overhead` — charging vs not charging Critter's internal piggyback
//!   messages (the paper's "profiling overhead is minimal" claim);
//! * `granularity` — exact message-size signatures vs log2 buckets;
//! * `count-scaling` — conditional execution (no critical-path count
//!   scaling) vs online propagation (√k-scaled intervals) convergence.
//!
//! Run all: `cargo run -p critter-bench --bin ablate --release`. Each
//! ablation's tuning sweeps are independent and deterministic, so they fan
//! out over `--jobs` threads; rows are emitted in the serial order.
//!
//! With `--trace-out`/`--folded-out`/`--metrics-out`, every tuning sweep is
//! observed and the per-ablation timelines are stitched (in the fixed serial
//! order, never the dispatch order) into one combined artifact.

use critter_algs::slate_chol::SlateCholesky;
use critter_algs::Workload;
use critter_autotune::flags::SIM;
use critter_autotune::{Autotuner, TuningOptions, TuningSpace};
use critter_bench::{emit_obs, f, parallel_map, FigOpts, Table, OBS, OUTPUT};
use critter_core::signature::SizeGranularity;
use critter_core::ExecutionPolicy;
use critter_core::{CritterConfig, CritterEnv, KernelStore};
use critter_machine::{MachineModel, NoiseParams};
use critter_obs::ObsReport;
use critter_session::cli::Cli;
use critter_sim::{run_simulation, SimConfig};

const CLI: Cli = Cli {
    about: "Ablation studies for the design choices DESIGN.md §4 calls out; every grid, ε\n\
            and repetition count is fixed by the ablation itself.",
    ..Cli::new("ablate", &[OUTPUT, OBS, SIM])
};

fn main() {
    let opts = FigOpts::from_args(&CLI);
    let mut obs = opts.observe().then(ObsReport::new);
    noise_ablation(&opts, &mut obs);
    overhead_ablation(&opts, &mut obs);
    granularity_ablation(&opts, &mut obs);
    count_scaling_ablation(&opts, &mut obs);
    p2p_semantics_ablation(&opts);
    extrapolation_ablation(&opts, &mut obs);
    if let Some(obs) = &obs {
        emit_obs(&opts, obs);
    }
}

/// Options of one of an ablation's `n` concurrent sweeps: the job budget is
/// split between the sweeps and each sweep's reference-run pipeline.
fn base(
    opts: &FigOpts,
    policy: ExecutionPolicy,
    eps: f64,
    space: TuningSpace,
    n: usize,
) -> TuningOptions {
    let mut o = TuningOptions::new(policy, eps).with_backend(opts.backend);
    o.reset_between_configs = space.resets_between_configs();
    o.workers = 1 + opts.jobs / n.max(1);
    o.observe = opts.observe();
    o
}

/// Fold each sweep's timeline into the combined ablation report, prefixing
/// run labels with the ablation variant. Reports arrive in the serial spec
/// order (`parallel_map` preserves input order), keeping the combined
/// artifact schedule-independent.
fn absorb_obs(
    obs: &mut Option<ObsReport>,
    reports: Vec<critter_autotune::TuningReport>,
    prefixes: impl IntoIterator<Item = String>,
) {
    if let Some(combined) = obs {
        for (report, prefix) in reports.into_iter().zip(prefixes) {
            if let Some(o) = report.obs {
                combined.absorb(o, &prefix);
            }
        }
    }
}

/// Speedup/error vs noise amplitude: selective execution should skip less (and
/// err more) on noisier machines for a fixed ε.
fn noise_ablation(opts: &FigOpts, obs: &mut Option<ObsReport>) {
    let space = TuningSpace::SlateCholesky;
    let ws = space.bench();
    let mut t = Table::new("ablate-noise", &["noise_scale", "speedup", "mean_err", "skip_frac"]);
    let scales = [0.0, 0.5, 1.0, 2.0, 4.0];
    let reports = parallel_map(&scales, opts.jobs, |&scale| {
        let mut o = base(opts, ExecutionPolicy::OnlinePropagation, 0.25, space, scales.len());
        o.noise = NoiseParams::cluster().scaled(scale);
        Autotuner::new(o).tune(&ws)
    });
    for (&scale, r) in scales.iter().zip(&reports) {
        t.row(vec![f(scale), f(r.speedup()), f(r.mean_error()), f(r.skip_fraction())]);
    }
    t.emit(&opts.out_dir);
    absorb_obs(obs, reports, scales.iter().map(|&s| format!("noise/{s}")));
}

/// Charged vs free internal messages: the gap is Critter's modeled overhead.
fn overhead_ablation(opts: &FigOpts, obs: &mut Option<ObsReport>) {
    let mut t =
        Table::new("ablate-overhead", &["space", "charged", "tuning_time", "full_time", "speedup"]);
    let specs: Vec<(TuningSpace, bool)> = [TuningSpace::CapitalCholesky, TuningSpace::CandmcQr]
        .into_iter()
        .flat_map(|space| [(space, true), (space, false)])
        .collect();
    let reports = parallel_map(&specs, opts.jobs, |&(space, charged)| {
        let mut o = base(opts, ExecutionPolicy::ConditionalExecution, 0.25, space, specs.len());
        o.charge_internal = charged;
        Autotuner::new(o).tune(&space.bench())
    });
    for (&(space, charged), r) in specs.iter().zip(&reports) {
        t.row(vec![
            space.name().into(),
            charged.to_string(),
            f(r.tuning_time()),
            f(r.full_time()),
            f(r.speedup()),
        ]);
    }
    t.emit(&opts.out_dir);
    absorb_obs(
        obs,
        reports,
        specs.iter().map(|&(space, charged)| format!("overhead/{}/{charged}", space.name())),
    );
}

/// Exact vs log2-bucketed communication signatures: coarser pooling converges
/// faster but mixes distinct message behaviors (more error).
fn granularity_ablation(opts: &FigOpts, obs: &mut Option<ObsReport>) {
    let space = TuningSpace::CandmcQr;
    let ws = space.bench();
    let mut t = Table::new(
        "ablate-granularity",
        &["granularity", "speedup", "mean_err", "skip_frac", "distinct_sig_proxy"],
    );
    let specs = [(SizeGranularity::Exact, "exact"), (SizeGranularity::Log2, "log2")];
    let reports = parallel_map(&specs, opts.jobs, |&(gran, _)| {
        let mut o = base(opts, ExecutionPolicy::OnlinePropagation, 0.25, space, specs.len());
        o.granularity = gran;
        Autotuner::new(o).tune(&ws)
    });
    for (&(_, label), r) in specs.iter().zip(&reports) {
        let execs: u64 = r
            .configs
            .iter()
            .map(|c| c.pairs.iter().map(|(_, t)| t.kernels_executed).sum::<u64>())
            .sum();
        t.row(vec![
            label.into(),
            f(r.speedup()),
            f(r.mean_error()),
            f(r.skip_fraction()),
            execs.to_string(),
        ]);
    }
    t.emit(&opts.out_dir);
    absorb_obs(obs, reports, specs.iter().map(|&(_, label)| format!("granularity/{label}")));
}

/// Conditional (k = 1) vs online (√k scaling): the paper's §III-A claim that
/// path counts cut the samples needed for a fixed tolerance.
fn count_scaling_ablation(opts: &FigOpts, obs: &mut Option<ObsReport>) {
    let space = TuningSpace::SlateCholesky;
    let ws = space.bench();
    let mut t = Table::new(
        "ablate-count-scaling",
        &["policy", "epsilon", "kernels_executed", "skip_frac", "mean_err"],
    );
    let specs: Vec<(f64, ExecutionPolicy)> = [0.5, 0.125, 0.03125]
        .into_iter()
        .flat_map(|eps| {
            [ExecutionPolicy::ConditionalExecution, ExecutionPolicy::OnlinePropagation]
                .map(|p| (eps, p))
        })
        .collect();
    let reports = parallel_map(&specs, opts.jobs, |&(eps, policy)| {
        Autotuner::new(base(opts, policy, eps, space, specs.len())).tune(&ws)
    });
    for (&(eps, policy), r) in specs.iter().zip(&reports) {
        let execs: u64 = r
            .configs
            .iter()
            .map(|c| c.pairs.iter().map(|(_, t)| t.kernels_executed).sum::<u64>())
            .sum();
        t.row(vec![
            policy.name().into(),
            f(eps),
            execs.to_string(),
            f(r.skip_fraction()),
            f(r.mean_error()),
        ]);
    }
    t.emit(&opts.out_dir);
    absorb_obs(
        obs,
        reports,
        specs.iter().map(|&(eps, policy)| format!("count-scaling/{}/{eps}", policy.name())),
    );
}

/// Eager vs rendezvous point-to-point time semantics (DESIGN.md §4.1): run
/// one tile-Cholesky configuration with the eager threshold forced to zero
/// (all rendezvous), the default 512 words, and effectively infinite (all
/// eager), and compare the simulated makespans. Rendezvous couples sender
/// clocks to receivers, lengthening the panel chain.
fn p2p_semantics_ablation(opts: &FigOpts) {
    let w = SlateCholesky { n: 384, tile: 48, lookahead: 1, pr: 4, pc: 4 };
    let mut t = Table::new("ablate-p2p-semantics", &["eager_threshold_words", "makespan"]);
    let specs = [("0 (rendezvous)", 0usize), ("512 (default)", 512), ("inf (eager)", usize::MAX)];
    let elapsed = parallel_map(&specs, opts.jobs, |&(_, thresh)| {
        let machine = MachineModel::stampede2(w.ranks(), 99, 0).shared();
        let wl = w.clone();
        let report = run_simulation(
            SimConfig::new(w.ranks()).with_eager_words(thresh).with_backend(opts.backend),
            machine,
            move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                wl.run(&mut env);
                let _ = env.finish();
            },
        );
        report.elapsed()
    });
    for (&(label, _), &makespan) in specs.iter().zip(&elapsed) {
        t.row(vec![label.into(), f(makespan)]);
    }
    t.emit(&opts.out_dir);
}

/// The §VIII extension on the workload the paper names as its beneficiary:
/// CANDMC QR's gradually shrinking trailing matrix yields many under-sampled
/// signatures; per-family line fits let them be skipped.
fn extrapolation_ablation(opts: &FigOpts, obs: &mut Option<ObsReport>) {
    let space = TuningSpace::CandmcQr;
    let ws = space.bench();
    let mut t = Table::new(
        "ablate-extrapolation",
        &["extrapolate", "epsilon", "speedup", "skip_frac", "mean_err"],
    );
    let specs: Vec<(f64, bool)> =
        [0.5, 0.125].into_iter().flat_map(|eps| [(eps, false), (eps, true)]).collect();
    let reports = parallel_map(&specs, opts.jobs, |&(eps, extrapolate)| {
        let mut o = base(opts, ExecutionPolicy::OnlinePropagation, eps, space, specs.len());
        o.extrapolate = extrapolate;
        Autotuner::new(o).tune(&ws)
    });
    for (&(eps, extrapolate), r) in specs.iter().zip(&reports) {
        t.row(vec![
            extrapolate.to_string(),
            f(eps),
            f(r.speedup()),
            f(r.skip_fraction()),
            f(r.mean_error()),
        ]);
    }
    t.emit(&opts.out_dir);
    absorb_obs(
        obs,
        reports,
        specs.iter().map(|&(eps, extrapolate)| format!("extrapolation/{extrapolate}/{eps}")),
    );
}
