//! `critter-tune`: command-line autotuning driver.
//!
//! Runs one tuning sweep over a configuration space under a chosen
//! selective-execution policy and prints the paper's evaluation metrics.
//!
//! ```text
//! critter-tune --space slate-cholesky --policy online --epsilon 0.25
//! critter-tune --space candmc-qr --policy eager --epsilon 0.5 --smoke --reps 2
//! critter-tune --space capital-cholesky --policy conditional --extrapolate
//! ```

use critter::prelude::*;

struct Args {
    space: TuningSpace,
    policy: ExecutionPolicy,
    epsilon: f64,
    smoke: bool,
    reps: usize,
    allocation: u64,
    extrapolate: bool,
    no_overhead: bool,
    profile: bool,
    json: bool,
    checkpoint_dir: Option<std::path::PathBuf>,
    resume: bool,
    warm_start: Option<std::path::PathBuf>,
    profile_out: Option<std::path::PathBuf>,
    store: Option<std::path::PathBuf>,
    faults: Option<f64>,
    retries: usize,
    backend: BackendKind,
    seed: Option<u64>,
    observe: bool,
    report_out: Option<std::path::PathBuf>,
    metrics_out: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: critter-tune --space <capital-cholesky|slate-cholesky|candmc-qr|slate-qr|summa25d>\n\
         \x20                 --policy <conditional|local|online|apriori|eager|full>\n\
         \x20                 [--epsilon E=0.25] [--smoke] [--reps N=1]\n\
         \x20                 [--allocation A=0] [--extrapolate] [--no-overhead] [--profile] [--json]\n\
         \x20                 [--checkpoint-dir DIR] [--resume] [--warm-start FILE]\n\
         \x20                 [--profile-out FILE] [--store DIR] [--faults PANIC_PROB] [--retries N=2]\n\
         \x20                 [--backend <threads|tasks>] [--seed N]\n\
         \x20                 [--observe] [--report-out FILE] [--metrics-out FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        space: TuningSpace::SlateCholesky,
        policy: ExecutionPolicy::OnlinePropagation,
        epsilon: 0.25,
        smoke: false,
        reps: 1,
        allocation: 0,
        extrapolate: false,
        no_overhead: false,
        profile: false,
        json: false,
        checkpoint_dir: None,
        resume: false,
        warm_start: None,
        profile_out: None,
        store: None,
        faults: None,
        retries: 2,
        backend: BackendKind::default(),
        seed: None,
        observe: false,
        report_out: None,
        metrics_out: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--space" => {
                i += 1;
                args.space = match argv.get(i).map(String::as_str) {
                    Some("capital-cholesky") => TuningSpace::CapitalCholesky,
                    Some("slate-cholesky") => TuningSpace::SlateCholesky,
                    Some("candmc-qr") => TuningSpace::CandmcQr,
                    Some("slate-qr") => TuningSpace::SlateQr,
                    Some("summa25d") => TuningSpace::Summa25D,
                    _ => usage(),
                };
            }
            "--policy" => {
                i += 1;
                args.policy = match argv.get(i).map(String::as_str) {
                    Some("conditional") => ExecutionPolicy::ConditionalExecution,
                    Some("local") => ExecutionPolicy::LocalPropagation,
                    Some("online") => ExecutionPolicy::OnlinePropagation,
                    Some("apriori") => ExecutionPolicy::APrioriPropagation,
                    Some("eager") => ExecutionPolicy::EagerPropagation,
                    Some("full") => ExecutionPolicy::Full,
                    _ => usage(),
                };
            }
            "--epsilon" => {
                i += 1;
                args.epsilon = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--reps" => {
                i += 1;
                args.reps = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--allocation" => {
                i += 1;
                args.allocation =
                    argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--smoke" => args.smoke = true,
            "--extrapolate" => args.extrapolate = true,
            "--no-overhead" => args.no_overhead = true,
            "--profile" => args.profile = true,
            "--json" => args.json = true,
            "--checkpoint-dir" => {
                i += 1;
                args.checkpoint_dir = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--resume" => args.resume = true,
            "--warm-start" => {
                i += 1;
                args.warm_start = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--profile-out" => {
                i += 1;
                args.profile_out = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--store" => {
                i += 1;
                args.store = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--faults" => {
                i += 1;
                args.faults =
                    Some(argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--retries" => {
                i += 1;
                args.retries = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--backend" => {
                i += 1;
                args.backend = argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                args.seed =
                    Some(argv.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--observe" => args.observe = true,
            "--report-out" => {
                i += 1;
                args.report_out = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                args.metrics_out = Some(argv.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// Emit a machine-readable summary (hand-rolled JSON keeps the root crate
/// dependency-free; config labels contain no characters needing escapes
/// beyond quotes/backslashes, which are handled).
fn print_json(report: &critter::autotune::TuningReport) {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let truth = report.true_times();
    let preds = report.predicted_times();
    let errs = report.per_config_error();
    let mut configs = String::new();
    for (i, c) in report.configs.iter().enumerate() {
        if i > 0 {
            configs.push(',');
        }
        configs.push_str(&format!(
            "{{\"name\":\"{}\",\"true_time\":{},\"predicted\":{},\"rel_error\":{}}}",
            esc(&c.name),
            truth[i],
            preds[i],
            errs[i]
        ));
    }
    println!(
        "{{\"policy\":\"{}\",\"epsilon\":{},\"tuning_time\":{},\"full_time\":{},\"speedup\":{},\"kernel_time_speedup\":{},\"skip_fraction\":{},\"mean_error\":{},\"mean_comp_error\":{},\"selection_quality\":{},\"selected\":{},\"optimal\":{},\"configs\":[{}]}}",
        esc(report.policy.name()),
        report.epsilon,
        report.tuning_time(),
        report.full_time(),
        report.speedup(),
        report.kernel_time_speedup(),
        report.skip_fraction(),
        report.mean_error(),
        report.mean_comp_error(),
        report.selection_quality(),
        report.selected(),
        report.optimal(),
        configs
    );
}

fn main() {
    let args = parse_args();
    let workloads = if args.smoke { args.space.smoke() } else { args.space.bench() };
    let mut opts = TuningOptions::new(args.policy, args.epsilon).with_backend(args.backend);
    opts.reset_between_configs = args.space.resets_between_configs();
    opts.reps = args.reps;
    opts.allocation = args.allocation;
    opts.extrapolate = args.extrapolate;
    opts.charge_internal = !args.no_overhead;
    if let Some(seed) = args.seed {
        opts = opts.with_seed(seed);
    }
    if args.observe || args.metrics_out.is_some() {
        opts = opts.with_observe();
    }
    if let Some(p) = args.faults {
        opts =
            opts.with_faults(FaultPlan::new(0xFA17).with_rank_panics(p)).with_retries(args.retries);
    }
    let mut session = SessionConfig::new();
    if let Some(dir) = &args.checkpoint_dir {
        if !args.resume {
            let _ = std::fs::remove_dir_all(dir);
        }
        session = session.with_checkpoint_dir(dir);
    }
    if let Some(path) = &args.warm_start {
        session = session.with_warm_start(path);
    }
    if let Some(path) = &args.profile_out {
        session = session.with_profile_out(path);
    }
    if let Some(dir) = &args.store {
        session = session.with_store(dir);
    }

    eprintln!(
        "tuning {} ({} configurations, {} ranks) under {} at ε = {} …",
        args.space.name(),
        workloads.len(),
        workloads[0].ranks(),
        args.policy.name(),
        args.epsilon
    );
    let t0 = std::time::Instant::now();
    let report = Autotuner::new(opts).tune_session(&workloads, &session).unwrap_or_else(|e| {
        eprintln!("session failed: {e}");
        std::process::exit(1)
    });
    eprintln!("done in {:.1?} host time\n", t0.elapsed());

    // Canonical artifacts: the same bytes `critter-serve` serves for an
    // equivalent job spec (the CI smoke job `cmp`s the two).
    if let Some(path) = &args.report_out {
        std::fs::write(path, report.to_json_string()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1)
        });
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &args.metrics_out {
        let obs = report.obs.as_ref().expect("--metrics-out implies --observe");
        std::fs::write(path, obs.metrics_string()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1)
        });
        eprintln!("wrote {}", path.display());
    }

    if args.json {
        print_json(&report);
        return;
    }

    println!("policy:                {}", report.policy.name());
    println!("epsilon:               {}", report.epsilon);
    println!("tuning time:           {:.6} simulated s", report.tuning_time());
    println!("full-execution time:   {:.6} simulated s", report.full_time());
    println!("autotuning speedup:    {:.2}x", report.speedup());
    println!("kernel-time speedup:   {:.2}x", report.kernel_time_speedup());
    println!("kernels skipped:       {:.1}%", 100.0 * report.skip_fraction());
    println!("mean prediction error: {:.2}%", 100.0 * report.mean_error());
    println!("comp-time pred error:  {:.2}%", 100.0 * report.mean_comp_error());
    println!("selection quality:     {:.1}%", 100.0 * report.selection_quality());

    let truth = report.true_times();
    let preds = report.predicted_times();
    let best = report.selected();
    let optimal = report.optimal();
    println!("\n{:<44} {:>12} {:>12}", "configuration", "true (s)", "predicted");
    for (i, c) in report.configs.iter().enumerate() {
        let mark = match (i == best, i == optimal) {
            (true, true) => "  <- selected (optimal)",
            (true, false) => "  <- selected",
            (false, true) => "  <- optimal",
            _ => "",
        };
        println!("{:<44} {:>12.6} {:>12.6}{}", c.name, truth[i], preds[i], mark);
    }

    if args.profile {
        println!("\ncritical-path kernel profile of the selected configuration:");
        // Re-run the selected configuration under full execution to print a
        // clean profile.
        let w = &workloads[best];
        let machine = MachineModel::stampede2(w.ranks(), 7, args.allocation).shared();
        let cfg = critter::sim::SimConfig::new(w.ranks()).with_backend(args.backend);
        let rep = critter::sim::run_simulation(cfg, machine, |ctx| {
            let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
            w.run(&mut env, false);
            env.finish().0
        });
        let winner = rep
            .outputs
            .iter()
            .max_by(|a, b| a.predicted_time.partial_cmp(&b.predicted_time).unwrap())
            .expect("at least one rank");
        println!("{:<28} {:>8} {:>14}", "kernel", "count", "path time (s)");
        for (label, count, time) in &winner.top_kernels {
            println!("{label:<28} {count:>8} {time:>14.6}");
        }
        println!("\nload imbalance (max/mean busy time): {:.3}", winner.imbalance());
    }
}
