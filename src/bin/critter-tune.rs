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

use std::path::PathBuf;
use std::sync::Arc;

use critter::autotune::flags::{SessionFlags, SESSION, SIM};
use critter::prelude::*;
use critter::session::cli::{Cli, Error, Flag, Parsed};

const TUNE: &[Flag] = &[
    Flag(
        "--space NAME",
        "`capital-cholesky`, `slate-cholesky` (default), `candmc-qr`, `slate-qr`, `summa25d`",
    ),
    Flag("--policy NAME", "`conditional`, `local`, `online` (default), `apriori`, `eager`, `full`"),
    Flag("--epsilon E", "confidence tolerance ε (default 0.25)"),
    Flag("--smoke", "reduced smoke space for quick trials"),
    Flag("--allocation A", "simulated node-allocation id (default 0)"),
    Flag("--seed N", "base noise seed (default 0xC0FFEE = 12648430)"),
    Flag("--extrapolate", "enable the §VIII input-size extrapolation extension"),
    Flag("--no-overhead", "do not charge Critter's internal piggyback messages"),
    Flag("--profile", "print the winning path's per-kernel profile"),
    Flag("--json", "machine-readable summary on stdout"),
    Flag("--observe", "record the observability trace in the report"),
    Flag("--report-out FILE", "write the canonical report JSON (the bytes `critter-serve` serves)"),
    Flag("--metrics-out FILE", "write the observability metrics text (implies `--observe`)"),
];

const CLI: Cli = Cli {
    about: "Runs one tuning sweep over a configuration space under a selective-execution\n\
            policy and prints the paper's evaluation metrics.",
    ..Cli::new("critter-tune", &[TUNE, SESSION, SIM])
};

/// Emit a machine-readable summary (hand-rolled JSON keeps the root crate
/// dependency-free; config labels contain no characters needing escapes
/// beyond quotes/backslashes, which are handled).
fn print_json(report: &critter::autotune::TuningReport) {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let (truth, preds, errs) =
        (report.true_times(), report.predicted_times(), report.per_config_error());
    let configs: Vec<String> = (report.configs.iter().enumerate())
        .map(|(i, c)| {
            let (name, t, p, e) = (esc(&c.name), truth[i], preds[i], errs[i]);
            format!("{{\"name\":\"{name}\",\"true_time\":{t},\"predicted\":{p},\"rel_error\":{e}}}")
        })
        .collect();
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
        configs.join(",")
    );
}

/// The program; a rejected flag value is a usage error (see [`Cli::parse_env`]).
fn run(p: &Parsed) -> std::result::Result<(), Error> {
    let space = p.get("--space")?.unwrap_or(TuningSpace::SlateCholesky);
    let policy = p.get("--policy")?.unwrap_or(ExecutionPolicy::OnlinePropagation);
    let epsilon = p.get("--epsilon")?.unwrap_or(0.25);
    let backend = p.get("--backend")?.unwrap_or_default();
    let report_out: Option<PathBuf> = p.get("--report-out")?;
    let metrics_out: Option<PathBuf> = p.get("--metrics-out")?;
    let mut opts = TuningOptions::new(policy, epsilon).with_backend(backend);
    opts.reset_between_configs = space.resets_between_configs();
    opts.reps = p.get("--reps")?.unwrap_or(1);
    opts.allocation = p.get("--allocation")?.unwrap_or(0);
    opts.extrapolate = p.switch("--extrapolate");
    opts.charge_internal = !p.switch("--no-overhead");
    opts.seed = p.get("--seed")?.unwrap_or(opts.seed);
    opts.observe = p.switch("--observe") || metrics_out.is_some();
    let (opts, session) = SessionFlags::from_parsed(p)?.session(opts, None);
    let workloads = if p.switch("--smoke") { space.smoke() } else { space.bench() };

    eprintln!(
        "tuning {} ({} configurations, {} ranks) under {} at ε = {} …",
        space.name(),
        workloads.len(),
        workloads[0].ranks(),
        policy.name(),
        epsilon
    );
    let t0 = std::time::Instant::now();
    let tuner = Autotuner::new(opts);
    let report = tuner.tune_session(&workloads, &session).unwrap_or_else(|e| {
        eprintln!("session failed: {e}");
        std::process::exit(1)
    });
    eprintln!("done in {:.1?} host time\n", t0.elapsed());

    // Canonical artifacts: the same bytes `critter-serve` serves for an
    // equivalent job spec (the CI smoke job `cmp`s the two).
    let write = |path: &PathBuf, text: String| {
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1)
        });
        eprintln!("wrote {}", path.display());
    };
    if let Some(path) = &report_out {
        write(path, report.to_json_string());
    }
    if let Some(path) = &metrics_out {
        write(path, report.obs.as_ref().expect("--metrics-out implies --observe").metrics_string());
    }

    if p.switch("--json") {
        print_json(&report);
        return Ok(());
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

    if p.switch("--profile") {
        println!("\ncritical-path kernel profile of the selected configuration:");
        // Re-run the selected configuration under full execution, on the
        // sweep's machine, to print a clean profile.
        let w = Arc::clone(&workloads[best]);
        let o = tuner.options();
        let machine =
            MachineModel::new(o.params.clone(), o.noise.clone(), w.ranks(), o.seed, o.allocation)
                .shared();
        let cfg = critter::sim::SimConfig::new(w.ranks()).with_backend(backend);
        let rep = critter::sim::run_simulation(cfg, machine, move |ctx| {
            let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
            w.run(&mut env);
            env.finish().0
        });
        let winner = rep
            .outputs
            .iter()
            .max_by(|a, b| a.predicted_time.total_cmp(&b.predicted_time))
            .expect("at least one rank");
        println!("{:<28} {:>8} {:>14}", "kernel", "count", "path time (s)");
        for (label, count, time) in &winner.top_kernels {
            println!("{label:<28} {count:>8} {time:>14.6}");
        }
        println!("\nload imbalance (max/mean busy time): {:.3}", winner.imbalance());
    }
    Ok(())
}

fn main() {
    CLI.parse_env(run)
}
