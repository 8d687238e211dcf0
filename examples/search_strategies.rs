//! Composing Critter with different configuration-space search strategies
//! (§VI-A: "our framework can be applied to accelerate any configuration-space
//! search strategy"): exhaustive search, seeded random subsampling, and
//! successive halving that tightens the confidence tolerance round by round.
//! Finishes with the critical-path kernel profile of the chosen configuration.
//!
//! Run: `cargo run --example search_strategies --release`

use std::sync::Arc;

use critter::autotune::{search, SearchStrategy, TuningOptions};
use critter::prelude::*;

fn main() {
    let space = TuningSpace::SlateCholesky;
    let workloads = space.smoke();
    let mut opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.125);
    opts.reset_between_configs = space.resets_between_configs();

    println!("searching {} ({} configurations)\n", space.name(), workloads.len());
    println!(
        "{:<22} {:>12} {:>13} {:>9} {:>8}",
        "strategy", "evaluations", "tuning time", "speedup", "winner"
    );
    let strategies: [(&str, SearchStrategy); 3] = [
        ("exhaustive", SearchStrategy::Exhaustive),
        ("random (2 samples)", SearchStrategy::Random { samples: 2, seed: 42 }),
        ("successive halving", SearchStrategy::SuccessiveHalving { eta: 2 }),
    ];
    let mut winner = 0;
    for (name, strategy) in &strategies {
        let out = search(&opts, &workloads, strategy);
        println!(
            "{:<22} {:>12} {:>13.6} {:>8.2}x {:>8}",
            name,
            out.evaluations(),
            out.tuning_time,
            out.speedup(),
            out.best
        );
        if *name == "exhaustive" {
            winner = out.best;
        }
    }

    // Profile the winning configuration: the critical-path kernel profile
    // every rank agrees on after the final propagation.
    println!("\ncritical-path kernel profile of {} (rank 0):\n", workloads[winner].name());
    let w = Arc::clone(&workloads[winner]);
    let machine = MachineModel::stampede2(w.ranks(), 5, 0).shared();
    let report = run_simulation(SimConfig::new(w.ranks()), machine, move |ctx| {
        let cfg = CritterConfig::new(ExecutionPolicy::OnlinePropagation, 0.125);
        let mut env = CritterEnv::new(ctx, cfg, KernelStore::new());
        w.run(&mut env);
        env.finish().0
    });
    let r = &report.outputs[0];
    println!("{:<30} {:>7} {:>13}", "kernel", "count", "path time(s)");
    for (label, count, time) in r.top_kernels.iter().take(8) {
        println!("{label:<30} {count:>7} {time:>13.6}");
    }
    println!(
        "\n{} kernels intercepted, {:.0}% skipped",
        r.kernels_executed + r.kernels_skipped,
        100.0 * r.skip_fraction()
    );
}
