//! Online critical-path analysis of a distributed QR factorization: run
//! CANDMC-style 2D QR under full execution across grid shapes and compare the
//! measured critical-path costs against the paper's analytic BSP model
//! (§V-B) — who wins and where the crossover falls should match.
//!
//! Run: `cargo run --example qr_critical_path --release`

use critter::algs::candmc_qr::CandmcQr;
use critter::algs::Workload;
use critter::prelude::*;

fn main() {
    let (m, n, b) = (256, 32, 4);
    println!("CANDMC QR {m}x{n}, block {b}: measured critical path vs BSP model\n");
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} | {:>10} {:>12} {:>12}",
        "grid", "syncs", "words", "flops", "exec time", "bsp S", "bsp W", "bsp F"
    );
    for (pr, pc) in [(16usize, 1usize), (8, 2), (4, 4), (2, 8)] {
        let w = CandmcQr { m, n, block: b, pr, pc };
        let machine = MachineModel::new(
            MachineParams::stampede2_knl(),
            NoiseParams::cluster(),
            w.ranks(),
            7,
            0,
        )
        .shared();
        let wl = w.clone();
        let report =
            run_simulation(SimConfig::new(w.ranks()), machine, move |ctx: &mut RankCtx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                wl.run(&mut env);
                env.finish().0
            });
        let path = report
            .outputs
            .iter()
            .fold(critter::core::PathMetrics::default(), |acc, r| acc.max(r.path));
        let elapsed = report.rank_times.iter().copied().fold(0.0, f64::max);
        let bsp = w.bsp().expect("CANDMC QR has a BSP model");
        println!(
            "{:<10} {:>10.0} {:>12.0} {:>12.3e} {:>12.6} | {:>10.0} {:>12.0} {:>12.3e}",
            format!("{pr}x{pc}"),
            path.syncs,
            path.comm_words,
            path.flops,
            elapsed,
            bsp.supersteps,
            bsp.words,
            bsp.flops
        );
    }
    println!(
        "\nTall grids cut the m·n/p_r bandwidth term but serialize the panel tree;\n\
         the measured path costs should move the same way the BSP columns do."
    );
}
