//! Figure 5 (panels a–h): QR autotuning evaluation — the same panel layout as
//! Figure 4, for CANDMC QR (left) and SLATE QR (right): autotuning time vs ε
//! per policy (a/b), max-over-ranks kernel execution time (c), mean
//! critical-path kernel-time prediction error (d), mean execution-time
//! prediction error (e/f), and per-configuration error under online
//! propagation (g/h).

use critter_autotune::flags::{SESSION, SIM};
use critter_autotune::TuningSpace;
use critter_bench::{run_figure, FigOpts, FAULT_SEED, GRID, OBS, OUTPUT};
use critter_session::cli::Cli;

const CLI: Cli = Cli {
    about: "Figure 5 (panels a-h): QR autotuning time and prediction error per policy and ε.",
    ..Cli::new("fig5", &[GRID, OUTPUT, OBS, SESSION, FAULT_SEED, SIM])
};

fn main() {
    let opts = FigOpts::from_args(&CLI);
    run_figure(&opts, TuningSpace::CandmcQr, TuningSpace::SlateQr, "fig5");
}
