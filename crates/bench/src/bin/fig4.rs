//! Figure 4 (panels a–h): Cholesky autotuning evaluation.
//!
//! * 4a/4b — autotuning execution time vs ε for the five policies, with the
//!   full-execution reference (Capital / SLATE Cholesky);
//! * 4c — max-over-ranks kernel execution time vs ε (SLATE Cholesky);
//! * 4d — mean prediction error of critical-path computation time (SLATE);
//! * 4e/4f — mean execution-time prediction error vs ε (Capital / SLATE);
//! * 4g/4h — per-configuration error under online propagation.

use critter_autotune::flags::{SESSION, SIM};
use critter_autotune::TuningSpace;
use critter_bench::{run_figure, FigOpts, FAULT_SEED, GRID, OBS, OUTPUT};
use critter_session::cli::Cli;

const CLI: Cli = Cli {
    about: "Figure 4 (panels a-h): Cholesky autotuning time and prediction error per policy and ε.",
    ..Cli::new("fig4", &[GRID, OUTPUT, OBS, SESSION, FAULT_SEED, SIM])
};

fn main() {
    let opts = FigOpts::from_args(&CLI);
    run_figure(&opts, TuningSpace::CapitalCholesky, TuningSpace::SlateCholesky, "fig4");
}
