//! Figure 3 entry point; the implementation lives in `critter_bench::fig3`
//! so the testkit's trace-determinism oracle can drive the same pipeline.

use critter_autotune::flags::{SESSION, SIM};
use critter_bench::{fig3, FigOpts, FAULT_SEED, OBS, OUTPUT};
use critter_session::cli::Cli;

const CLI: Cli = Cli {
    about: "Figure 3 (panels a-l): per-configuration critical-path costs from one full\n\
            execution per configuration (no ε grid, allocation 0).",
    ..Cli::new("fig3", &[OUTPUT, OBS, SESSION, FAULT_SEED, SIM])
};

fn main() {
    fig3::run(&FigOpts::from_args(&CLI));
}
