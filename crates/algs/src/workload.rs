//! The workload abstraction the autotuner drives.

use critter_core::CritterEnv;
use critter_dla::Matrix;

/// What a workload reports back after a run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOutput {
    /// Relative factorization residual (e.g. `‖LLᵀ−A‖/‖A‖`), computed only
    /// when the run [verifies](CritterEnv::verifying) — meaningful only under
    /// full execution, since selective execution corrupts numerics by design.
    /// `None` in every other run: no sweep computes one.
    pub residual: Option<f64>,
    /// Secondary invariant residual (e.g. `‖L·L⁻¹−I‖`, `‖QᵀQ−I‖`).
    pub residual2: Option<f64>,
}

/// A distributed algorithm configuration runnable under the Critter
/// environment — one point of an autotuning configuration space.
pub trait Workload: Send + Sync {
    /// Human-readable configuration label (for reports).
    fn name(&self) -> String;

    /// Number of ranks this configuration requires.
    fn ranks(&self) -> usize;

    /// Execute the algorithm through the interception layer. When
    /// `env.verifies()`, the inputs hold the workload's element values, the
    /// kernels compute, and the residuals are reported; otherwise the run
    /// allocates shape-sized zero inputs, runs no kernel body, and sends and
    /// charges exactly what a verifying run would.
    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput;

    /// The analytic BSP cost of this configuration, where the paper gives a
    /// closed form for its schedule (see [`crate::bsp`]).
    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        None
    }
}

/// A `rows×cols` input block whose element `(r, c)` is `el(r, c)`. The
/// elements are evaluated only when `env` verifies: no other run reads an
/// input value, so it gets the shape-sized zero block.
pub(crate) fn input(
    env: &CritterEnv,
    rows: usize,
    cols: usize,
    el: impl Fn(usize, usize) -> f64,
) -> Matrix {
    let mut block = Matrix::zeros(rows, cols);
    if env.verifies() {
        for c in 0..cols {
            for r in 0..rows {
                block[(r, c)] = el(r, c);
            }
        }
    }
    block
}
