//! The workload abstraction the autotuner drives.

use critter_core::CritterEnv;

/// What a workload reports back after a run.
#[derive(Debug, Clone, Default)]
pub struct WorkloadOutput {
    /// Relative factorization residual (e.g. `‖LLᵀ−A‖/‖A‖`), computed only
    /// when verification was requested — meaningful only under full
    /// execution, since selective execution corrupts numerics by design.
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

    /// Execute the algorithm through the interception layer. `verify`
    /// requests numerical residual computation (full-execution runs only).
    fn run(&self, env: &mut CritterEnv, verify: bool) -> WorkloadOutput;

    /// The analytic BSP cost of this configuration, where the paper gives a
    /// closed form for its schedule (see [`crate::bsp`]).
    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        None
    }
}
