//! # critter
//!
//! A reproduction of *“Accelerating Distributed-Memory Autotuning via
//! Statistical Analysis of Execution Paths”* (Hutter & Solomonik, IPDPS 2021)
//! as a self-contained Rust workspace: the **Critter** profiler (online
//! critical-path analysis + confidence-driven selective kernel execution),
//! a deterministic discrete-event simulator standing in for the paper's
//! Stampede2 testbed, real dense-linear-algebra kernels, the four
//! distributed factorization workloads the paper autotunes, and the
//! exhaustive-search tuning harness with the paper's evaluation metrics.
//!
//! ## Quickstart
//!
//! ```
//! use critter::prelude::*;
//!
//! // Tune a small SLATE-Cholesky space with online propagation at ε = 0.25.
//! let opts = TuningOptions::new(ExecutionPolicy::OnlinePropagation, 0.25).with_test_machine();
//! let report = Autotuner::new(opts).tune(&TuningSpace::SlateCholesky.smoke());
//! assert!(report.speedup() > 0.0);
//! println!("autotuning speedup: {:.2}x, mean prediction error: {:.2}%",
//!          report.speedup(), 100.0 * report.mean_error());
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced figure.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// The four factorization workloads.
pub use critter_algs as algs;
/// Analytic BSP cost models.
pub use critter_algs::bsp;
/// The autotuning driver, spaces, and metrics.
pub use critter_autotune as autotune;
/// The Critter profiler: path analysis + selective execution.
pub use critter_core as core;
/// Sequential dense linear algebra kernels.
pub use critter_dla as dla;
/// Machine model: α-β-γ costs, noise, counter-based RNG.
pub use critter_machine as machine;
/// Tuning sessions: checkpoint/resume, persistent profiles, warm-start.
pub use critter_session as session;
/// The distributed-memory simulator (MPI substrate).
pub use critter_sim as sim;
/// Single-pass statistics and confidence intervals.
pub use critter_stats as stats;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use critter_algs::{Workload, WorkloadOutput};
    pub use critter_autotune::{Autotuner, TuningOptions, TuningReport, TuningSpace};
    pub use critter_core::{
        ComputeOp, CritterConfig, CritterEnv, CritterError, ExecutionPolicy, KernelSig,
        KernelStore, Result,
    };
    pub use critter_machine::{KernelClass, MachineModel, MachineParams, NoiseParams};
    pub use critter_session::{SessionConfig, StalenessPolicy};
    pub use critter_sim::{
        run_simulation, BackendKind, Communicator, FaultPlan, RankCtx, ReduceOp, SimConfig,
    };
}
