//! # critter-core
//!
//! The paper's primary contribution: **Critter**, a profiling layer that
//! performs *online critical-path analysis* and *selective kernel execution*
//! to accelerate distributed-memory autotuning (Hutter & Solomonik,
//! IPDPS 2021).
//!
//! A [`CritterEnv`] wraps a simulated rank's [`critter_sim::RankCtx`] and
//! intercepts every computation kernel (BLAS/LAPACK call) and communication
//! kernel (MPI call) the application issues — the role Fig. 2 of the paper
//! assigns to the PMPI interception layer. For each kernel *signature*
//! (routine + input size, [`KernelSig`]) it maintains:
//!
//! * `K̄` — local single-pass performance statistics ([`KernelStore`]);
//! * `K̃` — the kernel's execution count along the rank's current
//!   *sub-critical path*, propagated between ranks by piggybacking a
//!   max-by-execution-time reduction on every intercepted communication
//!   (the longest-path algorithm, [`message`]);
//! * a confidence interval on the kernel's mean execution time
//!   (`critter-stats`), optionally tightened by the path count.
//!
//! Once a kernel is *predictable* — relative confidence-interval size below
//! the tolerance ε, per the active [`ExecutionPolicy`] — its execution
//! is skipped and its modeled mean is charged to the prediction instead. The
//! [`channels`] module implements the aggregate-channel infrastructure that
//! the *eager propagation* policy uses to switch kernels off globally across
//! a cartesian processor grid.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod channels;
pub mod env;
mod error;
mod extrapolate;
pub mod fnv;
pub mod message;
mod policy;
mod profile;
mod report;
pub mod signature;
pub mod snapshot;

/// The workspace's one JSON reader (`critter_obs::json`), re-exported so
/// crates that decode persisted documents need not link `critter-obs`.
pub use critter_obs::json;
pub use env::CritterEnv;
pub use error::{CritterError, Result};
pub use extrapolate::{ExtrapolationConfig, ExtrapolationTable};
pub use policy::{CritterConfig, ExecutionPolicy};
pub use profile::KernelStore;
pub use report::{CritterReport, PathMetrics};
pub use signature::{ComputeOp, KernelSig};
