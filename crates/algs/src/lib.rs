//! # critter-algs
//!
//! From-scratch Rust implementations of the four state-of-the-art
//! distributed-memory factorization workloads the paper autotunes (§V),
//! running on the `critter-sim` substrate through the `critter-core`
//! interception layer:
//!
//! * [`capital`] — Capital's recursive bulk-synchronous Cholesky on a
//!   partially-replicated cyclic distribution over a 3D processor grid, with
//!   the three base-case strategies of §V-A;
//! * [`slate_chol`] — a SLATE-style task-based tile Cholesky on a 2D
//!   block-cyclic distribution with lookahead pipelining and nonblocking
//!   point-to-point communication;
//! * [`candmc_qr`] — a CANDMC-style bulk-synchronous 2D QR with TSQR panel
//!   factorization (binary `tpqrt` reduction tree) and block-cyclic trailing
//!   updates;
//! * [`slate_qr`] — a SLATE-style tile QR with flat-tree `tpqrt` chains,
//!   `tpmqrt` trailing updates, and inner panel blocking `w`.
//!
//! A fifth workload, [`summa25d`], demonstrates the §VIII claim that the
//! techniques extend beyond the paper's case studies: 2.5D matrix
//! multiplication with a tunable replication depth.
//!
//! [`bsp`] holds the closed-form BSP cost models of the four factorization
//! schedules, next to the code whose critical path they describe.
//!
//! Every algorithm operates on real `f64` matrix data (`critter-dla`
//! kernels) in a run that verifies (`CritterEnv::verifying`), so
//! full-execution runs are checked numerically; under selective execution
//! the numerics are knowingly corrupted, exactly as in the paper. A run that
//! does not verify — every tuning sweep — moves shape-sized zero tiles
//! through the same schedule and runs no kernel body: its kernel times come
//! from the machine model either way.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bsp;
pub mod candmc_qr;
pub mod capital;
pub mod grid;
pub mod slate_chol;
pub mod slate_qr;
pub mod summa25d;
pub mod workload;

pub use workload::{Workload, WorkloadOutput};
