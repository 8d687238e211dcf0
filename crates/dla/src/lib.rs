//! # critter-dla
//!
//! Sequential dense linear algebra: the BLAS/LAPACK substitute underneath the
//! distributed factorizations (`critter-algs`). Every kernel the paper's four
//! workloads invoke is implemented here on real `f64` data — `gemm`, `syrk`,
//! `trsm`, `potrf`, `trtri`, `geqrf`, `ormqr`, `larft`, `tpqrt`,
//! `tpmqrt` — so the distributed algorithms are *correct programs* whose
//! results are verified by tests, not mocked schedules.
//!
//! What a kernel **costs in simulated time** is not measured here: the
//! simulator charges each kernel a modeled, noise-perturbed cost (see
//! `critter-machine`), because laptop wall-clock would not reflect the
//! paper's KNL nodes. The [`flops`] module provides the per-kernel flop counts
//! the cost model consumes. No sweep runs a kernel body, only a run that
//! verifies does, so this crate is a correctness oracle: every routine is a
//! plain loop, written to be read. There is no `trmm`: products charged as
//! `ComputeOp::Trmm` compute through `gemm`.
//!
//! Matrices are column-major, matching the BLAS convention.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod blas3;
pub mod chol;
pub mod flops;
pub mod matrix;
pub mod qr;
pub mod tp;

pub use blas3::{gemm, syrk, trsm, Side, Trans, Uplo};
pub use chol::{potrf, trtri};
pub use matrix::Matrix;
pub use qr::{geqrf, larft, ormqr};
pub use tp::{tpmqrt, tpqrt};
