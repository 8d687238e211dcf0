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
//! the cost model consumes. How fast the kernels run **on the host** matters
//! all the same: a sweep over large tiles is numerics-bound (the benchmark's
//! `sweep-kernels` workload), and a skipped kernel saves exactly this time.
//! `gemm`, `syrk`, `trsm`, `potrf` and `trtri` are therefore blocked
//! algorithms over one register-blocked GEMM core (the private `kernel`
//! module; DESIGN.md §2.1), whose `avx2` and baseline instantiations return
//! bit-identical results. The Householder kernels are plain loops. There is
//! no `trmm`: products charged as `ComputeOp::Trmm` compute through `gemm`.
//!
//! Matrices are column-major, matching the BLAS convention.

#![deny(missing_docs)]

pub mod blas3;
pub mod chol;
pub mod flops;
mod kernel;
pub mod matrix;
#[cfg(test)]
mod oracle;
pub mod qr;
pub mod tp;

pub use blas3::{gemm, syrk, trsm, Side, Trans, Uplo};
pub use chol::{potrf, trtri};
pub use matrix::Matrix;
pub use qr::{geqrf, larft, ormqr};
pub use tp::{tpmqrt, tpqrt};
