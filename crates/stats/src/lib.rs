//! # critter-stats
//!
//! Statistical primitives behind the paper's approximate-autotuning framework
//! (§III-A): single-pass (Welford) mean/variance accumulation for kernel
//! execution times, normal and Student-t quantiles implemented from scratch
//! (no external special-function crates), confidence levels that keep a
//! lock-free table of their critical values, confidence intervals — including
//! the paper's **path-scaled** criterion ([`ConfidenceInterval::relative_scaled`]),
//! where knowing that a kernel appears `k` times along the current
//! sub-critical path shrinks the relative interval on the *total* contributed
//! time by `√k` — and summary helpers used by the evaluation harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod confidence;
mod special;
pub mod summary;
mod welford;

pub use confidence::{ConfidenceInterval, ConfidenceLevel};
pub use welford::OnlineStats;
