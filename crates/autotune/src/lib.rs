//! # critter-autotune
//!
//! The approximate-autotuning driver (§VI): exhaustive search over a
//! configuration space, with each configuration's execution accelerated by
//! Critter's selective kernel execution, and the paper's evaluation metrics —
//! per-configuration relative prediction error, mean error, autotuning
//! speedup, and optimal-configuration selection quality.
//!
//! The measurement protocol follows §VI-A: each configuration's *reference*
//! full execution runs directly prior to the approximated one (same
//! allocation, fresh noise draw), prediction error compares the selective
//! run's critical-path estimate against that reference, kernel statistics are
//! reset between configurations for the SLATE/CANDMC workloads and persisted
//! for Capital, and *a-priori propagation* pays for an extra offline full
//! execution per configuration.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod flags;
pub mod json;
pub mod metrics;
pub mod options;
pub mod records;
mod references;
pub mod search;
pub mod spaces;
mod timeline;

pub use critter_session::{SessionConfig, StalenessPolicy};
pub use engine::Autotuner;
pub use options::TuningOptions;
pub use records::{
    ConfigResult, ProgressHook, ProgressVerdict, RunRecord, SweepProgress, TuningReport,
};
pub use search::{search, SearchOutcome, SearchStrategy};
pub use spaces::TuningSpace;
