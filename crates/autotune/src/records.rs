//! What a sweep produces and reports: per-run records, per-configuration
//! results, the [`TuningReport`], and the progress-hook vocabulary.

use std::sync::Arc;

use critter_core::{ExecutionPolicy, PathMetrics};
use critter_obs::ObsReport;

/// Aggregated outcome of one simulated run.
///
/// `PartialEq` compares every field exactly (no tolerance): two schedules of
/// the same sweep must agree *bit for bit*.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Simulated makespan (the autotuner pays this).
    pub elapsed: f64,
    /// Critter's critical-path execution-time estimate.
    pub predicted: f64,
    /// Critical-path cost metrics.
    pub path: PathMetrics,
    /// Longest per-rank *executed* kernel time (computation + communication,
    /// excluding profiling overheads) — Fig. 4c / 5c's metric.
    pub max_kernel_time: f64,
    /// Longest per-rank *predicted* kernel time (executed + skipped means).
    pub max_kernel_predicted: f64,
    /// Kernels executed across all ranks.
    pub kernels_executed: u64,
    /// Kernels skipped across all ranks.
    pub kernels_skipped: u64,
    /// Total internal (profiling) words sent.
    pub internal_words: u64,
}

/// Per-configuration results: one `(full, tuned)` record pair per repetition,
/// plus the offline pass records for a-priori propagation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigResult {
    /// Configuration label.
    pub name: String,
    /// `(reference full run, selective run)` per repetition.
    pub pairs: Vec<(RunRecord, RunRecord)>,
    /// Offline full passes (a-priori propagation only), charged to tuning time.
    pub offline: Vec<RunRecord>,
    /// The configuration exhausted its fault-retry budget and was abandoned:
    /// any remaining repetitions were skipped and the selection metrics
    /// exclude it. Only ever true in fault-injected sweeps.
    pub quarantined: bool,
}

/// A full tuning sweep's results (one policy, one ε, one allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// Policy under test.
    pub policy: ExecutionPolicy,
    /// Confidence tolerance.
    pub epsilon: f64,
    /// Per-configuration results, in sweep order.
    pub configs: Vec<ConfigResult>,
    /// Observability timeline and metrics (only with
    /// [`TuningOptions::observe`](crate::TuningOptions::observe)): one [`critter_obs::TimelineRun`] per
    /// simulated run, ordered by run index — a pure function of run identity,
    /// never of dispatch order.
    pub obs: Option<ObsReport>,
}

/// Live progress of a sweep, reported to the tuner's progress hook
/// after every committed `(config, rep)` unit (see
/// [`Autotuner::with_progress`](crate::Autotuner::with_progress)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Completed `(config, rep)` units, including units restored from a
    /// checkpoint on resume (a resumed sweep's first report starts from the
    /// restored count, not zero).
    pub units_done: usize,
    /// Total units the sweep will run: `configurations × reps`.
    pub units_total: usize,
}

/// The progress hook's verdict on whether the sweep may proceed past the
/// current committed-unit boundary (see [`Autotuner::with_progress`](crate::Autotuner::with_progress)).
///
/// Both stop verdicts are checkpoint-consistent: the boundary they fire at
/// is persisted before `tune_session` returns, so a later session resumes exactly there and
/// produces a byte-identical report. The difference is intent —
/// [`Cancel`](ProgressVerdict::Cancel) finalizes the job,
/// [`Preempt`](ProgressVerdict::Preempt) pauses it to yield resources and
/// expects the caller to re-run the same session later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressVerdict {
    /// Keep sweeping.
    Continue,
    /// Pause at this boundary: `tune_session` checkpoints and returns
    /// [`critter_core::CritterError::Preempted`].
    Preempt,
    /// Stop for good at this boundary: `tune_session` checkpoints and
    /// returns [`critter_core::CritterError::Cancelled`].
    Cancel,
}

/// Observer invoked by [`Autotuner::tune_session`](crate::Autotuner::tune_session) after every committed
/// unit. The returned [`ProgressVerdict`] decides whether the sweep
/// continues, pauses ([`CritterError::Preempted`]), or stops
/// ([`CritterError::Cancelled`]) at that unit boundary; either stop is
/// checkpointed first, so a later session resumes exactly where the hook
/// halted it. The hook is observational only — it runs after the unit's
/// results are finalized, so it can never perturb report bytes.
///
/// [`CritterError::Preempted`]: critter_core::CritterError::Preempted
/// [`CritterError::Cancelled`]: critter_core::CritterError::Cancelled
pub type ProgressHook = Arc<dyn Fn(SweepProgress) -> ProgressVerdict + Send + Sync>;
