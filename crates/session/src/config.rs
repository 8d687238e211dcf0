//! Session configuration: the `with_*` builder for persistence and
//! warm-start behavior, and the staleness policy applied to reloaded
//! profiles.

use std::path::PathBuf;

use critter_core::KernelStore;
use critter_stats::OnlineStats;

/// How much to trust kernel statistics loaded from a previous session.
///
/// A persisted profile was measured on an earlier allocation, possibly
/// days ago; its means are still the best available prior, but its sample
/// counts overstate the current confidence. The policy discounts both:
/// sample counts are decayed multiplicatively and the sample variance is
/// inflated, which widens every confidence interval and makes the
/// execute-at-least-once machinery re-verify each kernel sooner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StalenessPolicy {
    /// Multiplier on each model's sample count (clamped to `0.0..=1.0`;
    /// 1.0 keeps the counts as persisted).
    pub decay: f64,
    /// Multiplier on each model's sample variance (clamped to `>= 1.0`;
    /// 1.0 keeps the variance as persisted).
    pub variance_inflation: f64,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy { decay: 1.0, variance_inflation: 1.0 }
    }
}

impl StalenessPolicy {
    /// Full trust: reloaded models are used exactly as persisted.
    pub fn fresh() -> Self {
        Self::default()
    }

    /// Set the sample-count decay factor.
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay.clamp(0.0, 1.0);
        self
    }

    /// Set the variance inflation factor.
    pub fn with_variance_inflation(mut self, inflation: f64) -> Self {
        self.variance_inflation = inflation.max(1.0);
        self
    }

    /// True when applying the policy would change nothing.
    pub fn is_fresh(&self) -> bool {
        self.decay >= 1.0 && self.variance_inflation <= 1.0
    }

    /// Discount one model's statistics in place. The mean and the observed
    /// min/max are preserved; the count shrinks (never below 1 for a
    /// non-empty model) and the variance grows per the policy.
    pub fn apply_stats(&self, stats: &mut OnlineStats) {
        let n = stats.count();
        if n == 0 || self.is_fresh() {
            return;
        }
        let decayed = ((n as f64 * self.decay).floor() as u64).clamp(1, n);
        // Variance is m2 / (n - 1); keep it meaningful under the new count
        // and inflate it, so the confidence interval widens on both axes.
        let variance = if n > 1 { stats.m2() / (n - 1) as f64 } else { 0.0 };
        let m2 = variance * self.variance_inflation * (decayed.saturating_sub(1)) as f64;
        let mean = stats.mean();
        *stats = OnlineStats::from_parts(
            decayed,
            mean,
            m2,
            stats.min(),
            stats.max(),
            mean * decayed as f64,
        );
    }

    /// Discount every model of every rank's store; returns the number of
    /// models touched (the `arg` of the driver's `warm_start` obs event).
    pub fn apply(&self, stores: &mut [KernelStore]) -> u64 {
        let mut models = 0u64;
        for store in stores.iter_mut() {
            for model in store.local.values_mut() {
                self.apply_stats(&mut model.stats);
                models += 1;
            }
        }
        models
    }
}

/// Where a tuning session persists its state and how it reuses a previous
/// session's.
///
/// The default configuration is fully ephemeral — nothing touches disk —
/// which is what `Autotuner::tune` runs `tune_session` with.
///
/// # Examples
///
/// ```
/// use critter_session::{SessionConfig, StalenessPolicy};
///
/// let cfg = SessionConfig::new()
///     .with_checkpoint_dir("/tmp/sweep-ckpt")
///     .with_staleness(StalenessPolicy::fresh().with_decay(0.5));
/// assert_eq!(cfg.log_path().unwrap().file_name().unwrap(), "session.log");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Directory checkpoints are written to (`checkpoint.json`, the
    /// `timeline.jsonl` sidecar of an observed sweep and the `session.log`
    /// event log), one checkpoint per committed `(config, rep)` unit.
    /// `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Profile to seed kernel models from before the sweep starts.
    pub warm_start: Option<PathBuf>,
    /// Where to persist the final kernel-model profile of this session.
    pub profile_out: Option<PathBuf>,
    /// Directory of a shared content-addressed profile store
    /// (`critter-store`): warm-start from it when no file warm start is
    /// given, and publish the final models back into it at sweep end.
    pub store: Option<PathBuf>,
    /// Discounting applied to warm-started models.
    pub staleness: StalenessPolicy,
}

impl SessionConfig {
    /// An ephemeral session: no checkpoints, no profiles.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable checkpointing into `dir`.
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Warm-start kernel models from the profile at `path`.
    pub fn with_warm_start(mut self, path: impl Into<PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Persist the final kernel models to `path` when the sweep completes.
    pub fn with_profile_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.profile_out = Some(path.into());
        self
    }

    /// Set the staleness policy for warm-started models.
    pub fn with_staleness(mut self, staleness: StalenessPolicy) -> Self {
        self.staleness = staleness;
        self
    }

    /// Attach a shared profile-store directory: seed kernel models from
    /// it (when no explicit `warm_start` file takes precedence) and
    /// publish the session's final models back into it as one atomic
    /// commit.
    pub fn with_store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store = Some(dir.into());
        self
    }

    /// Path of the checkpoint file, when checkpointing is enabled.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        self.checkpoint_dir.as_ref().map(|d| d.join("checkpoint.json"))
    }

    /// Path of the observed-timeline sidecar, when checkpointing is enabled:
    /// one line per observed run, appended as units commit; `checkpoint.json`
    /// records how much of it is committed.
    pub fn timeline_path(&self) -> Option<PathBuf> {
        self.checkpoint_dir.as_ref().map(|d| d.join("timeline.jsonl"))
    }

    /// Path of the session event log, when checkpointing is enabled.
    pub fn log_path(&self) -> Option<PathBuf> {
        self.checkpoint_dir.as_ref().map(|d| d.join("session.log"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::signature::{ComputeOp, KernelSig};

    #[test]
    fn builder_chains() {
        let cfg = SessionConfig::new()
            .with_checkpoint_dir("ck")
            .with_warm_start("profile.json")
            .with_profile_out("out.json");
        assert_eq!(cfg.checkpoint_path().unwrap(), PathBuf::from("ck/checkpoint.json"));
        assert_eq!(cfg.log_path().unwrap(), PathBuf::from("ck/session.log"));
        assert_eq!(cfg.timeline_path().unwrap(), PathBuf::from("ck/timeline.jsonl"));
        assert_eq!(SessionConfig::new().checkpoint_path(), None);
        let store_only = SessionConfig::new().with_store("store-dir");
        assert_eq!(store_only.store.as_deref(), Some(std::path::Path::new("store-dir")));
    }

    #[test]
    fn staleness_decays_counts_and_inflates_variance() {
        let mut store = KernelStore::new();
        let sig = KernelSig::compute(ComputeOp::Gemm, 8, 8, 8);
        for i in 0..10 {
            store.record(&sig, 1.0 + (i as f64) * 0.01);
        }
        let before = store.model(sig.key()).unwrap().stats;
        let policy = StalenessPolicy::fresh().with_decay(0.5).with_variance_inflation(4.0);
        let touched = policy.apply(std::slice::from_mut(&mut store));
        assert_eq!(touched, 1);
        let after = &store.model(sig.key()).unwrap().stats;
        assert_eq!(after.count(), 5);
        assert_eq!(after.mean(), before.mean());
        assert_eq!(after.min(), before.min());
        assert_eq!(after.max(), before.max());
        let var_before = before.m2() / 9.0;
        let var_after = after.m2() / 4.0;
        assert!((var_after / var_before - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fresh_policy_is_identity() {
        let mut store = KernelStore::new();
        let sig = KernelSig::compute(ComputeOp::Trsm, 4, 4, 4);
        store.record(&sig, 2.0);
        let before = store.model(sig.key()).unwrap().stats;
        StalenessPolicy::fresh().apply(std::slice::from_mut(&mut store));
        let after = &store.model(sig.key()).unwrap().stats;
        assert_eq!(after.count(), before.count());
        assert_eq!(after.m2().to_bits(), before.m2().to_bits());
        // A decayed singleton keeps its one sample.
        let mut one = OnlineStats::new();
        one.push(1.5);
        StalenessPolicy::fresh().with_decay(0.01).apply_stats(&mut one);
        assert_eq!(one.count(), 1);
    }
}
