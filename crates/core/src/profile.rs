//! Per-rank kernel performance state: the paper's `K̄` (local statistics) and
//! `K̃` (current sub-critical-path execution counts).

use critter_stats::{ConfidenceInterval, OnlineStats};

use crate::extrapolate::ExtrapolationTable;
use crate::fnv::FnvMap;
use crate::policy::CONFIDENCE;
use crate::signature::KernelSig;

/// Local performance model of one kernel signature (an entry of `K̄`).
#[derive(Debug, Clone)]
pub struct KernelModel {
    /// The signature (kept for reporting).
    pub sig: KernelSig,
    /// Single-pass statistics over executed samples.
    pub stats: OnlineStats,
    /// Times this kernel was *scheduled* during the current tuning iteration
    /// (executed or skipped) — used by the execute-at-least-once rule.
    pub scheduled_this_config: u64,
    /// Times this kernel was *executed* during the current tuning iteration.
    pub executed_this_config: u64,
    /// Eager propagation: fraction of the machine this kernel's statistics
    /// have been propagated across, as a covered-rank product. The kernel may
    /// be switched off globally once coverage reaches the world size.
    pub eager_coverage: u64,
    /// Eager propagation: permanently switched off.
    pub eager_off: bool,
    /// Eager propagation: strides of the grid dimensions across which this
    /// kernel's statistics have already been aggregated.
    pub eager_strides: Vec<u64>,
}

impl KernelModel {
    /// A fresh (sample-less) model of `sig` — the state every entry of `K̄`
    /// starts from, and the base the profile-restore path fills in.
    pub fn from_sig(sig: KernelSig) -> Self {
        KernelModel {
            sig,
            stats: OnlineStats::new(),
            scheduled_this_config: 0,
            executed_this_config: 0,
            eager_coverage: 1,
            eager_off: false,
            eager_strides: Vec::new(),
        }
    }

    /// Confidence interval on the mean at the process's confidence level.
    pub fn interval(&self) -> ConfidenceInterval {
        ConfidenceInterval::from_stats(&self.stats, &CONFIDENCE)
    }
}

/// A rank's complete kernel-performance state, persisted across tuning
/// iterations when the policy reuses models (eager propagation on Capital).
#[derive(Debug, Clone, Default)]
pub struct KernelStore {
    /// `K̄`: local models keyed by signature key.
    pub local: FnvMap<u64, KernelModel>,
    /// `K̃`: per-kernel `(execution count, accumulated time)` along the
    /// current sub-critical path — the online critical-path profile.
    pub path_counts: FnvMap<u64, (u64, f64)>,
    /// A-priori propagation: critical-path counts captured by the offline
    /// iteration, applied immediately during the tuning run.
    pub apriori_counts: FnvMap<u64, u64>,
    /// §VIII extension: per-routine-family time-vs-flops fits.
    pub extrapolation: ExtrapolationTable,
}

impl KernelStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the local model for `sig`.
    pub fn model_mut(&mut self, sig: &KernelSig) -> &mut KernelModel {
        self.local.entry(sig.key()).or_insert_with(|| KernelModel::from_sig(sig.clone()))
    }

    /// Look up the local model by key.
    pub fn model(&self, key: u64) -> Option<&KernelModel> {
        self.local.get(&key)
    }

    /// Record a measured execution time for `sig`.
    pub fn record(&mut self, sig: &KernelSig, time: f64) {
        let m = self.model_mut(sig);
        m.stats.push(time);
        m.executed_this_config += 1;
    }

    /// Count one scheduled occurrence (executed or skipped) of `sig` on the
    /// local path; returns the updated path count.
    pub fn schedule(&mut self, sig: &KernelSig) -> u64 {
        let key = sig.key();
        self.model_mut(sig).scheduled_this_config += 1;
        let c = self.path_counts.entry(key).or_insert((0, 0.0));
        c.0 += 1;
        c.0
    }

    /// Attribute `time` seconds contributed by kernel `key` to the local
    /// sub-critical-path profile.
    pub fn attribute_path_time(&mut self, key: u64, time: f64) {
        self.path_counts.entry(key).or_insert((0, 0.0)).1 += time;
    }

    /// Current path count (`K̃` frequency) of a kernel.
    pub fn path_count(&self, key: u64) -> u64 {
        self.path_counts.get(&key).map(|&(c, _)| c).unwrap_or(0)
    }

    /// Replace `K̃` wholesale with a winning remote path (longest-path
    /// propagation: the loser adopts the winner's kernel frequencies and
    /// per-kernel path times).
    pub fn adopt_path(&mut self, entries: impl Iterator<Item = (u64, u64, f64)>) {
        self.path_counts.clear();
        for (key, freq, time) in entries {
            self.path_counts.insert(key, (freq, time));
        }
    }

    /// The current path profile sorted by contributed time, largest first.
    pub fn path_profile(&self) -> Vec<(u64, u64, f64)> {
        let mut v: Vec<(u64, u64, f64)> =
            self.path_counts.iter().map(|(&k, &(c, t))| (k, c, t)).collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    /// Reset per-configuration state: path counts and per-config execution
    /// counters. Sample statistics are kept or dropped per `keep_models`
    /// (the paper resets all statistics between configurations for SLATE and
    /// CANDMC, and lets eager propagation reuse models for Capital).
    pub fn start_config(&mut self, keep_models: bool) {
        self.path_counts.clear();
        if keep_models {
            for m in self.local.values_mut() {
                m.scheduled_this_config = 0;
                m.executed_this_config = 0;
            }
        } else {
            self.local.clear();
            self.extrapolation.clear();
        }
    }

    /// Snapshot the current path counts into the a-priori table (end of the
    /// offline iteration of *a-priori propagation*).
    pub fn capture_apriori(&mut self) {
        self.apriori_counts = self.path_counts.iter().map(|(&k, &(c, _))| (k, c)).collect();
    }

    /// Total executed kernel time accumulated in the local models.
    pub fn total_sampled_time(&self) -> f64 {
        self.local.values().map(|m| m.stats.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ComputeOp;

    fn sig() -> KernelSig {
        KernelSig::compute(ComputeOp::Gemm, 8, 8, 8)
    }

    #[test]
    fn record_accumulates() {
        let mut s = KernelStore::new();
        s.record(&sig(), 1.0);
        s.record(&sig(), 3.0);
        let m = s.model(sig().key()).unwrap();
        assert_eq!(m.stats.count(), 2);
        assert_eq!(m.stats.mean(), 2.0);
        assert_eq!(m.executed_this_config, 2);
    }

    #[test]
    fn schedule_counts_path() {
        let mut s = KernelStore::new();
        assert_eq!(s.schedule(&sig()), 1);
        assert_eq!(s.schedule(&sig()), 2);
        assert_eq!(s.path_count(sig().key()), 2);
    }

    #[test]
    fn adopt_path_replaces() {
        let mut s = KernelStore::new();
        s.schedule(&sig());
        s.adopt_path(vec![(42u64, 7u64, 1.5)].into_iter());
        assert_eq!(s.path_count(42), 7);
        assert_eq!(s.path_profile()[0], (42, 7, 1.5));
        assert_eq!(s.path_count(sig().key()), 0);
    }

    #[test]
    fn start_config_keep_models() {
        let mut s = KernelStore::new();
        s.record(&sig(), 1.0);
        s.schedule(&sig());
        s.start_config(true);
        assert_eq!(s.path_count(sig().key()), 0);
        let m = s.model(sig().key()).unwrap();
        assert_eq!(m.stats.count(), 1, "samples persist");
        assert_eq!(m.scheduled_this_config, 0);
    }

    #[test]
    fn start_config_reset_models() {
        let mut s = KernelStore::new();
        s.record(&sig(), 1.0);
        s.start_config(false);
        assert!(s.model(sig().key()).is_none());
    }

    #[test]
    fn apriori_capture() {
        let mut s = KernelStore::new();
        s.schedule(&sig());
        s.schedule(&sig());
        s.capture_apriori();
        s.start_config(true);
        assert_eq!(s.apriori_counts.get(&sig().key()), Some(&2));
    }
}
