//! Path metrics and per-run reports.

use critter_obs::json::{JsonError, Reader};

/// Cost metrics accumulated along a rank's current sub-critical path and
/// propagated by elementwise maximum at every intercepted communication —
/// the independent-max counterpart of the winner-takes-all execution-time
/// path (different metrics may be maximized by different paths, Fig. 1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathMetrics {
    /// Words communicated along the path (BSP `W`).
    pub comm_words: f64,
    /// Communication operations along the path (BSP synchronization count `S`).
    pub syncs: f64,
    /// Flops along the path (BSP `F`).
    pub flops: f64,
    /// Predicted computation-kernel time along the path (seconds).
    pub comp_time: f64,
    /// Predicted communication-kernel time along the path (seconds).
    pub comm_time: f64,
}

impl PathMetrics {
    pub(crate) const LEN: usize = 5;

    pub(crate) fn to_array(self) -> [f64; Self::LEN] {
        [self.comm_words, self.syncs, self.flops, self.comp_time, self.comm_time]
    }

    pub(crate) fn from_array(a: [f64; Self::LEN]) -> Self {
        PathMetrics { comm_words: a[0], syncs: a[1], flops: a[2], comp_time: a[3], comm_time: a[4] }
    }

    /// JSON object with one key per metric (sorted keys, deterministic
    /// shortest-round-trip float formatting).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "comm_time": self.comm_time,
            "comm_words": self.comm_words,
            "comp_time": self.comp_time,
            "flops": self.flops,
            "syncs": self.syncs,
        })
    }

    /// Restore metrics bit-exactly from [`PathMetrics::to_json`] output.
    pub fn read(r: Reader<'_, '_>) -> Result<PathMetrics, JsonError> {
        Ok(PathMetrics {
            comm_words: r.at("comm_words").f64()?,
            syncs: r.at("syncs").f64()?,
            flops: r.at("flops").f64()?,
            comp_time: r.at("comp_time").f64()?,
            comm_time: r.at("comm_time").f64()?,
        })
    }

    /// Elementwise maximum (the independent-max propagation rule).
    pub fn max(self, o: PathMetrics) -> PathMetrics {
        PathMetrics {
            comm_words: self.comm_words.max(o.comm_words),
            syncs: self.syncs.max(o.syncs),
            flops: self.flops.max(o.flops),
            comp_time: self.comp_time.max(o.comp_time),
            comm_time: self.comm_time.max(o.comm_time),
        }
    }
}

/// What one rank reports at the end of a profiled run.
///
/// `PartialEq` is bit-exact on the float fields — the determinism contract
/// (counter-based noise keyed by operation identity, never thread schedule)
/// promises identical reports across reruns, and the testkit's perturbation
/// fuzzer asserts exactly that.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CritterReport {
    /// Predicted critical-path execution time (`P.exec_time` after the final
    /// propagation): executed kernels contribute measured time, skipped ones
    /// their modeled mean.
    pub predicted_time: f64,
    /// Critical-path cost metrics after the final propagation.
    pub path: PathMetrics,
    /// This rank's locally *executed* kernel time (computation).
    pub local_comp_executed: f64,
    /// This rank's locally executed communication-kernel time.
    pub local_comm_executed: f64,
    /// This rank's predicted local kernel time (executed + skipped means),
    /// computation part.
    pub local_comp_predicted: f64,
    /// Predicted local communication-kernel time.
    pub local_comm_predicted: f64,
    /// Kernels executed on this rank during the run.
    pub kernels_executed: u64,
    /// Kernels skipped on this rank during the run.
    pub kernels_skipped: u64,
    /// Words of internal (profiling) traffic this rank contributed.
    pub internal_words: u64,
    /// Number of distinct kernel signatures seen locally.
    pub distinct_kernels: u64,
    /// The critical-path kernel profile after the final propagation: up to the
    /// ten largest contributors as `(label, path count, path time)` — the
    /// paper's per-kernel critical-path performance profile.
    pub top_kernels: Vec<(String, u64, f64)>,
    /// Structured observability trace and metrics (only when
    /// [`crate::CritterConfig::obs`] is set): the one per-kernel event
    /// channel. It is a debugging/analysis surface, not part of any report;
    /// the autotuner assembles per-run traces into a global timeline instead
    /// (`critter_obs::ObsReport`).
    pub obs: Option<critter_obs::RankTrace>,
    /// Mean over ranks of locally executed kernel time (busy time).
    pub mean_busy: f64,
    /// Maximum over ranks of locally executed kernel time.
    pub max_busy: f64,
}

impl CritterReport {
    /// Load imbalance of executed kernel time: `max_busy / mean_busy`
    /// (1.0 = perfectly balanced; meaningful for full executions).
    pub fn imbalance(&self) -> f64 {
        if self.mean_busy <= 0.0 {
            1.0
        } else {
            self.max_busy / self.mean_busy
        }
    }

    /// Fraction of kernel invocations that were skipped.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.kernels_executed + self.kernels_skipped;
        if total == 0 {
            0.0
        } else {
            self.kernels_skipped as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_obs::json::read_value;

    #[test]
    fn metrics_roundtrip_array() {
        let m =
            PathMetrics { comm_words: 1.0, syncs: 2.0, flops: 3.0, comp_time: 4.0, comm_time: 5.0 };
        assert_eq!(PathMetrics::from_array(m.to_array()), m);
    }

    #[test]
    fn metrics_roundtrip_json_bit_exactly() {
        let m = PathMetrics {
            comm_words: 1024.0,
            syncs: 17.0,
            flops: 3.5e9,
            comp_time: 0.1 + 0.2, // a value with no short decimal form
            comm_time: 1.0 / 3.0,
        };
        let text = serde_json::to_string(&m.to_json()).unwrap();
        let tape = serde_json::Tape::parse(&text).unwrap();
        assert_eq!(PathMetrics::read(Reader::root("path", tape.root())).unwrap(), m);
        let err = read_value("path", &serde_json::json!({ "syncs": 1.0 }), PathMetrics::read);
        assert_eq!(err.unwrap_err().to_string(), "comm_words: missing (expected a number)");
    }

    #[test]
    fn max_is_elementwise() {
        let a = PathMetrics { comm_words: 1.0, syncs: 9.0, ..Default::default() };
        let b = PathMetrics { comm_words: 5.0, syncs: 2.0, ..Default::default() };
        let m = a.max(b);
        assert_eq!(m.comm_words, 5.0);
        assert_eq!(m.syncs, 9.0);
    }

    #[test]
    fn skip_fraction() {
        let r = CritterReport { kernels_executed: 3, kernels_skipped: 1, ..Default::default() };
        assert_eq!(r.skip_fraction(), 0.25);
        assert_eq!(CritterReport::default().skip_fraction(), 0.0);
    }
}
