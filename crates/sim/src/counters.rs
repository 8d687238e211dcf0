//! Per-rank volumetric counters.
//!
//! These are the *local* (per-processor) measurements — message counts, words
//! moved, flops, and the communication/idle split — that complement the
//! critical-path measurements Critter derives. Figure 3's BSP trade-off panels
//! cross-check against these.

/// Volumetric counters accumulated by one simulated rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankCounters {
    /// Point-to-point sends posted.
    pub sends: u64,
    /// Point-to-point receives completed.
    pub recvs: u64,
    /// Collective operations participated in.
    pub collectives: u64,
    /// Words sent point-to-point.
    pub words_sent: u64,
    /// Words received point-to-point.
    pub words_received: u64,
    /// Compute kernels executed.
    pub compute_calls: u64,
    /// Floating-point operations performed by executed kernels.
    pub flops: f64,
    /// Virtual seconds spent computing.
    pub compute_time: f64,
    /// Virtual seconds spent in communication transfer costs.
    pub comm_time: f64,
    /// Virtual seconds spent idle (waiting for a peer to arrive).
    pub idle_time: f64,
}

impl RankCounters {
    /// Fold another rank's counters in (for job-level summaries). Event
    /// counts saturate at `u64::MAX` rather than wrapping: a merged summary
    /// over many long runs must never silently wrap back to a small value
    /// in release builds.
    pub fn merge(&mut self, o: &RankCounters) {
        self.sends = self.sends.saturating_add(o.sends);
        self.recvs = self.recvs.saturating_add(o.recvs);
        self.collectives = self.collectives.saturating_add(o.collectives);
        self.words_sent = self.words_sent.saturating_add(o.words_sent);
        self.words_received = self.words_received.saturating_add(o.words_received);
        self.compute_calls = self.compute_calls.saturating_add(o.compute_calls);
        self.flops += o.flops;
        self.compute_time += o.compute_time;
        self.comm_time += o.comm_time;
        self.idle_time += o.idle_time;
    }

    /// Reset every counter to zero (reusing a rank context across runs).
    pub fn reset(&mut self) {
        *self = RankCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = RankCounters { sends: 1, flops: 10.0, ..Default::default() };
        let b = RankCounters { sends: 2, recvs: 3, flops: 5.0, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.sends, 3);
        assert_eq!(a.recvs, 3);
        assert_eq!(a.flops, 15.0);
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        // Release builds wrap on `+=`; the merged job-level summary must
        // pin at u64::MAX instead of silently restarting near zero.
        let mut a =
            RankCounters { sends: u64::MAX - 1, words_sent: u64::MAX, ..Default::default() };
        let b = RankCounters { sends: 5, words_sent: 1, recvs: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.sends, u64::MAX);
        assert_eq!(a.words_sent, u64::MAX);
        assert_eq!(a.recvs, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = RankCounters {
            sends: 3,
            recvs: 4,
            collectives: 5,
            words_sent: 6,
            words_received: 7,
            compute_calls: 8,
            flops: 9.0,
            compute_time: 1.0,
            comm_time: 2.0,
            idle_time: 3.0,
        };
        c.reset();
        assert_eq!(c, RankCounters::default());
    }

    #[test]
    fn default_is_zero() {
        let c = RankCounters::default();
        assert_eq!(c.sends, 0);
        assert_eq!(c.flops, 0.0);
    }
}
