//! Analytic cost of communication operations.
//!
//! Costs follow the standard α-β(-γ) models that MPI implementations realize:
//! small operations use binomial/recursive-doubling trees (latency-optimal),
//! large operations use the bandwidth-optimal Rabenseifner/ring family. Like an
//! MPI library's algorithm selector, each collective takes the **minimum** of
//! its candidate algorithms, which yields the familiar piecewise cost surface
//! autotuners must navigate.
//!
//! Word counts are in 8-byte elements. For "vector" collectives (allgather,
//! gather, scatter) `words` is the per-rank contribution, matching the MPI
//! calling convention used by the simulator.

use crate::params::MachineParams;

/// The communication operations the cost model prices.
///
/// The simulator no longer issues `Reduce`, `ReduceScatter` or `Alltoall`,
/// but every variant and its cost row stay: `KernelSig::key` in
/// `critter-core` hashes the variant index, so removing one would renumber
/// the rest and change persisted profile and checkpoint bytes
/// (`signature.rs::keys_are_pinned`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommOp {
    /// Point-to-point send/recv pair (blocking or nonblocking).
    PointToPoint,
    /// One-to-all broadcast of `words` elements.
    Bcast,
    /// All-to-one reduction of `words` elements.
    Reduce,
    /// All-ranks reduction of `words` elements.
    Allreduce,
    /// Each rank contributes `words` elements, everyone gets all `p·words`.
    Allgather,
    /// Each rank contributes `words` elements to the root.
    Gather,
    /// Root distributes `words` elements to each rank.
    Scatter,
    /// Each rank contributes `p·words` elements; every rank receives its
    /// `words`-element slice of the elementwise reduction.
    ReduceScatter,
    /// Each rank sends a distinct `words`-element block to every other rank.
    Alltoall,
    /// Pure synchronization.
    Barrier,
}

impl CommOp {
    /// Short lowercase name matching the MPI routine (for reports/signatures).
    pub fn name(self) -> &'static str {
        match self {
            CommOp::PointToPoint => "p2p",
            CommOp::Bcast => "bcast",
            CommOp::Reduce => "reduce",
            CommOp::Allreduce => "allreduce",
            CommOp::Allgather => "allgather",
            CommOp::Gather => "gather",
            CommOp::Scatter => "scatter",
            CommOp::ReduceScatter => "reduce_scatter",
            CommOp::Alltoall => "alltoall",
            CommOp::Barrier => "barrier",
        }
    }

    /// Inverse of [`name`](Self::name), used when restoring persisted
    /// kernel signatures.
    pub fn from_name(s: &str) -> Option<CommOp> {
        Some(match s {
            "p2p" => CommOp::PointToPoint,
            "bcast" => CommOp::Bcast,
            "reduce" => CommOp::Reduce,
            "allreduce" => CommOp::Allreduce,
            "allgather" => CommOp::Allgather,
            "gather" => CommOp::Gather,
            "scatter" => CommOp::Scatter,
            "reduce_scatter" => CommOp::ReduceScatter,
            "alltoall" => CommOp::Alltoall,
            "barrier" => CommOp::Barrier,
            _ => return None,
        })
    }
}

/// Analytic communication cost model over [`MachineParams`].
#[derive(Debug, Clone)]
pub struct CommCostModel {
    params: MachineParams,
    /// Per-element reduction time (seconds/word) for Reduce/Allreduce local
    /// combining — a γ-term; tiny but keeps huge reductions from being free.
    reduce_flop_time: f64,
}

impl CommCostModel {
    /// Build a cost model over `params`. The reduction γ is derived from the
    /// machine's peak rate at a conservative 10% efficiency (reductions are
    /// memory bound).
    pub fn new(params: MachineParams) -> Self {
        let reduce_flop_time = 1.0 / (params.peak_flops * 0.10);
        CommCostModel { params, reduce_flop_time }
    }

    /// Underlying machine parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// ⌈log₂ p⌉ as f64, 0 for p ≤ 1.
    #[inline]
    fn ceil_log2(p: usize) -> f64 {
        if p <= 1 {
            0.0
        } else {
            (usize::BITS - (p - 1).leading_zeros()) as f64
        }
    }

    /// Time for the given operation over a communicator of `comm_size` ranks
    /// moving `words` elements (per-rank for vector collectives). This is the
    /// *noise-free* base cost; jitter is applied by [`crate::MachineModel`].
    pub fn base_cost(&self, op: CommOp, words: usize, comm_size: usize) -> f64 {
        let a = self.params.alpha;
        let b = self.params.beta;
        let g = self.reduce_flop_time;
        let n = words as f64;
        let p = comm_size.max(1) as f64;
        let lg = Self::ceil_log2(comm_size);
        let o = self.params.per_call_overhead;
        if comm_size <= 1 {
            // Self-communication degenerates to a memcpy-ish cost.
            return o + b * n * 0.25;
        }
        let t = match op {
            CommOp::PointToPoint => a + b * n,
            CommOp::Bcast => {
                // Binomial tree vs scatter+allgather (van de Geijn).
                let tree = lg * (a + b * n);
                let large = 2.0 * lg * a + 2.0 * b * n * (p - 1.0) / p;
                tree.min(large)
            }
            CommOp::Reduce => {
                let tree = lg * (a + b * n + g * n);
                let large = 2.0 * lg * a + 2.0 * b * n * (p - 1.0) / p + g * n * (p - 1.0) / p;
                tree.min(large)
            }
            CommOp::Allreduce => {
                // Recursive doubling vs Rabenseifner (reduce-scatter + allgather).
                let rd = lg * (a + b * n + g * n);
                let rab = 2.0 * lg * a + 2.0 * b * n * (p - 1.0) / p + g * n * (p - 1.0) / p;
                rd.min(rab)
            }
            CommOp::Allgather => {
                // Recursive doubling / ring: every rank receives (p-1)·n words.
                let rd = lg * a + b * n * (p - 1.0);
                let ring = (p - 1.0) * a + b * n * (p - 1.0);
                rd.min(ring)
            }
            CommOp::Gather | CommOp::Scatter => {
                // Binomial tree: root moves (p-1)·n words in lg rounds.
                lg * a + b * n * (p - 1.0)
            }
            CommOp::ReduceScatter => {
                // Recursive halving: lg rounds, each moving half the data.
                lg * a + b * n * (p - 1.0) + g * n * (p - 1.0)
            }
            CommOp::Alltoall => {
                // Pairwise exchange: p−1 rounds of n-word messages.
                (p - 1.0) * a + b * n * (p - 1.0)
            }
            CommOp::Barrier => lg * a,
        };
        o + t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CommCostModel {
        CommCostModel::new(MachineParams::test_machine())
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(CommCostModel::ceil_log2(1), 0.0);
        assert_eq!(CommCostModel::ceil_log2(2), 1.0);
        assert_eq!(CommCostModel::ceil_log2(3), 2.0);
        assert_eq!(CommCostModel::ceil_log2(8), 3.0);
        assert_eq!(CommCostModel::ceil_log2(9), 4.0);
    }

    #[test]
    fn p2p_is_affine_in_words() {
        let m = model();
        let t0 = m.base_cost(CommOp::PointToPoint, 0, 2);
        let t1 = m.base_cost(CommOp::PointToPoint, 1_000_000, 2);
        assert!(t1 > t0);
        let beta = m.params().beta;
        assert!((t1 - t0 - beta * 1e6).abs() / (beta * 1e6) < 1e-9);
    }

    #[test]
    fn bcast_large_message_beats_tree() {
        let m = model();
        // For large n the scatter-allgather bound 2βn(p-1)/p must win over lg·βn.
        let p = 64;
        let n = 10_000_000;
        let cost = m.base_cost(CommOp::Bcast, n, p);
        let tree_only = 6.0 * (m.params().alpha + m.params().beta * n as f64);
        assert!(cost < tree_only * 0.5, "cost {cost} tree {tree_only}");
    }

    #[test]
    fn collective_cost_grows_with_p() {
        let m = model();
        for op in [CommOp::Bcast, CommOp::Allreduce, CommOp::Allgather, CommOp::Barrier] {
            let c4 = m.base_cost(op, 1024, 4);
            let c64 = m.base_cost(op, 1024, 64);
            assert!(c64 > c4, "{op:?} should grow with p");
        }
    }

    #[test]
    fn self_comm_is_cheap() {
        let m = model();
        assert!(m.base_cost(CommOp::Bcast, 1024, 1) < m.base_cost(CommOp::Bcast, 1024, 2));
    }

    #[test]
    fn allreduce_at_least_reduce() {
        let m = model();
        let n = 4096;
        let p = 32;
        assert!(m.base_cost(CommOp::Allreduce, n, p) >= m.base_cost(CommOp::Reduce, n, p) * 0.99);
    }

    #[test]
    fn barrier_is_latency_only() {
        let m = model();
        let c = m.base_cost(CommOp::Barrier, 0, 16);
        assert!(c < 10.0 * m.params().alpha);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CommOp::Allreduce.name(), "allreduce");
        assert_eq!(CommOp::PointToPoint.name(), "p2p");
        assert_eq!(CommOp::ReduceScatter.name(), "reduce_scatter");
        assert_eq!(CommOp::Alltoall.name(), "alltoall");
        for op in [
            CommOp::PointToPoint,
            CommOp::Bcast,
            CommOp::Reduce,
            CommOp::Allreduce,
            CommOp::Allgather,
            CommOp::Gather,
            CommOp::Scatter,
            CommOp::ReduceScatter,
            CommOp::Alltoall,
            CommOp::Barrier,
        ] {
            assert_eq!(CommOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CommOp::from_name("nosuch"), None);
    }

    #[test]
    fn reduce_scatter_cheaper_than_allreduce() {
        // An allreduce is a reduce-scatter plus an allgather, so the
        // reduce-scatter alone must not cost more (per-rank convention:
        // allreduce n = p·reduce-scatter n).
        let m = model();
        let (p, chunk) = (16, 1024);
        let rs = m.base_cost(CommOp::ReduceScatter, chunk, p);
        let ar = m.base_cost(CommOp::Allreduce, chunk * p, p);
        assert!(rs < ar, "reduce_scatter {rs} vs allreduce {ar}");
    }

    #[test]
    fn alltoall_latency_scales_linearly() {
        let m = model();
        let a4 = m.base_cost(CommOp::Alltoall, 0, 4);
        let a32 = m.base_cost(CommOp::Alltoall, 0, 32);
        let alpha = m.params().alpha;
        assert!((a32 - a4 - 28.0 * alpha).abs() < 1e-12, "pairwise rounds are α-bound");
    }
}
