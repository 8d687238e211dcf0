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
/// The discriminant is the operation's key code: `KernelSig::key` in
/// `critter-core` hashes it, so it orders every persisted profile and
/// checkpoint (`signature.rs::keys_are_pinned`). A code never changes, and
/// the retired ones (2 reduce, 7 reduce-scatter, 8 alltoall, 9 barrier) are
/// never reused: a new operation takes a fresh code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(isize)]
pub enum CommOp {
    /// Point-to-point send/recv pair (blocking or nonblocking).
    PointToPoint = 0,
    /// One-to-all broadcast of `words` elements.
    Bcast = 1,
    /// All-ranks reduction of `words` elements.
    Allreduce = 3,
    /// Each rank contributes `words` elements, everyone gets all `p·words`.
    Allgather = 4,
    /// Each rank contributes `words` elements to the root.
    Gather = 5,
    /// Root distributes `words` elements to each rank.
    Scatter = 6,
}

impl CommOp {
    /// Short lowercase name matching the MPI routine (for reports/signatures).
    pub fn name(self) -> &'static str {
        match self {
            CommOp::PointToPoint => "p2p",
            CommOp::Bcast => "bcast",
            CommOp::Allreduce => "allreduce",
            CommOp::Allgather => "allgather",
            CommOp::Gather => "gather",
            CommOp::Scatter => "scatter",
        }
    }

    /// Inverse of [`name`](Self::name), used when restoring persisted
    /// kernel signatures.
    pub fn from_name(s: &str) -> Option<CommOp> {
        Some(match s {
            "p2p" => CommOp::PointToPoint,
            "bcast" => CommOp::Bcast,
            "allreduce" => CommOp::Allreduce,
            "allgather" => CommOp::Allgather,
            "gather" => CommOp::Gather,
            "scatter" => CommOp::Scatter,
            _ => return None,
        })
    }
}

/// Analytic communication cost model over [`MachineParams`].
#[derive(Debug, Clone)]
pub struct CommCostModel {
    params: MachineParams,
    /// Per-element reduction time (seconds/word) for Allreduce local
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
        for op in [CommOp::Bcast, CommOp::Allreduce, CommOp::Allgather] {
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
    fn names_are_stable() {
        assert_eq!(CommOp::Allreduce.name(), "allreduce");
        assert_eq!(CommOp::PointToPoint.name(), "p2p");
        for op in [
            CommOp::PointToPoint,
            CommOp::Bcast,
            CommOp::Allreduce,
            CommOp::Allgather,
            CommOp::Gather,
            CommOp::Scatter,
        ] {
            assert_eq!(CommOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CommOp::from_name("nosuch"), None);
    }
}
