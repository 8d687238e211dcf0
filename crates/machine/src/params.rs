//! Core machine parameters (α, β, γ and node shape).
//!
//! The defaults are calibrated to the paper's testbed: Stampede2 KNL nodes
//! (68 cores, run with 64 MPI ranks per node, ~3 Tflop/s double-precision per
//! node) connected by an Intel Omni-Path fat-tree with 12.5 GB/s injection
//! bandwidth per node. Absolute values only need to be plausible — the
//! reproduction targets the *shape* of the paper's results — but keeping them
//! near the real hardware keeps the communication/computation trade-offs that
//! drive configuration selection realistic.

/// Fundamental machine cost parameters, in seconds and 8-byte words.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineParams {
    /// Point-to-point message latency (seconds per message), the BSP α.
    pub alpha: f64,
    /// Inverse bandwidth (seconds per 8-byte word), the BSP β.
    ///
    /// Derived from per-node injection bandwidth divided across the ranks of a
    /// node, since the paper runs 64 ranks per node sharing one OPA port.
    pub beta: f64,
    /// Peak double-precision rate of one rank (flops/second). The BSP γ is
    /// `1 / (peak_flops * efficiency)` and efficiency is kernel dependent, so
    /// γ lives in [`crate::ComputeCostModel`].
    pub peak_flops: f64,
    /// MPI ranks per node (used by the noise model for node-level contention).
    pub ranks_per_node: usize,
    /// Fixed software overhead added to every communication call (seconds):
    /// envelope matching, progress engine. Small relative to α.
    pub per_call_overhead: f64,
}

impl MachineParams {
    /// Parameters modeled on Stampede2's KNL partition as used in the paper:
    /// 64 ranks/node, ~46 Gflop/s peak per rank (3 Tflop/s node / 64),
    /// 12.5 GB/s injection shared per node, ~2 µs latency (KNL cores drive
    /// MPI slowly).
    pub fn stampede2_knl() -> Self {
        let node_bw_bytes = 12.5e9;
        let ranks_per_node = 64;
        MachineParams {
            alpha: 2.0e-6,
            // Per-rank share of node injection bandwidth, per 8-byte word.
            beta: 8.0 / (node_bw_bytes / ranks_per_node as f64),
            peak_flops: 3.0e12 / ranks_per_node as f64,
            ranks_per_node,
            per_call_overhead: 2.5e-7,
        }
    }

    /// A small, fast "laptop-like" machine useful in unit tests: lower latency,
    /// higher per-rank bandwidth, modest flops, 8 ranks per node.
    pub fn test_machine() -> Self {
        MachineParams {
            alpha: 1.0e-6,
            beta: 1.0e-9,
            peak_flops: 1.0e10,
            ranks_per_node: 8,
            per_call_overhead: 1.0e-7,
        }
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::stampede2_knl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_defaults_are_sane() {
        let p = MachineParams::stampede2_knl();
        assert!(p.alpha > 0.0 && p.alpha < 1e-4);
        // 12.5 GB/s / 64 ranks ≈ 195 MB/s/rank → beta ≈ 41 ns/word.
        assert!((p.beta - 4.096e-8).abs() / p.beta < 0.01);
        assert!((p.peak_flops - 46.875e9).abs() / p.peak_flops < 0.01);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let p = MachineParams::stampede2_knl();
        assert!(p.alpha > p.beta * 8.0, "one-word message should be latency bound");
    }
}
