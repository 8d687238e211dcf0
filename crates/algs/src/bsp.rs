//! Analytic bulk-synchronous-parallel (BSP) cost models for the four
//! factorization schedules this crate implements (§V-A/B). A schedule's cost
//! is `α·S + β·W + γ·F`: `S` supersteps (latency/synchronization), `W` words
//! moved along the critical path (bandwidth), `F` flops along the critical
//! path (computation).
//!
//! The models are printed next to the simulator's *measured* critical-path
//! counters — by `fig3`'s trade-off panels and the `qr_critical_path`
//! example — so a reader can compare scaling and crossovers; no test asserts
//! that agreement.

use critter_machine::MachineParams;

/// BSP cost triple of one schedule configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspCost {
    /// Synchronization cost: number of supersteps `S`.
    pub supersteps: f64,
    /// Bandwidth cost: words moved along the critical path `W`.
    pub words: f64,
    /// Computation cost: flops along the critical path `F`.
    pub flops: f64,
}

impl BspCost {
    /// Evaluate `α·S + β·W + γ·F` for a machine (γ from peak at the given
    /// efficiency).
    pub fn seconds(&self, params: &MachineParams, efficiency: f64) -> f64 {
        params.alpha * self.supersteps
            + params.beta * self.words
            + self.flops / (params.peak_flops * efficiency)
    }
}

/// Capital's recursive 3D-grid Cholesky (§V-A):
/// `Θ(α·n/b + β·(n²/p^{2/3} + n·b) + γ·(n³/p + n·b²))`.
pub fn capital_cholesky(n: usize, p: usize, b: usize) -> BspCost {
    let (nf, pf, bf) = (n as f64, p as f64, b as f64);
    BspCost {
        supersteps: nf / bf,
        words: nf * nf / pf.powf(2.0 / 3.0) + nf * bf,
        flops: nf.powi(3) / pf + nf * bf * bf,
    }
}

/// CANDMC's pipelined 2D QR (§V-B):
/// `Θ(α·n/b + β·(mn/p_r + n²/p_c + nb) + γ·(mn²/p + nb² + mnb/p_r + n²b/p_c))`.
pub fn candmc_qr(m: usize, n: usize, pr: usize, pc: usize, b: usize) -> BspCost {
    let (mf, nf, prf, pcf, bf) = (m as f64, n as f64, pr as f64, pc as f64, b as f64);
    let p = prf * pcf;
    BspCost {
        supersteps: nf / bf,
        words: mf * nf / prf + nf * nf / pcf + nf * bf,
        flops: mf * nf * nf / p + nf * bf * bf + mf * nf * bf / prf + nf * nf * bf / pcf,
    }
}

/// SLATE's task-based tile Cholesky: estimate for an `n×n` matrix in `t×t`
/// tiles on a `p_r×p_c` grid with lookahead depth `la`.
///
/// The panel chain (`potrf` → column `trsm` → `syrk`) is the critical path;
/// lookahead hides one panel's update behind the previous trailing update.
pub fn slate_cholesky(n: usize, pr: usize, pc: usize, t: usize, la: usize) -> BspCost {
    let nt = (n as f64 / t as f64).ceil();
    let tf = t as f64;
    let nf = n as f64;
    // Per panel step: potrf (t³/3) + one trsm (t³) + one syrk (t³) on the
    // chain; lookahead overlaps the chain across steps.
    let chain = nt * (tf.powi(3) / 3.0 + 2.0 * tf.powi(3)) / (1.0 + la as f64 * 0.5);
    // Per-processor trailing work.
    let volume = nf.powi(3) / (3.0 * (pr * pc) as f64);
    BspCost {
        // Each step: panel bcast down (log p_r hops as p2p chains) + row/col
        // distribution; task scheduling makes supersteps ∝ tiles on the path.
        supersteps: nt * (pr as f64).log2().max(1.0) * 2.0,
        words: nt * tf * tf * ((pr + pc) as f64) / 2.0 + nf * tf,
        flops: chain + volume,
    }
}

/// SLATE's tile QR: estimate for `m×n` in `nb`-wide panels with inner
/// blocking `w` on a `p_r×p_c` grid.
pub fn slate_qr(m: usize, n: usize, pr: usize, pc: usize, nb: usize, w: usize) -> BspCost {
    let (mf, nf, nbf) = (m as f64, n as f64, nb as f64);
    let kt = (nf / nbf).ceil();
    let mt = (mf / nbf).ceil();
    // Panel chain: geqrt + a flat-tree tpqrt chain down the column of tiles.
    let chain_len = kt * (mt / pr as f64).max(1.0);
    let panel_flops = chain_len * 2.0 * nbf.powi(3);
    // Inner blocking trades fewer larger kernels (large w) for more smaller
    // ones; model the overhead as a 1/w startup term.
    let w_overhead = 1.0 + nbf / (w as f64 * 8.0);
    BspCost {
        supersteps: chain_len * 2.0 * (pc as f64).max(1.0),
        words: kt * nbf * nbf * (mt / pr as f64 + kt / pc as f64),
        flops: (2.0 * mf * nf * nf / (pr * pc) as f64 + panel_flops) * w_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capital_block_size_tradeoff() {
        // Latency falls and bandwidth/compute rise with b — the §V-A trade-off.
        let small = capital_cholesky(512, 64, 16);
        let large = capital_cholesky(512, 64, 256);
        assert!(large.supersteps < small.supersteps);
        assert!(large.words > small.words);
        assert!(large.flops > small.flops);
    }

    #[test]
    fn capital_crossover_exists() {
        // With α dominant, large blocks win; with γ dominant, small blocks win.
        let latency_bound = MachineParams { alpha: 1e-3, ..MachineParams::test_machine() };
        let compute_bound =
            MachineParams { alpha: 1e-9, peak_flops: 1e8, ..MachineParams::test_machine() };
        let t_small = |p: &MachineParams| capital_cholesky(512, 64, 16).seconds(p, 0.5);
        let t_large = |p: &MachineParams| capital_cholesky(512, 64, 256).seconds(p, 0.5);
        assert!(t_large(&latency_bound) < t_small(&latency_bound));
        assert!(t_small(&compute_bound) < t_large(&compute_bound));
    }

    #[test]
    fn candmc_grid_tradeoff() {
        // Tall grids (large p_r) reduce the m-term, raise the n²-term.
        let tall = candmc_qr(2048, 256, 64, 1, 8);
        let square = candmc_qr(2048, 256, 16, 4, 8);
        assert!(tall.words != square.words);
        assert!((tall.flops - square.flops).abs() > 0.0);
        // Same synchronization (b fixed).
        assert_eq!(tall.supersteps, square.supersteps);
    }

    #[test]
    fn candmc_block_size_latency() {
        let b4 = candmc_qr(2048, 256, 16, 4, 4);
        let b64 = candmc_qr(2048, 256, 16, 4, 64);
        assert!(b64.supersteps < b4.supersteps);
        assert!(b64.flops > b4.flops);
    }

    #[test]
    fn slate_cholesky_tile_tradeoff() {
        let small = slate_cholesky(768, 4, 4, 32, 0);
        let large = slate_cholesky(768, 4, 4, 176, 0);
        assert!(large.supersteps < small.supersteps);
        assert!(large.flops > small.flops, "bigger tiles lengthen the panel chain");
    }

    #[test]
    fn slate_cholesky_lookahead_shortens_chain() {
        let la0 = slate_cholesky(768, 4, 4, 64, 0);
        let la1 = slate_cholesky(768, 4, 4, 64, 1);
        assert!(la1.flops < la0.flops);
        assert_eq!(la0.supersteps, la1.supersteps);
    }

    #[test]
    fn slate_qr_inner_blocking() {
        let w_small = slate_qr(2048, 256, 16, 4, 64, 4);
        let w_large = slate_qr(2048, 256, 16, 4, 64, 16);
        assert!(w_large.flops < w_small.flops, "larger inner blocks reduce overhead");
    }

    #[test]
    fn seconds_combines_terms() {
        let p = MachineParams::test_machine();
        let c = BspCost { supersteps: 10.0, words: 1000.0, flops: 1e6 };
        let t = c.seconds(&p, 0.5);
        let expect = p.alpha * 10.0 + p.beta * 1000.0 + 1e6 / (p.peak_flops * 0.5);
        assert!((t - expect).abs() < 1e-18);
    }
}
