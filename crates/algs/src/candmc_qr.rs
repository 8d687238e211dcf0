//! CANDMC-style bulk-synchronous 2D QR factorization (§V-B).
//!
//! The `m×n` matrix is block-cyclically distributed with block size `b` over
//! a `p_r×p_c` grid. Panels are factored with **TSQR** \[23\]: local `geqrf`
//! on each grid-column rank's stacked rows followed by a binary reduction
//! tree of `tpqrt` combines over the grid column (`send`/`recv`, the blocking
//! routines CANDMC uses). The explicit panel orthogonal factor is then
//! reconstructed as `Q = P·R⁻¹` (`trtri` + triangular product) — a simpler
//! stand-in for CANDMC's LU-based Householder reconstruction \[1\] that invokes
//! the same BLAS/LAPACK kernel families (`geqrf`, `tpqrt`, `trtri`, `gemm`;
//! see DESIGN.md) — and the trailing matrix update
//! `A ← A − Q(QᵀA)` runs as two `gemm`s with a broadcast along grid rows and
//! a summation allreduce along grid columns.
//!
//! Tunables (§V-C): block size `b` and the grid shape `p_r×p_c`.

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, gemm, geqrf, tpqrt, trtri, Matrix, Trans};
use critter_sim::ReduceOp;

use crate::workload::{input, Workload, WorkloadOutput};

/// One CANDMC QR configuration.
#[derive(Debug, Clone)]
pub struct CandmcQr {
    /// Row count (divisible by `b·p_r`).
    pub m: usize,
    /// Column count (divisible by `b·p_c`).
    pub n: usize,
    /// Block size `b`.
    pub block: usize,
    /// Grid rows (power of two, for the TSQR tree).
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl CandmcQr {
    /// Deterministic well-conditioned dense element function.
    pub fn element() -> impl Fn(usize, usize) -> f64 {
        |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
            let h = (h ^ (h >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5 + if i == j { 2.0 } else { 0.0 }
        }
    }

    fn validate(&self) {
        assert!(self.pr.is_power_of_two(), "TSQR tree needs a power-of-two p_r");
        assert_eq!(self.m % (self.block * self.pr), 0, "m must divide by b·p_r");
        assert_eq!(self.n % (self.block * self.pc), 0, "n must divide by b·p_c");
        assert!(self.n <= self.m, "tall matrices only");
    }

    /// Global row-block indices owned by grid row `pi`.
    fn row_blocks(&self, pi: usize) -> Vec<usize> {
        (0..self.m / self.block).filter(|r| r % self.pr == pi).collect()
    }

    /// Global panel indices owned by grid column `pj`.
    fn col_panels(&self, pj: usize) -> Vec<usize> {
        (0..self.n / self.block).filter(|c| c % self.pc == pj).collect()
    }
}

/// Tags for TSQR tree hops and R returns.
fn tree_tag(panel: usize, level: usize) -> u64 {
    (panel as u64) * 64 + level as u64 + 1
}

impl Workload for CandmcQr {
    fn name(&self) -> String {
        format!("candmc-qr[{}x{},b={},grid={}x{}]", self.m, self.n, self.block, self.pr, self.pc)
    }

    fn ranks(&self) -> usize {
        self.pr * self.pc
    }

    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        Some(crate::bsp::candmc_qr(self.m, self.n, self.pr, self.pc, self.block))
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        self.validate();
        let b = self.block;
        let rank = env.rank();
        let (pi, pj) = (rank / self.pc, rank % self.pc);
        let world = env.world();
        // Grid communicators: column (vary pi, fixed pj) and row (vary pj).
        let col_comm = env.split(&world, pj as i64, rank as i64).expect("col comm");
        let row_comm = env.split(&world, pi as i64, rank as i64).expect("row comm");
        debug_assert_eq!(col_comm.rank(), pi);
        debug_assert_eq!(row_comm.rank(), pj);

        let my_rows = self.row_blocks(pi);
        let my_cols = self.col_panels(pj);
        let el = Self::element();
        // Local matrix: owned row blocks × owned panels, stacked in order.
        let at = |r: usize, c: usize| el(my_rows[r / b] * b + r % b, my_cols[c / b] * b + c % b);
        let mut a = input(env, my_rows.len() * b, my_cols.len() * b, at);

        let npanels = self.n / b;
        // For verification: the R row-blocks this rank ends up holding.
        let mut r_diag: Vec<(usize, Matrix)> = Vec::new();
        let mut r_off: Vec<(usize, usize, Matrix)> = Vec::new(); // (panel, local col, block)

        for p in 0..npanels {
            let panel_col_owner = p % self.pc;
            // Block classical Gram-Schmidt: every panel spans ALL rows (the
            // projection update (I−QQᵀ)A leaves residual mass in every row,
            // unlike Householder elimination — see DESIGN.md substitutions).
            let active: Vec<usize> = (0..my_rows.len()).collect();
            let m_loc = active.len() * b;

            // ---- TSQR panel factorization on the owning grid column ----
            let mut r_mine = Matrix::zeros(b, b);
            if pj == panel_col_owner {
                let lc = my_cols.iter().position(|&c| c == p).expect("panel owner");
                if m_loc > 0 {
                    let mut panel = Matrix::zeros(m_loc, b);
                    for (ar, &lr) in active.iter().enumerate() {
                        for c in 0..b {
                            for r in 0..b {
                                panel[(ar * b + r, c)] = a[(lr * b + r, lc * b + c)];
                            }
                        }
                    }
                    env.kernel(ComputeOp::Geqrf, m_loc, b, 0, flops::geqrf(m_loc, b), || {
                        geqrf(&mut panel);
                    });
                    for c in 0..b {
                        for r in 0..=c.min(m_loc - 1) {
                            r_mine[(r, c)] = panel[(r, c)];
                        }
                    }
                }
                // Binary reduction tree over the column.
                let levels = self.pr.trailing_zeros() as usize;
                for level in 0..levels {
                    let bit = 1 << level;
                    if pi & (bit - 1) != 0 {
                        break; // already retired at an earlier level
                    }
                    if pi & bit != 0 {
                        env.send(&col_comm, pi - bit, tree_tag(p, level), r_mine.data());
                        break;
                    } else if pi + bit < self.pr {
                        let data = env.recv(&col_comm, pi + bit, tree_tag(p, level), b * b);
                        let mut theirs = Matrix::from_column_major(b, b, data);
                        env.kernel(ComputeOp::Tpqrt, b, b, 0, flops::tpqrt(b, b), || {
                            tpqrt(&mut r_mine, &mut theirs);
                        });
                    }
                }
                // Broadcast the final R across the column.
                let mut rdata = r_mine.data().to_vec();
                env.bcast(&col_comm, 0, &mut rdata);
                r_mine = Matrix::from_column_major(b, b, rdata);
                r_diag.push((p, r_mine.clone()));

                // Reconstruct the explicit panel Q = P·R⁻¹.
                let mut rinv = r_mine.clone();
                env.kernel(ComputeOp::Trtri, b, 0, 0, flops::trtri(b), || {
                    if (0..b).any(|d| rinv[(d, d)] == 0.0) {
                        rinv = Matrix::identity(b);
                    } else {
                        // Upper-triangular inverse via the lower routine on Rᵀ.
                        let mut lt = rinv.transposed();
                        trtri(&mut lt);
                        rinv = lt.transposed();
                    }
                });
                if m_loc > 0 {
                    let mut panel = Matrix::zeros(m_loc, b);
                    for (ar, &lr) in active.iter().enumerate() {
                        for c in 0..b {
                            for r in 0..b {
                                panel[(ar * b + r, c)] = a[(lr * b + r, lc * b + c)];
                            }
                        }
                    }
                    let mut q = Matrix::zeros(m_loc, b);
                    env.kernel(ComputeOp::Trmm, m_loc, b, b, flops::trmm(b, m_loc), || {
                        gemm(Trans::No, Trans::No, 1.0, &panel, &rinv, 0.0, &mut q);
                    });
                    // Write Q back into the panel columns (A's panel holds Q).
                    for (ar, &lr) in active.iter().enumerate() {
                        for c in 0..b {
                            for r in 0..b {
                                a[(lr * b + r, lc * b + c)] = q[(ar * b + r, c)];
                            }
                        }
                    }
                }
            }

            // ---- Trailing update: A ← A − Q(QᵀA) ----
            // Broadcast the local Q rows across the grid row.
            let mut qdata = vec![0.0; m_loc * b];
            if pj == panel_col_owner && m_loc > 0 {
                let lc = my_cols.iter().position(|&c| c == p).unwrap();
                for (ar, &lr) in active.iter().enumerate() {
                    for c in 0..b {
                        for r in 0..b {
                            qdata[c * m_loc + ar * b + r] = a[(lr * b + r, lc * b + c)];
                        }
                    }
                }
            }
            env.bcast(&row_comm, panel_col_owner, &mut qdata);
            let q_local = Matrix::from_column_major(m_loc, b, qdata);

            // Local trailing columns: owned panels strictly after p.
            let trail: Vec<usize> = (0..my_cols.len()).filter(|&lc| my_cols[lc] > p).collect();
            let n_trail = trail.len() * b;
            if n_trail == 0 {
                // Still participate in the column allreduce for W.
                let _ = env.allreduce(&col_comm, ReduceOp::Sum, &[0.0; 1]);
                continue;
            }
            // Stack the active rows of the trailing columns.
            let mut at = Matrix::zeros(m_loc, n_trail);
            for (tc, &lc) in trail.iter().enumerate() {
                for (ar, &lr) in active.iter().enumerate() {
                    for c in 0..b {
                        for r in 0..b {
                            at[(ar * b + r, tc * b + c)] = a[(lr * b + r, lc * b + c)];
                        }
                    }
                }
            }
            // W_partial = Qᵀ·A_trail, summed over the grid column.
            let mut wpart = Matrix::zeros(b, n_trail);
            if m_loc > 0 {
                env.kernel(
                    ComputeOp::Gemm,
                    b,
                    n_trail,
                    m_loc,
                    flops::gemm(b, n_trail, m_loc),
                    || {
                        gemm(Trans::Yes, Trans::No, 1.0, &q_local, &at, 0.0, &mut wpart);
                    },
                );
            }
            let wsum = env.allreduce(&col_comm, ReduceOp::Sum, wpart.data());
            let w = Matrix::from_column_major(b, n_trail, wsum);
            // A_trail ← A_trail − Q·W.
            if m_loc > 0 {
                env.kernel(
                    ComputeOp::Gemm,
                    m_loc,
                    n_trail,
                    b,
                    flops::gemm(m_loc, n_trail, b),
                    || {
                        gemm(Trans::No, Trans::No, -1.0, &q_local, &w, 1.0, &mut at);
                    },
                );
                for (tc, &lc) in trail.iter().enumerate() {
                    for (ar, &lr) in active.iter().enumerate() {
                        for c in 0..b {
                            for r in 0..b {
                                a[(lr * b + r, lc * b + c)] = at[(ar * b + r, tc * b + c)];
                            }
                        }
                    }
                }
            }
            // The top b rows of W are R's off-diagonal blocks for this panel
            // (held by whichever rank owns row block p — but W is replicated
            // down the column, so attribute them to grid row p % pr).
            if pi == p % self.pr {
                for (tc, &lc) in trail.iter().enumerate() {
                    r_off.push((p, lc, w.sub(0, tc * b, b, b)));
                }
            }
        }

        if !env.verifies() {
            return WorkloadOutput::default();
        }
        // Local reference QR of the full matrix (test sizes only); R is
        // unique up to row signs, so compare absolute values.
        let mut reference = Matrix::zeros(self.m, self.n);
        for j in 0..self.n {
            for i in 0..self.m {
                reference[(i, j)] = el(i, j);
            }
        }
        geqrf(&mut reference);
        let mut max_err: f64 = 0.0;
        for (p, rm) in &r_diag {
            for c in 0..b {
                for r in 0..=c {
                    let refv = reference[(p * b + r, p * b + c)].abs();
                    max_err = max_err.max((rm[(r, c)].abs() - refv).abs());
                }
            }
        }
        for (p, lc, blockm) in &r_off {
            let gc = my_cols[*lc];
            for c in 0..b {
                for r in 0..b {
                    let refv = reference[(p * b + r, gc * b + c)].abs();
                    max_err = max_err.max((blockm[(r, c)].abs() - refv).abs());
                }
            }
        }
        let world = env.world();
        let global = env.allreduce(&world, ReduceOp::Max, &[max_err]);
        WorkloadOutput {
            residual: Some(global[0] / reference.norm_fro().max(1.0)),
            residual2: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::{CritterConfig, ExecutionPolicy, KernelStore};
    use critter_machine::MachineModel;
    use critter_sim::{run_simulation, SimConfig};

    fn run_qr(m: usize, n: usize, b: usize, pr: usize, pc: usize) -> Vec<WorkloadOutput> {
        let w = CandmcQr { m, n, block: b, pr, pc };
        let p = w.ranks();
        let machine = MachineModel::test_exact(p).shared();
        run_simulation(SimConfig::new(p), machine, move |ctx| {
            let mut env =
                CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new()).verifying();
            let out = w.run(&mut env);
            let _ = env.finish();
            out
        })
        .outputs
    }

    #[test]
    fn factors_square_grid() {
        for out in run_qr(64, 16, 4, 2, 2) {
            assert!(out.residual.unwrap() < 1e-9, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn factors_tall_grid() {
        for out in run_qr(64, 16, 4, 4, 1) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn factors_wide_grid_blocks() {
        for out in run_qr(128, 32, 8, 2, 2) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn single_column_grid() {
        for out in run_qr(64, 16, 8, 2, 1) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn grid_shape_changes_critical_path_costs() {
        let run_rep = |pr: usize, pc: usize| {
            let w = CandmcQr { m: 128, n: 32, block: 4, pr, pc };
            let p = w.ranks();
            let machine = MachineModel::test_exact(p).shared();
            run_simulation(SimConfig::new(p), machine, move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                w.run(&mut env);
                let (rep, _) = env.finish();
                rep
            })
            .outputs
            .remove(0)
        };
        let tall = run_rep(4, 1);
        let square = run_rep(2, 2);
        assert_ne!(tall.path.comm_words, square.path.comm_words);
        assert!(tall.path.syncs > 0.0 && square.path.syncs > 0.0);
    }

    #[test]
    fn selective_execution_completes() {
        let w = CandmcQr { m: 64, n: 16, block: 4, pr: 2, pc: 2 };
        let machine = MachineModel::test_noisy(4, 3).shared();
        let report = run_simulation(SimConfig::new(4), machine, move |ctx| {
            let mut env = CritterEnv::new(
                ctx,
                CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1.0),
                KernelStore::new(),
            );
            w.run(&mut env);
            let (rep, _) = env.finish();
            rep
        });
        let skipped: u64 = report.outputs.iter().map(|r| r.kernels_skipped).sum();
        assert!(skipped > 0);
    }
}
