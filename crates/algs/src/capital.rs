//! Capital's recursive bulk-synchronous Cholesky on a 3D processor grid
//! (§V-A; Hutter's `capital` library, the key subroutine of the
//! communication-avoiding CholeskyQR2 of \[14\]).
//!
//! The algorithm applies Tiskin's recursive block 2×2 splitting:
//!
//! ```text
//! chol(A) :  L11 = chol(A11)
//!            L21 = A21·L11⁻ᵀ                (triangular product, 3D gemm)
//!            L22 = chol(A22 − L21·L21ᵀ)     (syrk, 3D gemm)
//!            L⁻¹ = [[L11⁻¹, 0], [S21, L22⁻¹]],  S21 = −L22⁻¹·L21·L11⁻¹
//! ```
//!
//! until the sub-problem dimension reaches the tunable **block size** `b`,
//! where one of three **base-case strategies** solves it with sequential
//! LAPACK (`potrf` + `trtri`):
//!
//! 1. gather onto one processor of one grid layer, factor there, scatter
//!    across the layer, broadcast along the grid depth;
//! 2. all-gather within *every* layer and factor redundantly everywhere;
//! 3. all-gather within a *single* layer, factor redundantly across it, and
//!    broadcast along the depth.
//!
//! The trade-off (§V-A BSP cost): latency `α·n/b` falls with larger `b`,
//! bandwidth `β·(n²/p^{2/3} + nb)` and computation `γ·(n³/p + nb²)` rise —
//! which is precisely what makes the block size worth autotuning.

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, potrf, trtri, Matrix};

use crate::grid::{gemm3d, transpose3d, DistMat, Grid3D, KERNEL_LAYOUT};
use crate::workload::{Workload, WorkloadOutput};

/// Tag used by the distributed transposes of the recursion.
const TAG: u64 = 11;

/// One Capital Cholesky configuration.
#[derive(Debug, Clone)]
pub struct CapitalCholesky {
    /// Matrix dimension.
    pub n: usize,
    /// Base-case block size `b`.
    pub block: usize,
    /// Base-case strategy (1, 2, or 3).
    pub strategy: u8,
    /// Rank count (must be a perfect cube).
    pub ranks: usize,
}

impl CapitalCholesky {
    /// The diagonally-dominant SPD test matrix used by all runs
    /// (`A_ij = 1/(1+|i−j|) + 2n·δ_ij`): generated in place on every rank, so
    /// no input distribution step is needed beyond the charged layout kernel.
    pub fn element(n: usize) -> impl Fn(usize, usize) -> f64 {
        move |i, j| {
            let base = 1.0 / (1.0 + (i as f64 - j as f64).abs());
            if i == j {
                base + 2.0 * n as f64
            } else {
                base
            }
        }
    }

    /// Factor `a` recursively; returns `(L, L⁻¹)` distributed.
    fn chol3d(&self, env: &mut CritterEnv, grid: &Grid3D, a: &DistMat) -> (DistMat, DistMat) {
        let n = a.rows;
        let c = grid.c;
        if n <= self.block.max(c) || !(n / 2).is_multiple_of(c) {
            return self.base_case(env, grid, a);
        }
        let n1 = n / 2;
        let n2 = n - n1;
        let a11 = a.sub(grid, 0, 0, n1, n1);
        let a21 = a.sub(grid, n1, 0, n2, n1);
        let a22 = a.sub(grid, n1, n1, n2, n2);

        let (l11, l11inv) = self.chol3d(env, grid, &a11);

        // L21 = A21 · L11⁻ᵀ (distributed triangular product).
        let l11inv_t = transpose3d(env, grid, &l11inv, TAG);
        let mut l21 = DistMat::zeros(grid, n2, n1);
        gemm3d(env, grid, ComputeOp::Trmm, 1.0, &a21, &l11inv_t, 0.0, &mut l21);

        // A22 ← A22 − L21·L21ᵀ (symmetric rank-k update).
        let l21t = transpose3d(env, grid, &l21, TAG);
        let mut a22u = a22;
        gemm3d(env, grid, ComputeOp::Syrk, -1.0, &l21, &l21t, 1.0, &mut a22u);

        let (l22, l22inv) = self.chol3d(env, grid, &a22u);

        // S21 = −L22⁻¹ · L21 · L11⁻¹ (two triangular products).
        let mut t1 = DistMat::zeros(grid, n2, n1);
        gemm3d(env, grid, ComputeOp::Trmm, 1.0, &l22inv, &l21, 0.0, &mut t1);
        let mut s21 = DistMat::zeros(grid, n2, n1);
        gemm3d(env, grid, ComputeOp::Trmm, -1.0, &t1, &l11inv, 0.0, &mut s21);

        let mut l = DistMat::zeros(grid, n, n);
        l.set_sub(grid, 0, 0, &l11);
        l.set_sub(grid, n1, 0, &l21);
        l.set_sub(grid, n1, n1, &l22);
        let mut linv = DistMat::zeros(grid, n, n);
        linv.set_sub(grid, 0, 0, &l11inv);
        linv.set_sub(grid, n1, 0, &s21);
        linv.set_sub(grid, n1, n1, &l22inv);
        (l, linv)
    }

    /// Factor a base-case block with `potrf` + `trtri` under the configured
    /// distribution strategy.
    fn base_case(&self, env: &mut CritterEnv, grid: &Grid3D, a: &DistMat) -> (DistMat, DistMat) {
        let n = a.rows;
        let c = grid.c;
        let (_, _, k) = grid.coords;
        let piece = (n / c) * (n / c);

        // Run potrf+trtri on a global copy `g`, tolerating garbage inputs
        // under selective execution (the paper resets inputs before LAPACK
        // calls for the same reason).
        let factor = |env: &mut CritterEnv, g: &Matrix| -> (Matrix, Matrix) {
            let mut l = g.clone();
            env.kernel(ComputeOp::Potrf, n, 0, 0, flops::potrf(n), || {
                if potrf(&mut l).is_err() {
                    l = Matrix::identity(n);
                }
            });
            let mut linv = l.clone();
            env.kernel(ComputeOp::Trtri, n, 0, 0, flops::trtri(n), || {
                if (0..n).any(|d| linv[(d, d)] == 0.0) {
                    linv = Matrix::identity(n);
                } else {
                    trtri(&mut linv);
                }
            });
            (l, linv)
        };

        match self.strategy {
            2 => {
                // All-gather within every layer; factor redundantly everywhere.
                let g = a.to_global(env, grid);
                let (l, linv) = factor(env, &g);
                env.custom_kernel(KERNEL_LAYOUT, piece, piece as f64, || {});
                (DistMat::from_global(grid, &l), DistMat::from_global(grid, &linv))
            }
            3 => {
                // All-gather and factor within layer 0 only, then broadcast
                // the cyclic pieces along the grid depth.
                let (mut lp, mut lip) = if k == 0 {
                    let g = a.to_global(env, grid);
                    let (l, linv) = factor(env, &g);
                    env.custom_kernel(KERNEL_LAYOUT, piece, piece as f64, || {});
                    (
                        DistMat::from_global(grid, &l).local.into_data(),
                        DistMat::from_global(grid, &linv).local.into_data(),
                    )
                } else {
                    (vec![0.0; piece], vec![0.0; piece])
                };
                env.bcast(&grid.comm_k, 0, &mut lp);
                env.bcast(&grid.comm_k, 0, &mut lip);
                (
                    DistMat {
                        rows: n,
                        cols: n,
                        local: Matrix::from_column_major(n / c, n / c, lp),
                    },
                    DistMat {
                        rows: n,
                        cols: n,
                        local: Matrix::from_column_major(n / c, n / c, lip),
                    },
                )
            }
            1 => {
                // Gather onto layer 0's root, factor there, scatter across the
                // layer, broadcast along the depth.
                let (mut lp, mut lip);
                if k == 0 {
                    let gathered = env.gather(&grid.layer, 0, a.local.data());
                    let (lpieces, lipieces) = if let Some(chunks) = gathered {
                        // Root: assemble the global block from cyclic pieces.
                        let mut g = Matrix::zeros(n, n);
                        for (member, chunk) in chunks.chunks(piece).enumerate() {
                            let (mi, mj) = (member % c, member / c);
                            for lj in 0..n / c {
                                for li in 0..n / c {
                                    g[(mi + c * li, mj + c * lj)] = chunk[lj * (n / c) + li];
                                }
                            }
                        }
                        env.custom_kernel(KERNEL_LAYOUT, n * n, (n * n) as f64, || {});
                        let (l, linv) = factor(env, &g);
                        // Re-slice into per-member cyclic pieces, layer order.
                        let slice = |m: &Matrix| {
                            let mut out = Vec::with_capacity(n * n);
                            for member in 0..c * c {
                                let (mi, mj) = (member % c, member / c);
                                for lj in 0..n / c {
                                    for li in 0..n / c {
                                        out.push(m[(mi + c * li, mj + c * lj)]);
                                    }
                                }
                            }
                            out
                        };
                        (slice(&l), slice(&linv))
                    } else {
                        (Vec::new(), Vec::new())
                    };
                    lp = env.scatter(&grid.layer, 0, &lpieces, piece);
                    lip = env.scatter(&grid.layer, 0, &lipieces, piece);
                } else {
                    lp = vec![0.0; piece];
                    lip = vec![0.0; piece];
                }
                env.bcast(&grid.comm_k, 0, &mut lp);
                env.bcast(&grid.comm_k, 0, &mut lip);
                (
                    DistMat {
                        rows: n,
                        cols: n,
                        local: Matrix::from_column_major(n / c, n / c, lp),
                    },
                    DistMat {
                        rows: n,
                        cols: n,
                        local: Matrix::from_column_major(n / c, n / c, lip),
                    },
                )
            }
            s => panic!("unknown base-case strategy {s} (valid: 1, 2, 3)"),
        }
    }
}

impl Workload for CapitalCholesky {
    fn name(&self) -> String {
        format!("capital-chol[n={},b={},strat={}]", self.n, self.block, self.strategy)
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        Some(crate::bsp::capital_cholesky(self.n, self.ranks, self.block))
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        let grid = Grid3D::new(env);
        let n = self.n;
        let words = (n / grid.c) * (n / grid.c);
        // Input generation / layout (the block-to-cyclic kernel Capital
        // intercepts via preprocessor directives).
        env.custom_kernel(KERNEL_LAYOUT, words, words as f64, || {});
        let a = DistMat::from_fn(env, &grid, n, n, Self::element(n));

        let (l, linv) = self.chol3d(env, &grid, &a);

        if !env.verifies() {
            return WorkloadOutput::default();
        }
        // ‖L·Lᵀ − A‖_F / ‖A‖_F, computed distributed.
        let lt = transpose3d(env, &grid, &l, TAG);
        let mut resid = a.clone();
        gemm3d(env, &grid, ComputeOp::Gemm, 1.0, &l, &lt, -1.0, &mut resid);
        let r = resid.norm_fro(env, &grid) / a.norm_fro(env, &grid);
        // ‖L·L⁻¹ − I‖_F / √n.
        let mut ident = DistMat::from_fn(env, &grid, n, n, |i, j| if i == j { -1.0 } else { 0.0 });
        gemm3d(env, &grid, ComputeOp::Gemm, 1.0, &l, &linv, 1.0, &mut ident);
        let r2 = ident.norm_fro(env, &grid) / (n as f64).sqrt();
        WorkloadOutput { residual: Some(r), residual2: Some(r2) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::{CritterConfig, ExecutionPolicy, KernelStore};
    use critter_machine::MachineModel;
    use critter_sim::{run_simulation, SimConfig};

    fn run_capital(n: usize, block: usize, strategy: u8) -> Vec<WorkloadOutput> {
        let p = 8;
        let w = CapitalCholesky { n, block, strategy, ranks: p };
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
    fn strategy2_factors_correctly() {
        for out in run_capital(16, 4, 2) {
            assert!(out.residual.unwrap() < 1e-10, "residual {:?}", out.residual);
            assert!(out.residual2.unwrap() < 1e-10);
        }
    }

    #[test]
    fn strategy3_factors_correctly() {
        for out in run_capital(16, 4, 3) {
            assert!(out.residual.unwrap() < 1e-10);
            assert!(out.residual2.unwrap() < 1e-10);
        }
    }

    #[test]
    fn strategy1_factors_correctly() {
        for out in run_capital(16, 4, 1) {
            assert!(out.residual.unwrap() < 1e-10);
            assert!(out.residual2.unwrap() < 1e-10);
        }
    }

    #[test]
    fn single_level_recursion() {
        // b = n/2: exactly one recursive split.
        for out in run_capital(16, 8, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn no_recursion_pure_base_case() {
        for out in run_capital(8, 8, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn block_size_changes_kernel_mix() {
        // Smaller blocks → more, smaller base-case kernels → more supersteps.
        let p = 8;
        let machine = MachineModel::test_exact(p).shared();
        let run = |block: usize| {
            let w = CapitalCholesky { n: 32, block, strategy: 2, ranks: p };
            run_simulation(SimConfig::new(p), machine.clone(), move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                w.run(&mut env);
                let (rep, _) = env.finish();
                rep
            })
        };
        let small = run(4);
        let large = run(16);
        assert!(
            small.outputs[0].path.syncs > large.outputs[0].path.syncs,
            "smaller blocks must synchronize more"
        );
    }

    #[test]
    fn selective_execution_runs_to_completion() {
        // Numerics are garbage by design, but the run must not deadlock or
        // panic, and must skip kernels.
        let p = 8;
        let w = CapitalCholesky { n: 16, block: 4, strategy: 2, ranks: p };
        let machine = MachineModel::test_noisy(p, 5).shared();
        let report = run_simulation(SimConfig::new(p), machine, move |ctx| {
            let mut env = CritterEnv::new(
                ctx,
                CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1.0),
                KernelStore::new(),
            );
            w.run(&mut env);
            let (rep, _) = env.finish();
            rep
        });
        let total_skipped: u64 = report.outputs.iter().map(|r| r.kernels_skipped).sum();
        assert!(total_skipped > 0, "loose tolerance must produce skips");
    }
}
