//! SLATE-style task-based tile Cholesky (§V-A).
//!
//! The matrix is partitioned into `t×t` tiles, block-cyclically distributed
//! over a 2D `p_r×p_c` grid. Each panel step runs `potrf` on the diagonal
//! tile, `trsm` on the tiles below it, and `syrk`/`gemm` updates on the
//! trailing matrix; tiles move between ranks with **nonblocking point-to-point
//! messages** (`isend`/`recv`, the routines the paper lists for SLATE) rather
//! than collectives. **Lookahead pipelining** of tunable depth reorders the
//! trailing update so the next panel's column is updated — and the next panel
//! factored and distributed — before the bulk of the trailing update, letting
//! the panel chain run ahead of the updates exactly as SLATE's task scheduler
//! does.
//!
//! Tunables (the §V-C configuration space): tile size `t` and lookahead depth.

use std::collections::HashMap;
use std::rc::Rc;

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, gemm, potrf, syrk, trsm, Matrix, Side, Trans, Uplo};
use critter_sim::{Communicator, ReduceOp};

use crate::workload::{input, Workload, WorkloadOutput};

/// One SLATE Cholesky configuration.
#[derive(Debug, Clone)]
pub struct SlateCholesky {
    /// Matrix dimension.
    pub n: usize,
    /// Tile size `t` (the last tile may be smaller).
    pub tile: usize,
    /// Lookahead depth (0 = none, 1 = one panel ahead).
    pub lookahead: usize,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl SlateCholesky {
    /// The SPD element function shared with the other Cholesky workload.
    pub fn element(n: usize) -> impl Fn(usize, usize) -> f64 {
        crate::capital::CapitalCholesky::element(n)
    }

    fn nt(&self) -> usize {
        self.n.div_ceil(self.tile)
    }

    fn tdim(&self, i: usize) -> usize {
        self.tile.min(self.n - i * self.tile)
    }

    fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.pr) * self.pc + (j % self.pc)
    }
}

/// Per-run state of one rank.
struct TileRun<'w> {
    w: &'w SlateCholesky,
    rank: usize,
    world: Communicator,
    /// Owned tiles (lower triangle only), factored in place into L.
    tiles: HashMap<(usize, usize), Matrix>,
    /// Step `k`'s panel tiles `L(i,k)`, owned or received, keyed `(i, k)`:
    /// shared, so every update borrows them.
    cache: HashMap<(usize, usize), Rc<Matrix>>,
    /// Deferred nonblocking-send completions (drained at the end; receivers
    /// match them on the fly, so deferring costs nothing and cannot deadlock).
    pending: Vec<critter_core::env::CritterRequest>,
}

impl<'w> TileRun<'w> {
    fn own(&self, i: usize, j: usize) -> bool {
        self.w.owner(i, j) == self.rank
    }

    fn tag(k: usize, i: usize, nt: usize, kind: u64) -> u64 {
        ((k * nt + i) as u64) * 2 + kind
    }

    /// Ranks that need panel tile `L(i,k)` for trailing updates.
    fn panel_receivers(&self, i: usize, k: usize) -> Vec<usize> {
        let w = self.w;
        let nt = w.nt();
        let mut set = std::collections::BTreeSet::new();
        // Left operand of A(i,j) for k < j ≤ i.
        for j in (k + 1)..=i {
            set.insert(w.owner(i, j));
        }
        // Right (transposed) operand of A(i2, i) for i ≤ i2 < nt.
        for i2 in i..nt {
            set.insert(w.owner(i2, i));
        }
        set.remove(&w.owner(i, k));
        set.into_iter().collect()
    }

    /// Send owned tile `ij` to each rank of `to`, in order, under `tag`: one
    /// copy per destination, the last one moved in.
    fn send_tile(&mut self, env: &mut CritterEnv, ij: (usize, usize), to: &[usize], tag: u64) {
        let Some((&last, rest)) = to.split_last() else { return };
        let data = self.tiles[&ij].data().to_vec();
        for &d in rest {
            self.pending.push(env.isend(&self.world, d, tag, data.clone()));
        }
        self.pending.push(env.isend(&self.world, last, tag, data));
    }

    /// Factor panel `k`: potrf the diagonal tile, trsm the column below it,
    /// and distribute the resulting panel tiles to their consumers.
    fn factor_panel(&mut self, env: &mut CritterEnv, k: usize) {
        let w = self.w;
        let nt = w.nt();
        let tk = w.tdim(k);
        // Diagonal factorization.
        if self.own(k, k) {
            let tile = self.tiles.get_mut(&(k, k)).expect("diagonal tile");
            env.kernel(ComputeOp::Potrf, tk, 0, 0, flops::potrf(tk), || {
                if potrf(tile).is_err() {
                    *tile = Matrix::identity(tk);
                }
            });
            // Send L(k,k) to the trsm holders below, in rank order.
            let mut dests: Vec<usize> =
                ((k + 1)..nt).map(|i| w.owner(i, k)).filter(|&d| d != self.rank).collect();
            dests.sort_unstable();
            dests.dedup();
            self.send_tile(env, (k, k), &dests, Self::tag(k, k, nt, 1));
        }
        // Column trsm. The owner of L(k,k) lends it out of its tiles for the
        // step's solves.
        let my_panel: Vec<usize> = ((k + 1)..nt).filter(|&i| self.own(i, k)).collect();
        if !my_panel.is_empty() {
            let kk = self.tiles.remove(&(k, k)).unwrap_or_else(|| {
                let data = env.recv(&self.world, w.owner(k, k), Self::tag(k, k, nt, 1), tk * tk);
                Matrix::from_column_major(tk, tk, data)
            });
            for &i in &my_panel {
                let ti = w.tdim(i);
                let tile = self.tiles.get_mut(&(i, k)).expect("panel tile");
                env.kernel(ComputeOp::Trsm, tk, ti, 0, flops::trsm(tk, ti), || {
                    // L(i,k) ← A(i,k) · L(k,k)⁻ᵀ.
                    if (0..tk).any(|d| kk[(d, d)] == 0.0) {
                        return;
                    }
                    trsm(Side::Right, Uplo::Lower, Trans::Yes, false, 1.0, &kk, tile);
                });
                // Distribute to consumers.
                let dests = self.panel_receivers(i, k);
                self.send_tile(env, (i, k), &dests, Self::tag(k, i, nt, 0));
            }
            if self.own(k, k) {
                self.tiles.insert((k, k), kk);
            }
        }
    }

    /// Get panel tile `L(i,k)`. Its first use in step `k` copies it (owned,
    /// final since the step's `trsm`) or receives it from its owner into the
    /// step cache; every later use shares that copy.
    fn panel_tile(&mut self, env: &mut CritterEnv, i: usize, k: usize) -> Rc<Matrix> {
        if let Some(t) = self.cache.get(&(i, k)) {
            return Rc::clone(t);
        }
        let w = self.w;
        let tile = if self.own(i, k) {
            self.tiles[&(i, k)].clone()
        } else {
            let (ti, tk) = (w.tdim(i), w.tdim(k));
            let data = env.recv(&self.world, w.owner(i, k), Self::tag(k, i, w.nt(), 0), ti * tk);
            Matrix::from_column_major(ti, tk, data)
        };
        let tile = Rc::new(tile);
        self.cache.insert((i, k), Rc::clone(&tile));
        tile
    }

    /// Apply the step-`k` update to owned trailing tiles in columns `cols`.
    fn update(&mut self, env: &mut CritterEnv, k: usize, cols: impl Iterator<Item = usize>) {
        let w = self.w;
        let nt = w.nt();
        for j in cols {
            for i in j..nt {
                if !self.own(i, j) {
                    continue;
                }
                let ljk = self.panel_tile(env, j, k);
                let (ti, tj, tk) = (w.tdim(i), w.tdim(j), w.tdim(k));
                if i == j {
                    let tile = self.tiles.get_mut(&(i, i)).expect("diag tile");
                    env.kernel(ComputeOp::Syrk, ti, tk, 0, flops::syrk(ti, tk), || {
                        syrk(Uplo::Lower, Trans::No, -1.0, &ljk, 1.0, tile);
                    });
                } else {
                    let lik = self.panel_tile(env, i, k);
                    let tile = self.tiles.get_mut(&(i, j)).expect("trailing tile");
                    env.kernel(ComputeOp::Gemm, ti, tj, tk, flops::gemm(ti, tj, tk), || {
                        gemm(Trans::No, Trans::Yes, -1.0, &lik, &ljk, 1.0, tile);
                    });
                }
            }
        }
    }
}

impl Workload for SlateCholesky {
    fn name(&self) -> String {
        format!(
            "slate-chol[n={},t={},la={},grid={}x{}]",
            self.n, self.tile, self.lookahead, self.pr, self.pc
        )
    }

    fn ranks(&self) -> usize {
        self.pr * self.pc
    }

    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        Some(crate::bsp::slate_cholesky(self.n, self.pr, self.pc, self.tile, self.lookahead))
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        let nt = self.nt();
        let rank = env.rank();
        assert_eq!(env.size(), self.ranks(), "rank count mismatch");
        let el = Self::element(self.n);
        // Materialize owned lower-triangle tiles.
        let mut tiles = HashMap::new();
        for j in 0..nt {
            for i in j..nt {
                if self.owner(i, j) == rank {
                    let at = |r, c| el(i * self.tile + r, j * self.tile + c);
                    tiles.insert((i, j), input(env, self.tdim(i), self.tdim(j), at));
                }
            }
        }
        let world = env.world();
        let mut run =
            TileRun { w: self, rank, world, tiles, cache: HashMap::new(), pending: Vec::new() };

        if self.lookahead == 0 {
            for k in 0..nt {
                run.factor_panel(env, k);
                run.update(env, k, (k + 1)..nt);
                run.cache.retain(|&(_, kk), _| kk != k);
            }
        } else {
            // Lookahead: update the next panel's column first, factor and
            // distribute the next panel, then finish the trailing update.
            run.factor_panel(env, 0);
            for k in 0..nt {
                if k + 1 < nt {
                    run.update(env, k, std::iter::once(k + 1));
                    run.factor_panel(env, k + 1);
                    run.update(env, k, (k + 2)..nt);
                } else {
                    run.update(env, k, (k + 1)..nt);
                }
                run.cache.retain(|&(_, kk), _| kk != k);
            }
        }
        // Drain deferred nonblocking-send completions.
        for r in run.pending.drain(..) {
            env.wait(r);
        }

        if !env.verifies() {
            return WorkloadOutput::default();
        }
        // Reference factor computed locally from the shared element formula;
        // compare owned tiles (test sizes are small).
        let mut reference = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j..self.n {
                let v = el(i, j);
                reference[(i, j)] = v;
                reference[(j, i)] = v;
            }
        }
        potrf(&mut reference).expect("reference SPD");
        let mut max_err: f64 = 0.0;
        for (&(i, j), t) in &run.tiles {
            for c in 0..t.cols() {
                for r in 0..t.rows() {
                    let (gi, gj) = (i * self.tile + r, j * self.tile + c);
                    if gi >= gj {
                        max_err = max_err.max((t[(r, c)] - reference[(gi, gj)]).abs());
                    }
                }
            }
        }
        let world = env.world();
        let global = env.allreduce(&world, ReduceOp::Max, &[max_err]);
        WorkloadOutput { residual: Some(global[0] / reference.norm_fro()), residual2: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::{CritterConfig, ExecutionPolicy, KernelStore};
    use critter_machine::MachineModel;
    use critter_sim::{run_simulation, SimConfig};

    fn run_chol(n: usize, tile: usize, la: usize, pr: usize, pc: usize) -> Vec<WorkloadOutput> {
        let w = SlateCholesky { n, tile, lookahead: la, pr, pc };
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
    fn factors_correctly_no_lookahead() {
        for out in run_chol(48, 16, 0, 2, 2) {
            assert!(out.residual.unwrap() < 1e-10, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn factors_correctly_with_lookahead() {
        for out in run_chol(48, 16, 1, 2, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn tiles_wide_enough_for_the_blocked_kernels() {
        // 64-wide tiles, the narrowest a `sweep-kernels` configuration uses:
        // the dense kernels at a sweep's tile size, not only on toy shapes.
        for out in run_chol(256, 64, 1, 2, 2) {
            assert!(out.residual.unwrap() < 1e-10, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn ragged_last_tile() {
        for out in run_chol(40, 16, 0, 2, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn rectangular_grid() {
        for out in run_chol(48, 12, 1, 4, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn single_tile_degenerate() {
        for out in run_chol(16, 16, 0, 2, 2) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn lookahead_shortens_critical_path() {
        // With lookahead the panel chain overlaps trailing updates, so the
        // simulated makespan should not be worse (and typically better).
        let time = |la: usize| {
            let w = SlateCholesky { n: 96, tile: 16, lookahead: la, pr: 2, pc: 2 };
            let machine = MachineModel::test_exact(4).shared();
            run_simulation(SimConfig::new(4), machine, move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                w.run(&mut env);
                let _ = env.finish();
            })
            .elapsed()
        };
        let t0 = time(0);
        let t1 = time(1);
        assert!(t1 <= t0 * 1.02, "lookahead {t1} vs none {t0}");
    }

    #[test]
    fn selective_execution_completes() {
        let w = SlateCholesky { n: 64, tile: 16, lookahead: 1, pr: 2, pc: 2 };
        let machine = MachineModel::test_noisy(4, 9).shared();
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
        assert!(skipped > 0, "tile algorithm must produce skips at loose ε");
    }
}
