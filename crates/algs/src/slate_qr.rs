//! SLATE-style tile QR factorization (§V-B).
//!
//! The `m×n` matrix is split into `nb×nb` tiles (ragged at the boundary) on a
//! 2D `p_r×p_c` grid. Each panel step `k`:
//!
//! 1. `geqrt` factors the diagonal tile (with **inner blocking** `w`: the
//!    panel is processed in `w`-wide sub-panels, SLATE's thread-concurrency
//!    parameter, which changes the kernel granularity Critter observes);
//! 2. a **flat-tree `tpqrt` chain** walks down the tile column, coupling the
//!    running `R` with each below-diagonal tile and leaving Householder
//!    blocks `V_i` behind;
//! 3. the trailing update applies `Qᵀ` tile-pair-wise: `larfb`/`ormqr` on the
//!    top tile row, then a `tpmqrt` chain down every trailing column, with
//!    tiles moving by point-to-point messages (`isend`/`send`/`recv` — the
//!    routines the paper lists for SLATE).
//!
//! Tunables (§V-C): panel width `nb`, inner blocking `w`, grid shape.

use std::collections::HashMap;
use std::rc::Rc;

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, geqrf, ormqr, tp::TpTrans, tpmqrt, tpqrt, Matrix, Trans};
use critter_sim::{Communicator, ReduceOp};

use crate::workload::{input, Workload, WorkloadOutput};

/// One SLATE QR configuration.
#[derive(Debug, Clone)]
pub struct SlateQr {
    /// Row count.
    pub m: usize,
    /// Column count (`n ≤ m`).
    pub n: usize,
    /// Panel width / tile size `nb` (boundary tiles may be smaller).
    pub nb: usize,
    /// Inner blocking width `w ≤ nb`.
    pub inner: usize,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl SlateQr {
    /// Shared element function (same as CANDMC's, so reference factors agree).
    pub fn element() -> impl Fn(usize, usize) -> f64 {
        crate::candmc_qr::CandmcQr::element()
    }

    fn mt(&self) -> usize {
        self.m.div_ceil(self.nb)
    }

    fn nt(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Height of tile row `i`.
    fn tr(&self, i: usize) -> usize {
        self.nb.min(self.m - i * self.nb)
    }

    /// Width of tile column `j`.
    fn tc(&self, j: usize) -> usize {
        self.nb.min(self.n - j * self.nb)
    }

    fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.pr) * self.pc + (j % self.pc)
    }

    fn validate(&self) {
        assert!(self.n <= self.m, "tall matrices only");
        assert!(self.inner > 0 && self.inner <= self.nb, "w must be in 1..=nb");
    }
}

/// Message tags: `(k, hop, j, kind)` packed; kinds: 0 = V/tau row route,
/// 1 = panel R chain, 2 = trailing A(k,j) chain, 3 = V_kk row route.
fn tag(k: usize, hop: usize, j: usize, kind: u64, mt: usize, nt: usize) -> u64 {
    ((((k * (mt + 1) + hop) * (nt + 1)) + j) as u64) * 4 + kind
}

struct QrRun<'w> {
    w: &'w SlateQr,
    rank: usize,
    world: Communicator,
    tiles: HashMap<(usize, usize), Matrix>,
    /// Householder blocks and taus of this step, computed or received,
    /// keyed by row index: shared, so every update borrows them.
    vcache: HashMap<usize, Rc<(Matrix, Vec<f64>)>>,
    /// The running `R` of the panel chain when its next hop is this rank.
    handoff: Option<Matrix>,
    pending: Vec<critter_core::env::CritterRequest>,
}

impl<'w> QrRun<'w> {
    fn own(&self, i: usize, j: usize) -> bool {
        self.w.owner(i, j) == self.rank
    }

    /// Charge the inner-blocked panel kernels (`geqrf` + `larft` per `w`-wide
    /// sub-panel); the first sub-kernel's body performs the whole real
    /// factorization. The taus are shape-sized up front, so the V block that
    /// [`route_v`](Self::route_v) sends has the same word count whether or
    /// not that body ran.
    fn geqrt(&mut self, env: &mut CritterEnv, k: usize) -> Vec<f64> {
        let (rows0, cols) = (self.w.tr(k), self.w.tc(k));
        let wid = self.w.inner;
        let tile = self.tiles.get_mut(&(k, k)).expect("diag tile");
        let mut tau = vec![0.0; rows0.min(cols)];
        for s in 0..cols.div_ceil(wid) {
            let sw = wid.min(cols - s * wid);
            let rows = rows0 - s * wid.min(rows0.saturating_sub(1));
            let first = s == 0;
            env.kernel(ComputeOp::Geqrf, rows, sw, 0, flops::geqrf(rows.max(sw), sw), || {
                if first {
                    tau = geqrf(tile);
                }
            });
            env.kernel(ComputeOp::Larft, rows, sw, 0, flops::larft(rows.max(sw), sw), || {});
        }
        tau
    }

    /// Send a Householder block (V tile + taus) to the grid-row consumers of
    /// tile row `i` at step `k`.
    fn route_v(&mut self, env: &mut CritterEnv, k: usize, i: usize, kind: u64) {
        let w = self.w;
        let (mt, nt) = (w.mt(), w.nt());
        let mut payload = self.tiles[&(i, k)].data().to_vec();
        let tau = &self.vcache[&i].1;
        payload.extend_from_slice(tau);
        let mut dests = std::collections::BTreeSet::new();
        for j in (k + 1)..nt {
            dests.insert(w.owner(if kind == 3 { k } else { i }, j));
        }
        dests.remove(&self.rank);
        for d in dests {
            let r = env.isend(&self.world, d, tag(k, i, 0, kind, mt, nt), payload.clone());
            self.pending.push(r);
        }
    }

    /// Fetch the Householder block for tile row `i` of step `k` (local or
    /// from the step cache after receiving it).
    fn get_v(
        &mut self,
        env: &mut CritterEnv,
        k: usize,
        i: usize,
        kind: u64,
    ) -> Rc<(Matrix, Vec<f64>)> {
        if let Some(v) = self.vcache.get(&i) {
            return Rc::clone(v);
        }
        let w = self.w;
        let (mt, nt) = (w.mt(), w.nt());
        let (vr, vc) = (w.tr(i), w.tc(k));
        // tpqrt taus always span the panel width; geqrt taus equal it too
        // because diagonal tiles are at least as tall as wide.
        let ntau = vc;
        let mut data =
            env.recv(&self.world, w.owner(i, k), tag(k, i, 0, kind, mt, nt), vr * vc + ntau);
        let tau = data.split_off(vr * vc);
        let v = Rc::new((Matrix::from_column_major(vr, vc, data), tau));
        self.vcache.insert(i, Rc::clone(&v));
        v
    }
}

impl Workload for SlateQr {
    fn name(&self) -> String {
        format!(
            "slate-qr[{}x{},nb={},w={},grid={}x{}]",
            self.m, self.n, self.nb, self.inner, self.pr, self.pc
        )
    }

    fn ranks(&self) -> usize {
        self.pr * self.pc
    }

    fn bsp(&self) -> Option<crate::bsp::BspCost> {
        Some(crate::bsp::slate_qr(self.m, self.n, self.pr, self.pc, self.nb, self.inner))
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        self.validate();
        let (mt, nt) = (self.mt(), self.nt());
        let rank = env.rank();
        assert_eq!(env.size(), self.ranks(), "rank count mismatch");
        let el = Self::element();
        let mut tiles = HashMap::new();
        for j in 0..nt {
            for i in 0..mt {
                if self.owner(i, j) == rank {
                    let at = |r, c| el(i * self.nb + r, j * self.nb + c);
                    tiles.insert((i, j), input(env, self.tr(i), self.tc(j), at));
                }
            }
        }
        let world = env.world();
        let mut run = QrRun {
            w: self,
            rank,
            world,
            tiles,
            vcache: HashMap::new(),
            handoff: None,
            pending: Vec::new(),
        };

        for k in 0..nt {
            run.vcache.clear();
            let wk = self.tc(k); // panel width of this step
            assert!(self.tr(k) >= wk, "diagonal tile must be tall (m ≥ n guarantees this)");
            // ---- Panel: geqrt at (k,k), then the tpqrt chain down column k.
            if run.own(k, k) {
                let tau = run.geqrt(env, k);
                run.vcache.insert(k, Rc::new((run.tiles[&(k, k)].clone(), tau)));
                run.route_v(env, k, k, 3);
                // Start the R chain: extract R (upper triangle of (k,k)).
                if k + 1 < mt {
                    let mut r = run.tiles[&(k, k)].sub(0, 0, wk, wk);
                    r.triu_in_place();
                    let nxt = self.owner(k + 1, k);
                    if nxt != rank {
                        let req =
                            env.isend(&run.world, nxt, tag(k, k + 1, 0, 1, mt, nt), r.into_data());
                        run.pending.push(req);
                    } else {
                        run.handoff = Some(r);
                    }
                }
            }
            // Walk the chain: each owner of (i,k) factors [R; tile(i,k)].
            for i in (k + 1)..mt {
                if !run.own(i, k) {
                    continue;
                }
                let prev = if i == k + 1 { self.owner(k, k) } else { self.owner(i - 1, k) };
                let mut r = if prev == rank {
                    run.handoff.take().expect("local R handoff")
                } else {
                    let data = env.recv(&run.world, prev, tag(k, i, 0, 1, mt, nt), wk * wk);
                    Matrix::from_column_major(wk, wk, data)
                };
                let ti = self.tr(i);
                // Shape-sized like `geqrt`'s, whether or not the body runs.
                let mut tau_i = vec![0.0; wk];
                let b = run.tiles.get_mut(&(i, k)).expect("panel tile");
                env.kernel(ComputeOp::Tpqrt, ti, wk, 0, flops::tpqrt(ti, wk), || {
                    tau_i = tpqrt(&mut r, b);
                });
                run.vcache.insert(i, Rc::new((run.tiles[&(i, k)].clone(), tau_i)));
                run.route_v(env, k, i, 0);
                // Pass R on (or return it to the diagonal owner at the end).
                let (nxt, hop) =
                    if i + 1 < mt { (self.owner(i + 1, k), i + 1) } else { (self.owner(k, k), mt) };
                if nxt == rank {
                    if i + 1 < mt {
                        run.handoff = Some(r);
                    } else {
                        run.tiles.get_mut(&(k, k)).unwrap().set_sub(0, 0, &r);
                    }
                } else {
                    let req = env.isend(&run.world, nxt, tag(k, hop, 0, 1, mt, nt), r.into_data());
                    run.pending.push(req);
                }
            }
            // Diagonal owner receives the final R back.
            if run.own(k, k) && k + 1 < mt && self.owner(mt - 1, k) != rank {
                let data =
                    env.recv(&run.world, self.owner(mt - 1, k), tag(k, mt, 0, 1, mt, nt), wk * wk);
                run.tiles.get_mut(&(k, k)).unwrap().set_sub(
                    0,
                    0,
                    &Matrix::from_column_major(wk, wk, data),
                );
            }

            // ---- Trailing update, column by column.
            for j in (k + 1)..nt {
                let tj = self.tc(j);
                let top_words = self.tr(k) * tj;
                // larfb on the top tile A(k,j).
                let mut akj = if run.own(k, j) {
                    let vkk = run.get_v(env, k, k, 3);
                    let tile = run.tiles.get_mut(&(k, j)).expect("top tile");
                    let wid = self.inner;
                    for s in 0..wk.div_ceil(wid) {
                        let sw = wid.min(wk - s * wid);
                        let first = s == 0;
                        env.kernel(
                            ComputeOp::Ormqr,
                            self.tr(k),
                            tj,
                            sw,
                            flops::ormqr(self.tr(k), tj, sw),
                            || {
                                if first {
                                    ormqr(Trans::Yes, &vkk.0, &vkk.1, tile);
                                }
                            },
                        );
                    }
                    Some(tile.clone())
                } else {
                    None
                };
                // Launch the chain: hand the top tile to the first
                // below-diagonal holder (it returns home after the last hop).
                if run.own(k, j) && k + 1 < mt {
                    let first = self.owner(k + 1, j);
                    if first != rank {
                        let t = akj.take().expect("top tile present at chain start");
                        let req = env.isend(
                            &run.world,
                            first,
                            tag(k, k + 1, j, 2, mt, nt),
                            t.into_data(),
                        );
                        run.pending.push(req);
                    }
                }
                // tpmqrt chain down the column.
                for i in (k + 1)..mt {
                    if !run.own(i, j) {
                        continue;
                    }
                    let prev = if i == k + 1 { self.owner(k, j) } else { self.owner(i - 1, j) };
                    let mut top = match akj.take() {
                        Some(t) if prev == rank => t,
                        other => {
                            akj = other; // put back anything we should not consume
                            let data =
                                env.recv(&run.world, prev, tag(k, i, j, 2, mt, nt), top_words);
                            Matrix::from_column_major(self.tr(k), tj, data)
                        }
                    };
                    let vi = run.get_v(env, k, i, 0);
                    let ti = self.tr(i);
                    {
                        let bot = run.tiles.get_mut(&(i, j)).expect("trailing tile");
                        let wid = self.inner;
                        for s in 0..wk.div_ceil(wid) {
                            let sw = wid.min(wk - s * wid);
                            let first = s == 0;
                            env.kernel(
                                ComputeOp::Tpmqrt,
                                ti,
                                sw,
                                tj,
                                flops::tpmqrt(ti, sw, tj),
                                || {
                                    if first {
                                        tpmqrt(TpTrans::Yes, &vi.0, &vi.1, &mut top, bot);
                                    }
                                },
                            );
                        }
                    }
                    // Pass the top tile on (or home).
                    let (nxt, hop) = if i + 1 < mt {
                        (self.owner(i + 1, j), i + 1)
                    } else {
                        (self.owner(k, j), mt)
                    };
                    if nxt == rank {
                        if i + 1 < mt {
                            akj = Some(top);
                        } else {
                            *run.tiles.get_mut(&(k, j)).unwrap() = top;
                        }
                    } else {
                        let req =
                            env.isend(&run.world, nxt, tag(k, hop, j, 2, mt, nt), top.into_data());
                        run.pending.push(req);
                    }
                }
                // Column owner of (k,j) takes the final top tile back.
                if run.own(k, j) && k + 1 < mt {
                    let last_owner = self.owner(mt - 1, j);
                    if last_owner != rank {
                        let data =
                            env.recv(&run.world, last_owner, tag(k, mt, j, 2, mt, nt), top_words);
                        *run.tiles.get_mut(&(k, j)).unwrap() =
                            Matrix::from_column_major(self.tr(k), tj, data);
                    } else if let Some(t) = akj.take() {
                        *run.tiles.get_mut(&(k, j)).unwrap() = t;
                    }
                }
            }
        }
        for r in run.pending.drain(..) {
            env.wait(r);
        }

        if !env.verifies() {
            return WorkloadOutput::default();
        }
        // Compare the R blocks (upper triangle of tile rows 0..nt) against a
        // local reference QR, up to row signs.
        let mut reference = Matrix::zeros(self.m, self.n);
        for j in 0..self.n {
            for i in 0..self.m {
                reference[(i, j)] = el(i, j);
            }
        }
        geqrf(&mut reference);
        let mut max_err: f64 = 0.0;
        for (&(i, j), t) in &run.tiles {
            if i >= nt || j < i {
                continue; // only R-carrying tiles (upper block triangle)
            }
            for c in 0..t.cols() {
                for r in 0..t.rows() {
                    let (gi, gj) = (i * self.nb + r, j * self.nb + c);
                    if gi <= gj {
                        let refv = reference[(gi, gj)].abs();
                        max_err = max_err.max((t[(r, c)].abs() - refv).abs());
                    }
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

    fn run_qr(
        m: usize,
        n: usize,
        nb: usize,
        w: usize,
        pr: usize,
        pc: usize,
    ) -> Vec<WorkloadOutput> {
        let wl = SlateQr { m, n, nb, inner: w, pr, pc };
        let p = wl.ranks();
        let machine = MachineModel::test_exact(p).shared();
        run_simulation(SimConfig::new(p), machine, move |ctx| {
            let mut env =
                CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new()).verifying();
            let out = wl.run(&mut env);
            let _ = env.finish();
            out
        })
        .outputs
    }

    #[test]
    fn factors_correctly() {
        for out in run_qr(48, 16, 8, 4, 2, 2) {
            assert!(out.residual.unwrap() < 1e-9, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn factors_with_full_inner_block() {
        for out in run_qr(48, 16, 8, 8, 2, 2) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn factors_tall_grid() {
        for out in run_qr(64, 16, 8, 4, 4, 1) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn factors_single_rank_per_column() {
        for out in run_qr(32, 16, 8, 2, 1, 4) {
            assert!(out.residual.unwrap() < 1e-9);
        }
    }

    #[test]
    fn factors_ragged_tiles() {
        // 52 % 12 and 20 % 12 are nonzero: boundary tiles exercise raggedness.
        for out in run_qr(52, 20, 12, 5, 2, 2) {
            assert!(out.residual.unwrap() < 1e-9, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn inner_blocking_changes_kernel_count() {
        let count = |w: usize| {
            let wl = SlateQr { m: 32, n: 16, nb: 8, inner: w, pr: 2, pc: 2 };
            let machine = MachineModel::test_exact(4).shared();
            let rep = run_simulation(SimConfig::new(4), machine, move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                wl.run(&mut env);
                let (rep, _) = env.finish();
                rep
            });
            rep.outputs.iter().map(|r| r.kernels_executed).sum::<u64>()
        };
        assert!(count(2) > count(8), "smaller w must produce more kernels");
    }

    #[test]
    fn a_skipped_geqrf_still_routes_a_shape_sized_v_block() {
        // One grid row: rank 0 owns the diagonal tile (0,0), rank 1 the
        // trailing tile (0,1) that consumes V(0,0) and its taus.
        let wl = SlateQr { m: 8, n: 16, nb: 8, inner: 8, pr: 1, pc: 2 };
        let (vr, vc) = (wl.tr(0), wl.tc(0));
        let machine = MachineModel::test_exact(2).shared();
        let out = run_simulation(SimConfig::new(2), machine, move |ctx| {
            let cfg = CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1.0);
            let mut env = CritterEnv::new(ctx, cfg, KernelStore::new());
            let (world, (mt, nt)) = (env.world(), (wl.mt(), wl.nt()));
            if env.rank() == 1 {
                let v = env.recv(&world, 0, tag(0, 0, 0, 3, mt, nt), vr * vc + vc);
                let _ = env.finish();
                return (v.len(), 0);
            }
            let tiles = HashMap::from([((0, 0), Matrix::zeros(vr, vc))]);
            let mut run = QrRun {
                w: &wl,
                rank: 0,
                world,
                tiles,
                vcache: HashMap::new(),
                handoff: None,
                pending: Vec::new(),
            };
            // On a noise-free machine two samples pin `geqrf`'s time, so
            // the third factorization is skipped.
            let mut tau = Vec::new();
            for _ in 0..3 {
                tau = run.geqrt(&mut env, 0);
            }
            run.vcache.insert(0, Rc::new((run.tiles[&(0, 0)].clone(), tau)));
            run.route_v(&mut env, 0, 0, 3);
            for r in run.pending.drain(..) {
                env.wait(r);
            }
            (0, env.finish().0.kernels_skipped)
        })
        .outputs;
        assert!(out[0].1 > 0, "the third geqrt must skip its kernels");
        assert_eq!(out[1].0, vr * vc + vc, "V(0,0) must carry vr·vc + vc words");
    }

    #[test]
    fn selective_execution_completes() {
        let wl = SlateQr { m: 32, n: 16, nb: 8, inner: 4, pr: 2, pc: 2 };
        let machine = MachineModel::test_noisy(4, 21).shared();
        let report = run_simulation(SimConfig::new(4), machine, move |ctx| {
            let mut env = CritterEnv::new(
                ctx,
                CritterConfig::new(ExecutionPolicy::ConditionalExecution, 1.0),
                KernelStore::new(),
            );
            wl.run(&mut env);
            let (rep, _) = env.finish();
            rep
        });
        let skipped: u64 = report.outputs.iter().map(|r| r.kernels_skipped).sum();
        assert!(skipped > 0);
    }
}
