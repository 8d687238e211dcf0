//! 2.5D matrix multiplication — the §VIII extensibility demonstration.
//!
//! The paper closes by arguing its techniques "should be extensible to other
//! applications and autotuning methods", and its authors' own prior work on
//! communication-avoiding 2.5D algorithms \[33\]\[41\] is the canonical
//! example: on `p = r²·c` processors, `c` replicas of the operands trade
//! memory for a `√c` reduction in communication volume, and the best `c` for
//! a given machine and problem size is a classic autotuning question.
//!
//! This workload implements SUMMA over an `r×r×c` grid with element-cyclic
//! layer distribution (the same layout machinery as Capital's Cholesky):
//! operands are generated on layer 0 and **replicated along the depth**
//! (the 2.5D memory cost, paid as intercepted broadcasts), each layer computes
//! its cyclic share of the `r` SUMMA steps (row + column broadcasts, local
//! `gemm`s in `inner`-wide k-chunks — the kernel-granularity tunable), and
//! partial products are combined by a depth allreduce.
//!
//! Tunables: replication depth `c` and inner blocking `inner`.

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, gemm, Matrix, Trans};
use critter_sim::ReduceOp;

use crate::workload::{input, Workload, WorkloadOutput};

/// One 2.5D SUMMA configuration.
#[derive(Debug, Clone)]
pub struct Summa25D {
    /// Matrix dimension (`n × n` operands).
    pub n: usize,
    /// Replication depth `c` (`p = r²·c` with integer `r`).
    pub c: usize,
    /// Total rank count.
    pub ranks: usize,
    /// Inner blocking of the local multiply's k dimension.
    pub inner: usize,
}

impl Summa25D {
    /// Layer-grid edge `r` with `p = r²·c`; panics if the shape is invalid.
    fn r(&self) -> usize {
        assert!(self.c > 0 && self.ranks.is_multiple_of(self.c), "c must divide p");
        let layer = self.ranks / self.c;
        let r = (layer as f64).sqrt().round() as usize;
        assert_eq!(r * r * self.c, self.ranks, "p must equal r²·c");
        assert!(self.n.is_multiple_of(r), "n must divide by the layer edge");
        r
    }

    /// Element functions for the two operands.
    fn element_a() -> impl Fn(usize, usize) -> f64 {
        crate::candmc_qr::CandmcQr::element()
    }

    fn element_b(n: usize) -> impl Fn(usize, usize) -> f64 {
        let el = crate::candmc_qr::CandmcQr::element();
        move |i, j| el(i + n, j + 2 * n)
    }
}

impl Workload for Summa25D {
    fn name(&self) -> String {
        format!("summa25d[n={},c={},ib={},p={}]", self.n, self.c, self.inner, self.ranks)
    }

    fn ranks(&self) -> usize {
        self.ranks
    }

    fn run(&self, env: &mut CritterEnv) -> WorkloadOutput {
        let r = self.r();
        let c = self.c;
        let n = self.n;
        let m = n / r; // local edge
        let rank = env.rank();
        assert_eq!(env.size(), self.ranks, "rank count mismatch");
        let (i, j, k) = (rank % r, (rank / r) % r, rank / (r * r));
        let world = env.world();
        // Fibers: vary j (row bcast source), vary i (col bcast source),
        // vary k (replication/reduction), and the layer (unused directly but
        // registered so eager propagation sees the full grid).
        let comm_j = env.split(&world, (i + r * k) as i64, rank as i64).expect("comm_j");
        let comm_i = env.split(&world, (j + r * k) as i64, rank as i64).expect("comm_i");
        let comm_k = env.split(&world, (i + r * j) as i64, rank as i64).expect("comm_k");
        let _layer = env.split(&world, k as i64, rank as i64).expect("layer");

        // Operands: generated on layer 0 (cyclic layout: global (gi, gj) =
        // (i + r·li, j + r·lj)), then replicated along the depth — the 2.5D
        // memory/communication trade: this bcast is what buying `c` costs.
        let ea = Self::element_a();
        let eb = Self::element_b(n);
        let fill =
            |f: &dyn Fn(usize, usize) -> f64| input(env, m, m, |li, lj| f(i + r * li, j + r * lj));
        let mut a_data = if k == 0 { fill(&ea).into_data() } else { vec![0.0; m * m] };
        let mut b_data = if k == 0 { fill(&eb).into_data() } else { vec![0.0; m * m] };
        env.bcast(&comm_k, 0, &mut a_data);
        env.bcast(&comm_k, 0, &mut b_data);
        let a = Matrix::from_column_major(m, m, a_data);
        let b = Matrix::from_column_major(m, m, b_data);

        // SUMMA: r element-cyclic k-panels, dealt round-robin to the c layers.
        let mut c_local = Matrix::zeros(m, m);
        let mut s = k;
        while s < r {
            // A panel (global cols ≡ s mod r) lives on layer column j = s;
            // B panel (global rows ≡ s) on layer row i = s.
            let mut ap = if j == s { a.data().to_vec() } else { vec![0.0; m * m] };
            env.bcast(&comm_j, s, &mut ap);
            let mut bp = if i == s { b.data().to_vec() } else { vec![0.0; m * m] };
            env.bcast(&comm_i, s, &mut bp);
            let ap = Matrix::from_column_major(m, m, ap);
            let bp = Matrix::from_column_major(m, m, bp);
            // Local multiply in `inner`-wide k-chunks: each chunk is a real
            // partial product and a separately profiled kernel — the
            // granularity tunable Critter observes.
            let ib = self.inner.min(m).max(1);
            let mut k0 = 0;
            while k0 < m {
                let kw = ib.min(m - k0);
                let achunk = ap.sub(0, k0, m, kw);
                let bchunk = bp.sub(k0, 0, kw, m);
                env.kernel(ComputeOp::Gemm, m, m, kw, flops::gemm(m, m, kw), || {
                    gemm(Trans::No, Trans::No, 1.0, &achunk, &bchunk, 1.0, &mut c_local);
                });
                k0 += kw;
            }
            s += c;
        }
        // Combine the layers' partial products.
        let summed = env.allreduce(&comm_k, ReduceOp::Sum, c_local.data());
        let c_local = Matrix::from_column_major(m, m, summed);

        if !env.verifies() {
            return WorkloadOutput::default();
        }
        // Reference: local entries of A·B from the element formulas.
        let mut max_err: f64 = 0.0;
        let mut ref_norm: f64 = 0.0;
        for lj in 0..m {
            for li in 0..m {
                let (gi, gj) = (i + r * li, j + r * lj);
                let mut expect = 0.0;
                for t in 0..n {
                    expect += ea(gi, t) * eb(t, gj);
                }
                max_err = max_err.max((c_local[(li, lj)] - expect).abs());
                ref_norm = ref_norm.max(expect.abs());
            }
        }
        let global = env.allreduce(&world, ReduceOp::Max, &[max_err, ref_norm]);
        WorkloadOutput { residual: Some(global[0] / global[1].max(1.0)), residual2: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::{CritterConfig, ExecutionPolicy, KernelStore};
    use critter_machine::MachineModel;
    use critter_sim::{run_simulation, SimConfig};

    fn run_summa(n: usize, c: usize, p: usize, inner: usize) -> Vec<WorkloadOutput> {
        let w = Summa25D { n, c, ranks: p, inner };
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
    fn multiplies_correctly_2d() {
        // c = 1 degenerates to plain SUMMA.
        for out in run_summa(16, 1, 4, 8) {
            assert!(out.residual.unwrap() < 1e-10, "residual {:?}", out.residual);
        }
    }

    #[test]
    fn multiplies_correctly_25d() {
        for out in run_summa(16, 4, 16, 4) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn multiplies_correctly_3d_limit() {
        // c = p: every layer is a single rank (r = 1).
        for out in run_summa(8, 4, 4, 8) {
            assert!(out.residual.unwrap() < 1e-10);
        }
    }

    #[test]
    fn inner_blocking_changes_kernel_granularity() {
        let count = |inner: usize| {
            let w = Summa25D { n: 32, c: 1, ranks: 4, inner };
            let machine = MachineModel::test_exact(4).shared();
            let rep = run_simulation(SimConfig::new(4), machine, move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                w.run(&mut env);
                let (rep, _) = env.finish();
                rep
            });
            rep.outputs.iter().map(|r| r.kernels_executed).sum::<u64>()
        };
        assert!(count(4) > count(16), "smaller inner blocks → more kernels");
    }

    #[test]
    fn replication_reduces_path_communication() {
        // The 2.5D claim: larger c cuts per-layer SUMMA broadcasts (each layer
        // does r/c steps), at the cost of the initial depth replication.
        let words = |c: usize| {
            let w = Summa25D { n: 64, c, ranks: 16, inner: 64 };
            let machine = MachineModel::test_exact(16).shared();
            let rep = run_simulation(SimConfig::new(16), machine, move |ctx| {
                let mut env = CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new());
                w.run(&mut env);
                let (rep, _) = env.finish();
                rep
            });
            rep.outputs.iter().fold(0.0f64, |acc, r| acc.max(r.path.syncs))
        };
        assert!(words(4) < words(1), "replication should shorten the sync chain");
    }

    #[test]
    fn selective_execution_completes() {
        // r = 2, m = 32, inner = 4: 8 same-signature gemm chunks per SUMMA
        // step × 2 steps — plenty of repetition to converge and skip.
        let w = Summa25D { n: 64, c: 1, ranks: 4, inner: 4 };
        let machine = MachineModel::test_noisy(4, 31).shared();
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
        assert!(skipped > 0, "repeated SUMMA kernels must become skippable");
    }
}
