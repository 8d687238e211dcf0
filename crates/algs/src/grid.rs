//! 3D processor grid, cyclic matrix distribution, and communication-efficient
//! distributed matrix multiplication (the substrate of Capital's Cholesky).
//!
//! A `c×c×c` grid holds `p = c³` ranks. Rank `r` has coordinates
//! `(i, j, k) = (r % c, (r/c) % c, r/c²)`. Each *layer* (fixed `k`) is a 2D
//! `c×c` grid over which matrices are distributed **element-cyclically**:
//! global element `(gi, gj)` lives on layer processor `(gi mod c, gj mod c)`
//! at local index `(gi div c, gj div c)` — and is replicated across all `c`
//! layers (the "partially-replicated cyclic" layout of §V-A).
//!
//! [`gemm3d`] is the 3D SUMMA of \[19\]–\[22\]: each layer computes the cyclic
//! k-panel of the summation index matching its depth coordinate (one
//! broadcast along each of two grid dimensions), and partial results are
//! combined by a reduction along the third dimension — "broadcasts along two
//! dimensions of the processor grid, and a reduction along the third".

use critter_core::{ComputeOp, CritterEnv};
use critter_dla::{flops, gemm, Matrix, Trans};
use critter_sim::{Communicator, ReduceOp};

/// Custom-kernel id for the block-to-cyclic style data-layout kernels the
/// paper intercepts via preprocessor directives in Capital.
pub const KERNEL_LAYOUT: u32 = 1;
/// Custom-kernel id for distributed transposes.
pub const KERNEL_TRANSPOSE: u32 = 2;

/// A `c×c×c` processor grid with its fiber communicators.
pub struct Grid3D {
    /// Grid edge length (`p = c³`).
    pub c: usize,
    /// This rank's `(i, j, k)` coordinates.
    pub coords: (usize, usize, usize),
    /// Fiber varying `i` (fixed `j, k`); communicator rank equals `i`.
    pub comm_i: Communicator,
    /// Fiber varying `j` (fixed `i, k`); communicator rank equals `j`.
    pub comm_j: Communicator,
    /// Fiber varying `k` (fixed `i, j`); communicator rank equals `k`.
    pub comm_k: Communicator,
    /// This rank's layer (fixed `k`, `c²` ranks); rank equals `i + c·j`.
    pub layer: Communicator,
}

impl Grid3D {
    /// Build the grid communicators by splitting the world communicator.
    /// Panics unless the world size is a perfect cube.
    pub fn new(env: &mut CritterEnv) -> Self {
        let p = env.size();
        let c = (p as f64).cbrt().round() as usize;
        assert_eq!(c * c * c, p, "Grid3D requires a cubic rank count, got {p}");
        let r = env.rank();
        let (i, j, k) = (r % c, (r / c) % c, r / (c * c));
        let world = env.world();
        let comm_i = env.split(&world, (j + c * k) as i64, r as i64).expect("comm_i");
        let comm_j = env.split(&world, (i + c * k) as i64, r as i64).expect("comm_j");
        let comm_k = env.split(&world, (i + c * j) as i64, r as i64).expect("comm_k");
        let layer = env.split(&world, k as i64, r as i64).expect("layer");
        debug_assert_eq!(comm_i.rank(), i);
        debug_assert_eq!(comm_j.rank(), j);
        debug_assert_eq!(comm_k.rank(), k);
        debug_assert_eq!(layer.rank(), i + c * j);
        Grid3D { c, coords: (i, j, k), comm_i, comm_j, comm_k, layer }
    }
}

/// A matrix distributed element-cyclically over each layer of a [`Grid3D`]
/// and replicated across layers.
#[derive(Debug, Clone)]
pub struct DistMat {
    /// Global row count (divisible by `c`).
    pub rows: usize,
    /// Global column count (divisible by `c`).
    pub cols: usize,
    /// This rank's local `(rows/c) × (cols/c)` block.
    pub local: Matrix,
}

impl DistMat {
    /// Zero matrix.
    pub fn zeros(grid: &Grid3D, rows: usize, cols: usize) -> Self {
        let c = grid.c;
        assert!(
            rows.is_multiple_of(c) && cols.is_multiple_of(c),
            "dims must be divisible by the grid edge"
        );
        DistMat { rows, cols, local: Matrix::zeros(rows / c, cols / c) }
    }

    /// Build from a global element function (every rank fills its cyclic
    /// part; no communication). The elements are evaluated only when `env`
    /// verifies; any other run gets the zero matrix of the same shape.
    pub fn from_fn(
        env: &CritterEnv,
        grid: &Grid3D,
        rows: usize,
        cols: usize,
        f: impl Fn(usize, usize) -> f64,
    ) -> Self {
        let mut m = DistMat::zeros(grid, rows, cols);
        if env.verifies() {
            let (i, j, _) = grid.coords;
            let c = grid.c;
            for lj in 0..cols / c {
                for li in 0..rows / c {
                    m.local[(li, lj)] = f(i + c * li, j + c * lj);
                }
            }
        }
        m
    }

    /// Copy of the sub-matrix starting at global `(i0, j0)` with shape
    /// `(r, cc)`. All of `i0, j0, r, cc` must be divisible by the grid edge,
    /// which the recursive algorithm guarantees by construction.
    pub fn sub(&self, grid: &Grid3D, i0: usize, j0: usize, r: usize, cc: usize) -> DistMat {
        let c = grid.c;
        assert!(
            i0.is_multiple_of(c)
                && j0.is_multiple_of(c)
                && r.is_multiple_of(c)
                && cc.is_multiple_of(c),
            "unaligned submatrix"
        );
        DistMat { rows: r, cols: cc, local: self.local.sub(i0 / c, j0 / c, r / c, cc / c) }
    }

    /// Write `block` at global `(i0, j0)`.
    pub fn set_sub(&mut self, grid: &Grid3D, i0: usize, j0: usize, block: &DistMat) {
        let c = grid.c;
        assert!(i0.is_multiple_of(c) && j0.is_multiple_of(c), "unaligned submatrix");
        self.local.set_sub(i0 / c, j0 / c, &block.local);
    }

    /// Assemble the full global matrix on every rank (test/verification
    /// helper; uses an allgather over the layer).
    pub fn to_global(&self, env: &mut CritterEnv, grid: &Grid3D) -> Matrix {
        let c = grid.c;
        let all = env.allgather(&grid.layer, self.local.data());
        let lr = self.rows / c;
        let lc = self.cols / c;
        let mut g = Matrix::zeros(self.rows, self.cols);
        for (member, chunk) in all.chunks(lr * lc).enumerate() {
            let (mi, mj) = (member % c, member / c);
            let local = Matrix::from_column_major(lr, lc, chunk.to_vec());
            for lj in 0..lc {
                for li in 0..lr {
                    g[(mi + c * li, mj + c * lj)] = local[(li, lj)];
                }
            }
        }
        g
    }

    /// Scatter a full global matrix from the layer's rank-0 processor into
    /// cyclic layout (test helper / base-case redistribution): here realized
    /// locally from a shared global copy.
    pub fn from_global(grid: &Grid3D, g: &Matrix) -> DistMat {
        let mut m = DistMat::zeros(grid, g.rows(), g.cols());
        let (i, j, _) = grid.coords;
        let c = grid.c;
        for lj in 0..g.cols() / c {
            for li in 0..g.rows() / c {
                m.local[(li, lj)] = g[(i + c * li, j + c * lj)];
            }
        }
        m
    }

    /// Frobenius norm of the distributed matrix (allreduce over the layer).
    pub fn norm_fro(&self, env: &mut CritterEnv, grid: &Grid3D) -> f64 {
        let local: f64 = self.local.data().iter().map(|x| x * x).sum();
        env.allreduce(&grid.layer, ReduceOp::Sum, &[local])[0].sqrt()
    }
}

/// 3D SUMMA: `C ← α·op(A)·op(B) + β·C`. `label` selects the BLAS routine the
/// local kernel is profiled as (`Gemm`, `Trmm`, `Syrk` — the distributed
/// triangular products of Capital's recursion are `trmm`s whose local blocks
/// we compute densely).
#[allow(clippy::too_many_arguments)]
pub fn gemm3d(
    env: &mut CritterEnv,
    grid: &Grid3D,
    label: ComputeOp,
    alpha: f64,
    a: &DistMat,
    b: &DistMat,
    beta: f64,
    c_out: &mut DistMat,
) {
    let c = grid.c;
    let (_, j, k) = grid.coords;
    let (m, kk) = (a.rows, a.cols);
    let n = b.cols;
    assert_eq!(b.rows, kk, "gemm3d inner dims");
    assert_eq!(c_out.rows, m, "gemm3d C rows");
    assert_eq!(c_out.cols, n, "gemm3d C cols");
    let s = k; // the SUMMA step this layer performs

    // A panel: global columns ≡ s (mod c), held by layer column j = s.
    let (lm, lk, ln) = (m / c, kk / c, n / c);
    let mut a_panel = if j == s { a.local.data().to_vec() } else { vec![0.0; lm * lk] };
    env.bcast(&grid.comm_j, s, &mut a_panel);

    // B panel: global rows ≡ s (mod c), held by layer row i = s.
    let (i, _, _) = grid.coords;
    let mut b_panel = if i == s { b.local.data().to_vec() } else { vec![0.0; lk * ln] };
    env.bcast(&grid.comm_i, s, &mut b_panel);

    // Local product for this layer's summation slice.
    let ap = Matrix::from_column_major(lm, lk, a_panel);
    let bp = Matrix::from_column_major(lk, ln, b_panel);
    let mut partial = Matrix::zeros(lm, ln);
    let fl = match label {
        ComputeOp::Syrk => flops::syrk(lm.max(ln), lk),
        ComputeOp::Trmm => flops::trmm(lk, lm.max(ln)),
        _ => flops::gemm(lm, ln, lk),
    };
    env.kernel(label, lm, ln, lk, fl, || {
        gemm(Trans::No, Trans::No, 1.0, &ap, &bp, 0.0, &mut partial);
    });

    // Depth reduction: sum the c layers' partial products.
    let summed = env.allreduce(&grid.comm_k, ReduceOp::Sum, partial.data());
    for (dst, &src) in c_out.local.data_mut().iter_mut().zip(summed.iter()) {
        *dst = beta * *dst + alpha * src;
    }
}

/// Distributed transpose within each layer: pairwise exchange between layer
/// processors `(i, j)` and `(j, i)`, local transpose on the diagonal.
pub fn transpose3d(env: &mut CritterEnv, grid: &Grid3D, a: &DistMat, tag: u64) -> DistMat {
    let c = grid.c;
    let (i, j, _) = grid.coords;
    let t_local = a.local.transposed();
    let local = if i == j {
        let words = t_local.rows() * t_local.cols();
        env.custom_kernel(KERNEL_TRANSPOSE, words, words as f64, || {});
        t_local
    } else {
        let partner = j + c * i; // layer rank of (j, i)
        let recv_words = (a.cols / c) * (a.rows / c);
        let data =
            env.sendrecv(&grid.layer, partner, tag, t_local.data(), partner, tag, recv_words);
        Matrix::from_column_major(a.cols / c, a.rows / c, data)
    };
    DistMat { rows: a.cols, cols: a.rows, local }
}

#[cfg(test)]
mod tests {
    use super::*;
    use critter_core::{CritterConfig, KernelStore};
    use critter_machine::MachineModel;
    use critter_sim::{run_simulation, SimConfig};

    fn with_grid<R: Send + 'static>(
        f: impl Fn(&mut CritterEnv, &Grid3D) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let p = 8; // 2x2x2
        let machine = MachineModel::test_exact(p).shared();
        run_simulation(SimConfig::new(p), machine, move |ctx| {
            let mut env =
                CritterEnv::new(ctx, CritterConfig::full(), KernelStore::new()).verifying();
            let grid = Grid3D::new(&mut env);
            let out = f(&mut env, &grid);
            let _ = env.finish();
            out
        })
        .outputs
    }

    #[test]
    fn grid_coordinates_and_comms() {
        let outs = with_grid(|env, grid| {
            (env.rank(), grid.coords, grid.comm_i.size(), grid.layer.size(), grid.comm_k.rank())
        });
        for (r, (i, j, k), ci, lay, kr) in outs {
            assert_eq!(r, i + 2 * j + 4 * k);
            assert_eq!(ci, 2);
            assert_eq!(lay, 4);
            assert_eq!(kr, k);
        }
    }

    #[test]
    fn from_fn_to_global_roundtrip() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 4, 6, |i, j| (i * 10 + j) as f64);
            let g = a.to_global(env, grid);
            let mut ok = true;
            for j in 0..6 {
                for i in 0..4 {
                    ok &= g[(i, j)] == (i * 10 + j) as f64;
                }
            }
            ok
        });
        assert!(outs.into_iter().all(|x| x));
    }

    #[test]
    fn gemm3d_matches_reference() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 4, 8, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
            let b = DistMat::from_fn(env, grid, 8, 6, |i, j| ((3 * i + j) % 7) as f64 - 3.0);
            let mut c = DistMat::zeros(grid, 4, 6);
            gemm3d(env, grid, ComputeOp::Gemm, 1.0, &a, &b, 0.0, &mut c);
            let (ga, gb, gc) =
                (a.to_global(env, grid), b.to_global(env, grid), c.to_global(env, grid));
            gc.max_abs_diff(&ga.matmul_ref(&gb))
        });
        for d in outs {
            assert!(d < 1e-12, "gemm3d error {d}");
        }
    }

    #[test]
    fn gemm3d_alpha_beta() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 4, 4, |i, j| (i + j) as f64);
            let b = DistMat::from_fn(env, grid, 4, 4, |i, j| (i as f64) - (j as f64));
            let mut c = DistMat::from_fn(env, grid, 4, 4, |i, j| (i * j) as f64);
            let c0 = c.to_global(env, grid);
            gemm3d(env, grid, ComputeOp::Gemm, 2.0, &a, &b, -1.0, &mut c);
            let (ga, gb, gc) =
                (a.to_global(env, grid), b.to_global(env, grid), c.to_global(env, grid));
            let mut expect = ga.matmul_ref(&gb);
            for j in 0..4 {
                for i in 0..4 {
                    expect[(i, j)] = 2.0 * expect[(i, j)] - c0[(i, j)];
                }
            }
            gc.max_abs_diff(&expect)
        });
        for d in outs {
            assert!(d < 1e-12);
        }
    }

    #[test]
    fn transpose3d_matches_reference() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 6, 4, |i, j| (7 * i + j) as f64);
            let t = transpose3d(env, grid, &a, 3);
            let (ga, gt) = (a.to_global(env, grid), t.to_global(env, grid));
            gt.max_abs_diff(&ga.transposed())
        });
        for d in outs {
            assert!(d < 1e-12);
        }
    }

    #[test]
    fn sub_set_sub_roundtrip() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 8, 8, |i, j| (i * 8 + j) as f64);
            let blk = a.sub(grid, 4, 2, 4, 4);
            let mut b = DistMat::zeros(grid, 8, 8);
            b.set_sub(grid, 4, 2, &blk);
            let (ga, gb) = (a.to_global(env, grid), b.to_global(env, grid));
            let mut ok = true;
            for j in 2..6 {
                for i in 4..8 {
                    ok &= ga[(i, j)] == gb[(i, j)];
                }
            }
            ok && gb[(0, 0)] == 0.0
        });
        assert!(outs.into_iter().all(|x| x));
    }

    #[test]
    fn norm_matches_global() {
        let outs = with_grid(|env, grid| {
            let a = DistMat::from_fn(env, grid, 4, 4, |i, j| (i + j) as f64);
            let n1 = a.norm_fro(env, grid);
            let n2 = a.to_global(env, grid).norm_fro();
            (n1 - n2).abs()
        });
        for d in outs {
            assert!(d < 1e-12);
        }
    }
}
