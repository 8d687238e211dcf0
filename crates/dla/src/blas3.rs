//! Level-3 BLAS: `gemm`, `syrk`, `trsm`.
//!
//! `gemm`, `syrk` and `trsm` are blocked algorithms over the one GEMM core in
//! the `kernel` module. What a kernel *costs in simulated time* still comes
//! only from the machine model (`critter-machine`), never from how long this
//! code runs; but how fast it runs on the host is what a numerics-bound sweep
//! waits for — the benchmark's `sweep-kernels` workload spends nearly all of
//! its wall time here — so the flops go through a tuned microkernel.
//! DESIGN.md §2.1 describes the core.

use crate::kernel::{self, View, ViewMut};
use crate::matrix::Matrix;

/// Transposition selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Operate on the matrix as stored.
    No,
    /// Operate on the transpose.
    Yes,
}

/// Triangle selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// Lower triangle.
    Lower,
    /// Upper triangle.
    Upper,
}

/// Side selector for triangular ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Triangular matrix applied from the left.
    Left,
    /// Triangular matrix applied from the right.
    Right,
}

/// Columns solved together by [`solve_right`]: the share of a solve's flops
/// left to the axpy-form in-block solve is `TB / n`, the rest is GEMM.
const TB: usize = 16;

/// General matrix multiply: `C ← α·op(A)·op(B) + β·C`. With `β = 0`, `C` is
/// assigned, not scaled: what it held before (NaN included) is not read.
pub fn gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (a, b) = (View::of(a, ta), View::of(b, tb));
    assert_eq!(a.cols, b.rows, "gemm inner dimensions disagree: {} vs {}", a.cols, b.rows);
    assert_eq!(c.rows(), a.rows, "gemm C rows");
    assert_eq!(c.cols(), b.cols, "gemm C cols");
    kernel::gemm(alpha, a, b, beta, &mut ViewMut::of(c), false);
}

/// Copy the strict `from` triangle of square `c` onto the other one.
fn mirror(c: &mut Matrix, from: Uplo) {
    for j in 0..c.cols() {
        for i in (j + 1)..c.rows() {
            match from {
                Uplo::Lower => c[(j, i)] = c[(i, j)],
                Uplo::Upper => c[(i, j)] = c[(j, i)],
            }
        }
    }
}

/// Symmetric rank-k update: `C ← α·op(A)·op(A)ᵀ + β·C`, reading only the
/// `uplo` triangle of `C` and mirroring the result (C kept full-symmetric,
/// which the distributed algorithms rely on). `β = 0` assigns, as in [`gemm`].
pub fn syrk(uplo: Uplo, ta: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
    let a = View::of(a, ta);
    assert_eq!(c.rows(), a.rows, "syrk C must be n×n");
    assert_eq!(c.cols(), a.rows, "syrk C must be n×n");
    // One computation, on the lower triangle: the tiles on or below the
    // diagonal go through the core, the rest is their mirror image.
    if uplo == Uplo::Upper {
        mirror(c, Uplo::Upper);
    }
    kernel::gemm(alpha, a, a.t(), beta, &mut ViewMut::of(c), true);
    mirror(c, Uplo::Lower);
}

/// Triangular solve with multiple right-hand sides:
/// `op(A)·X = α·B` (Left) or `X·op(A) = α·B` (Right); `B` is overwritten by `X`.
/// `unit` marks an implicit unit diagonal. `α = 0` gives `X = 0` whatever
/// `B` held.
pub fn trsm(side: Side, uplo: Uplo, ta: Trans, unit: bool, alpha: f64, a: &Matrix, b: &mut Matrix) {
    assert_eq!(a.rows(), a.cols(), "triangular matrix must be square");
    let n = a.rows();
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm left dimension"),
        Side::Right => assert_eq!(b.cols(), n, "trsm right dimension"),
    }
    ViewMut::of(b).scale(alpha);
    if alpha == 0.0 {
        return;
    }
    // Effective triangle after transposition.
    let lower = matches!((uplo, ta), (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes));
    let t = View::of(a, ta);
    match side {
        Side::Right => solve_right(t, lower, unit, &mut ViewMut::of(b)),
        // T·X = B is Xᵀ·Tᵀ = Bᵀ: the same solver on a transposed copy, whose
        // O(mn) moves are noise beside the O(m²n) solve.
        Side::Left => {
            let mut bt = b.transposed();
            solve_right(t.t(), !lower, unit, &mut ViewMut::of(&mut bt));
            *b = bt.transposed();
        }
    }
}

/// Solve `X·T = B` in place for triangular `T` (`lower` names the triangle
/// read; the other is ignored): a forward substitution over block columns
/// for upper `T`, a backward one for lower. Each block of `TB` columns first
/// receives its GEMM update from all the columns solved before it, then the
/// in-block solve.
pub(crate) fn solve_right(t: View, lower: bool, unit: bool, b: &mut ViewMut) {
    let n = b.cols;
    for step in 0..n.div_ceil(TB) {
        let j0 = if lower { n.div_ceil(TB) - 1 - step } else { step } * TB;
        let j1 = n.min(j0 + TB);
        let (mut head, mut tail) = b.split_cols(if lower { j1 } else { j0 });
        let (solved, mut block, k0) = if lower {
            (tail.view(), head.sub(0, j0, head.rows, j1 - j0), j1)
        } else {
            (head.view(), tail.sub(0, 0, tail.rows, j1 - j0), 0)
        };
        kernel::gemm(-1.0, solved, t.sub(k0, j0, solved.cols, j1 - j0), 1.0, &mut block, false);
        solve_block(t.sub(j0, j0, j1 - j0, j1 - j0), lower, unit, &mut block);
    }
}

/// [`solve_right`] within one block, in axpy form: column `j` of `X` is
/// column `j` of `B` minus the solved columns times `T[·, j]`, over `T[j, j]`.
fn solve_block(t: View, lower: bool, unit: bool, x: &mut ViewMut) {
    let nb = x.cols;
    for step in 0..nb {
        let j = if lower { nb - 1 - step } else { step };
        for k in if lower { j + 1..nb } else { 0..j } {
            let f = t.at(k, j);
            let (xj, xk) = x.col_and(j, k);
            xj.iter_mut().zip(xk).for_each(|(x, y)| *x -= y * f);
        }
        if !unit {
            let d = t.at(j, j);
            x.col(j).iter_mut().for_each(|x| *x /= d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower_random(n: usize, seed: u64) -> Matrix {
        let mut l = Matrix::random(n, n, seed);
        l.tril_in_place();
        for i in 0..n {
            l[(i, i)] = 2.0 + l[(i, i)].abs(); // well conditioned
        }
        l
    }

    #[test]
    fn gemm_matches_reference() {
        let a = Matrix::random(4, 6, 1);
        let b = Matrix::random(6, 3, 2);
        let mut c = Matrix::zeros(4, 3);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&a.matmul_ref(&b)) < 1e-12);
    }

    #[test]
    fn gemm_transposes() {
        let a = Matrix::random(6, 4, 3);
        let b = Matrix::random(6, 3, 4);
        let mut c = Matrix::zeros(4, 3);
        gemm(Trans::Yes, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&a.transposed().matmul_ref(&b)) < 1e-12);

        let a2 = Matrix::random(4, 6, 5);
        let b2 = Matrix::random(3, 6, 6);
        let mut c2 = Matrix::zeros(4, 3);
        gemm(Trans::No, Trans::Yes, 1.0, &a2, &b2, 0.0, &mut c2);
        assert!(c2.max_abs_diff(&a2.matmul_ref(&b2.transposed())) < 1e-12);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = Matrix::random(3, 3, 7);
        let b = Matrix::random(3, 3, 8);
        let c0 = Matrix::random(3, 3, 9);
        let mut c = c0.clone();
        gemm(Trans::No, Trans::No, 2.0, &a, &b, -1.0, &mut c);
        let mut expect = a.matmul_ref(&b);
        for j in 0..3 {
            for i in 0..3 {
                expect[(i, j)] = 2.0 * expect[(i, j)] - c0[(i, j)];
            }
        }
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = Matrix::random(5, 3, 10);
        let mut c = Matrix::zeros(5, 5);
        syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut c);
        let expect = a.matmul_ref(&a.transposed());
        assert!(c.max_abs_diff(&expect) < 1e-12);
        // Transposed variant: C = AᵀA.
        let mut ct = Matrix::zeros(3, 3);
        syrk(Uplo::Upper, Trans::Yes, 1.0, &a, 0.0, &mut ct);
        assert!(ct.max_abs_diff(&a.transposed().matmul_ref(&a)) < 1e-12);
    }

    #[test]
    fn trsm_left_lower_solves() {
        let l = lower_random(5, 11);
        let x_true = Matrix::random(5, 3, 12);
        let b = l.matmul_ref(&x_true);
        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, Trans::No, false, 1.0, &l, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn trsm_left_lower_transposed() {
        let l = lower_random(5, 13);
        let x_true = Matrix::random(5, 2, 14);
        let b = l.transposed().matmul_ref(&x_true);
        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, Trans::Yes, false, 1.0, &l, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn trsm_right_lower_transposed() {
        // The Cholesky panel update: L21 = A21 · L11^{-T}, i.e. solve X·L11ᵀ = A21.
        let l = lower_random(4, 15);
        let x_true = Matrix::random(3, 4, 16);
        let b = x_true.matmul_ref(&l.transposed());
        let mut x = b.clone();
        trsm(Side::Right, Uplo::Lower, Trans::Yes, false, 1.0, &l, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn trsm_unit_diagonal() {
        let mut l = lower_random(4, 17);
        for i in 0..4 {
            l[(i, i)] = 123.0; // must be ignored under unit
        }
        let mut unit_l = l.clone();
        for i in 0..4 {
            unit_l[(i, i)] = 1.0;
        }
        let x_true = Matrix::random(4, 2, 18);
        let b = unit_l.matmul_ref(&x_true);
        let mut x = b.clone();
        trsm(Side::Left, Uplo::Lower, Trans::No, true, 1.0, &l, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn trsm_right_upper() {
        let mut u = Matrix::random(4, 4, 24);
        u.triu_in_place();
        for i in 0..4 {
            u[(i, i)] = 3.0 + u[(i, i)].abs();
        }
        let x_true = Matrix::random(2, 4, 25);
        let b = x_true.matmul_ref(&u);
        let mut x = b.clone();
        trsm(Side::Right, Uplo::Upper, Trans::No, false, 1.0, &u, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }
}
