//! Level-3 BLAS: `gemm`, `syrk`, `trsm`.
//!
//! Plain loops over columns, written to be checked by eye: no sweep runs
//! them (a kernel's simulated time comes from `critter-machine`), only runs
//! that verify a factorization and the tests do. They keep the BLAS
//! contracts the distributed algorithms rely on: `β = 0` assigns `C`
//! without reading it, `trsm` with `α = 0` gives zero, no shortcut skips a
//! zero of `B` (so a NaN in `A` always reaches `C`), and `syrk` leaves `C`
//! exactly symmetric.

use std::borrow::Cow;

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

/// `op(a)`: `a` as stored, or a transposed copy of it.
fn op(a: &Matrix, t: Trans) -> Cow<'_, Matrix> {
    match t {
        Trans::No => Cow::Borrowed(a),
        Trans::Yes => Cow::Owned(a.transposed()),
    }
}

/// `x ← f·x`, where `f = 0` assigns: whatever `x` held, NaN included, is
/// not read (the BLAS convention).
fn scale(x: &mut [f64], f: f64) {
    if f == 0.0 {
        x.fill(0.0);
    } else if f != 1.0 {
        x.iter_mut().for_each(|v| *v *= f);
    }
}

/// General matrix multiply: `C ← α·op(A)·op(B) + β·C`. With `β = 0`, `C` is
/// assigned, not scaled: what it held before (NaN included) is not read.
pub fn gemm(ta: Trans, tb: Trans, alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let (a, b) = (op(a, ta), op(b, tb));
    assert_eq!(a.cols(), b.rows(), "gemm inner dimensions disagree: {} vs {}", a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows(), "gemm C rows");
    assert_eq!(c.cols(), b.cols(), "gemm C cols");
    scale(c.data_mut(), beta);
    if alpha == 0.0 {
        return;
    }
    // The `jki` loop: column `j` of `C` gathers an axpy of each column of `A`.
    for j in 0..c.cols() {
        let cj = c.col_mut(j);
        for p in 0..a.cols() {
            let s = alpha * b[(p, j)];
            cj.iter_mut().zip(a.col(p)).for_each(|(x, y)| *x += y * s);
        }
    }
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
    let a = op(a, ta);
    let n = a.rows();
    assert!(c.rows() == n && c.cols() == n, "syrk C must be n×n");
    // One computation, on the lower triangle; the rest is its mirror image.
    if uplo == Uplo::Upper {
        mirror(c, Uplo::Upper);
    }
    for j in 0..n {
        let cj = &mut c.col_mut(j)[j..];
        scale(cj, beta);
        if alpha == 0.0 {
            continue;
        }
        for p in 0..a.cols() {
            let s = alpha * a[(j, p)];
            cj.iter_mut().zip(&a.col(p)[j..]).for_each(|(x, y)| *x += y * s);
        }
    }
    mirror(c, Uplo::Lower);
}

/// Triangular solve with multiple right-hand sides:
/// `op(A)·X = α·B` (Left) or `X·op(A) = α·B` (Right); `B` is overwritten by `X`.
/// `unit` marks an implicit unit diagonal. `α = 0` gives `X = 0` whatever
/// `B` held. Only the `uplo` triangle of `A` is read.
pub fn trsm(side: Side, uplo: Uplo, ta: Trans, unit: bool, alpha: f64, a: &Matrix, b: &mut Matrix) {
    assert_eq!(a.rows(), a.cols(), "triangular matrix must be square");
    let n = a.rows();
    match side {
        Side::Left => assert_eq!(b.rows(), n, "trsm left dimension"),
        Side::Right => assert_eq!(b.cols(), n, "trsm right dimension"),
    }
    scale(b.data_mut(), alpha);
    if alpha == 0.0 {
        return;
    }
    let t = op(a, ta);
    // The triangle of `op(A)` that holds `A`'s `uplo` triangle.
    let lower = (uplo == Uplo::Lower) == (ta == Trans::No);
    let diag = |k: usize| if unit { 1.0 } else { t[(k, k)] };
    // Substitution order: first to last unknown for a lower `T·X = B` (and
    // an upper `X·T = B`), last to first otherwise.
    let order = |forward: bool| (0..n).map(move |s| if forward { s } else { n - 1 - s });
    match side {
        // Column by column of `X`: solve `xₖ`, then take `xₖ·T[·, k]` from the
        // unknowns after it.
        Side::Left => {
            for j in 0..b.cols() {
                let x = b.col_mut(j);
                for k in order(lower) {
                    x[k] /= diag(k);
                    let rows = if lower { k + 1..n } else { 0..k };
                    let xk = x[k];
                    x[rows.clone()].iter_mut().zip(&t.col(k)[rows]).for_each(|(v, y)| *v -= xk * y);
                }
            }
        }
        // Column `j` of `X` is column `j` of `B`, minus the solved columns
        // times `T[·, j]`, over `T[j, j]`.
        Side::Right => {
            for j in order(!lower) {
                for k in if lower { j + 1..n } else { 0..j } {
                    let f = t[(k, j)];
                    for i in 0..b.rows() {
                        b[(i, j)] -= b[(i, k)] * f;
                    }
                }
                let d = diag(j);
                b.col_mut(j).iter_mut().for_each(|x| *x /= d);
            }
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

    fn nan(rows: usize, cols: usize) -> Matrix {
        Matrix::from_column_major(rows, cols, vec![f64::NAN; rows * cols])
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn beta_zero_overwrites_a_nan_filled_c() {
        let a = Matrix::random(5, 4, 30);
        let b = Matrix::random(3, 4, 31);
        let mut c = nan(5, 3);
        gemm(Trans::No, Trans::Yes, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&a.matmul_ref(&b.transposed())) < 1e-12);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut c = nan(5, 5);
            syrk(uplo, Trans::No, -1.0, &a, 0.0, &mut c);
            let mut want = a.matmul_ref(&a.transposed());
            want.data_mut().iter_mut().for_each(|x| *x = -*x);
            assert!(c.max_abs_diff(&want) < 1e-12, "syrk {uplo:?} read C under β = 0");
        }
    }

    #[test]
    fn a_nan_in_a_reaches_c() {
        // The NaN meets only zeros of B: no shortcut may skip them.
        let mut a = Matrix::random(4, 4, 32);
        a[(1, 2)] = f64::NAN;
        let mut c = Matrix::zeros(4, 4);
        gemm(Trans::No, Trans::No, 1.0, &a, &Matrix::zeros(4, 4), 1.0, &mut c);
        assert!((0..4).all(|j| c[(1, j)].is_nan()), "NaN·0 was swallowed");
        assert!((0..4).all(|j| c[(0, j)] == 0.0));
    }

    #[test]
    fn trsm_with_alpha_zero_zeroes_a_nan_filled_b() {
        let l = lower_random(4, 33);
        for side in [Side::Left, Side::Right] {
            let mut x = nan(4, 4);
            trsm(side, Uplo::Lower, Trans::Yes, false, 0.0, &l, &mut x);
            assert_eq!(x, Matrix::zeros(4, 4), "{side:?}");
        }
    }

    #[test]
    fn syrk_is_bit_symmetric_for_both_uplo() {
        for (uplo, ta) in [(Uplo::Lower, Trans::No), (Uplo::Upper, Trans::Yes)] {
            let a = Matrix::random(9, 9, 34);
            // Not symmetric on entry: only the `uplo` triangle may be read.
            let mut c = Matrix::random(9, 9, 35);
            syrk(uplo, ta, 0.5, &a, -1.0, &mut c);
            assert_eq!(bits(&c), bits(&c.transposed()), "{uplo:?}");
        }
    }

    #[test]
    fn trsm_solves_every_variant_reading_one_triangle() {
        let (n, m) = (6, 3);
        for v in 0..16 {
            let (side, uplo) =
                ([Side::Left, Side::Right][v & 1], [Uplo::Lower, Uplo::Upper][(v >> 1) & 1]);
            let (ta, unit) = ([Trans::No, Trans::Yes][(v >> 2) & 1], v >> 3 == 1);
            let mut t = lower_random(n, 36);
            if uplo == Uplo::Upper {
                t = t.transposed();
            }
            if unit {
                (0..n).for_each(|i| t[(i, i)] = 1.0);
            }
            let op_t = if ta == Trans::Yes { t.transposed() } else { t.clone() };
            let x_true = Matrix::random(m, n, 37);
            let (x_true, mut x) = match side {
                Side::Left => (x_true.transposed(), op_t.matmul_ref(&x_true.transposed())),
                Side::Right => (x_true.clone(), x_true.matmul_ref(&op_t)),
            };
            // The other triangle, and an implicit unit diagonal, are never read.
            for j in 0..n {
                for i in 0..n {
                    let other = if uplo == Uplo::Lower { i < j } else { i > j };
                    if other || unit && i == j {
                        t[(i, j)] = f64::NAN;
                    }
                }
            }
            trsm(side, uplo, ta, unit, 1.0, &t, &mut x);
            assert!(x.max_abs_diff(&x_true) < 1e-10, "{side:?} {uplo:?} {ta:?} unit={unit}");
        }
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
