//! Cholesky factorization (`potrf`) and triangular inversion (`trtri`).

use crate::blas3::{solve_right, Trans};
use crate::kernel::{self, View, ViewMut};
use crate::matrix::Matrix;

/// Error raised when `potrf` encounters a non-positive pivot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the failing pivot.
    pub pivot: usize,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Columns factored together by [`potrf`]: wide enough that the GEMM update
/// of a block column dominates its unblocked diagonal block, narrow enough
/// that the panel solve below the diagonal is a single in-block solve.
const PB: usize = 16;
/// Order at or below which [`trtri`] inverts by plain substitution rather
/// than splitting in two.
const TRTRI_BASE: usize = 16;

/// Lower Cholesky factorization in place: on success the lower triangle of
/// `a` holds `L` with `A = L·Lᵀ`; the strict upper triangle is zeroed.
///
/// Blocked, left-looking: each block of `PB` columns first receives the GEMM
/// update from every column already factored (on and below its diagonal
/// only), then its diagonal block is factored unblocked and the rows below
/// it are solved against that block's transpose.
pub fn potrf(a: &mut Matrix) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.rows(), a.cols(), "potrf requires a square matrix");
    let n = a.rows();
    let mut full = ViewMut::of(a);
    for j0 in (0..n).step_by(PB) {
        let nb = PB.min(n - j0);
        let (done, mut rest) = full.split_cols(j0);
        let mut panel = rest.sub(j0, 0, n - j0, nb);
        let l = done.view().sub(j0, 0, n - j0, j0);
        kernel::gemm(-1.0, l, l.sub(0, 0, nb, j0).t(), 1.0, &mut panel, true);
        let fail = |e: NotPositiveDefinite| NotPositiveDefinite { pivot: j0 + e.pivot };
        if j0 + nb == n {
            potrf_unblocked(&mut panel).map_err(fail)?;
            break;
        }
        // The rows below the diagonal block share its columns, so they are
        // solved against a copy of it.
        let mut diag = panel.view().sub(0, 0, nb, nb).to_matrix();
        potrf_unblocked(&mut ViewMut::of(&mut diag)).map_err(fail)?;
        for j in 0..nb {
            panel.col(j)[..nb].copy_from_slice(diag.col(j));
        }
        let mut below = panel.sub(nb, 0, n - j0 - nb, nb);
        solve_right(View::of(&diag, Trans::Yes), false, false, &mut below);
    }
    a.tril_in_place();
    Ok(())
}

/// [`potrf`] on one diagonal block: the unblocked, inner-product form. Its
/// loops are too short for column slices to pay for themselves.
fn potrf_unblocked(a: &mut ViewMut) -> Result<(), NotPositiveDefinite> {
    let n = a.rows;
    for j in 0..n {
        let mut d = *a.at(j, j);
        for k in 0..j {
            d -= *a.at(j, k) * *a.at(j, k);
        }
        if d <= 0.0 {
            return Err(NotPositiveDefinite { pivot: j });
        }
        let d = d.sqrt();
        *a.at(j, j) = d;
        for i in (j + 1)..n {
            let mut s = *a.at(i, j);
            for k in 0..j {
                s -= *a.at(i, k) * *a.at(j, k);
            }
            *a.at(i, j) = s / d;
        }
    }
    Ok(())
}

/// Invert a lower-triangular matrix in place (non-unit diagonal). The strict
/// upper triangle is ignored on entry and zero on return.
///
/// Recursive, through GEMM: with `L = [L₁₁ 0; L₂₁ L₂₂]`, the inverse is
/// `[L₁₁⁻¹ 0; −L₂₂⁻¹·L₂₁·L₁₁⁻¹ L₂₂⁻¹]`.
pub fn trtri(l: &mut Matrix) {
    assert_eq!(l.rows(), l.cols(), "trtri requires a square matrix");
    for j in 0..l.rows() {
        assert!(l[(j, j)] != 0.0, "singular triangular matrix (zero at {j})");
    }
    invert_lower(&mut ViewMut::of(l));
}

/// [`trtri`] on a square block. The strict upper triangle is written, not
/// read: the halves are multiplied as full matrices, so each must come back
/// with the zeros its inverse has there.
fn invert_lower(l: &mut ViewMut) {
    let n = l.rows;
    if n <= TRTRI_BASE {
        return invert_lower_unblocked(l);
    }
    let (n1, n2) = (n / 2, n - n / 2);
    let (mut left, mut right) = l.split_cols(n1);
    right.sub(0, 0, n1, n2).scale(0.0);
    invert_lower(&mut left.sub(0, 0, n1, n1));
    invert_lower(&mut right.sub(n1, 0, n2, n2));
    let mut t = Matrix::zeros(n2, n1);
    let l21 = left.view().sub(n1, 0, n2, n1);
    kernel::gemm(1.0, l21, left.view().sub(0, 0, n1, n1), 0.0, &mut ViewMut::of(&mut t), false);
    let l22 = right.view().sub(n1, 0, n2, n2);
    kernel::gemm(-1.0, l22, View::of(&t, Trans::No), 0.0, &mut left.sub(n1, 0, n2, n1), false);
}

/// Column `j` of `L⁻¹` solves `L·x = eⱼ` by forward substitution, in the
/// unblocked inner-product form; the inverse is built beside `L` and copied
/// over it.
fn invert_lower_unblocked(l: &mut ViewMut) {
    let n = l.rows;
    let mut x = Matrix::zeros(n, n);
    for j in 0..n {
        x[(j, j)] = 1.0 / *l.at(j, j);
        for i in (j + 1)..n {
            let mut s = 0.0;
            for k in j..i {
                s += *l.at(i, k) * x[(k, j)];
            }
            x[(i, j)] = -s / *l.at(i, i);
        }
    }
    for j in 0..n {
        l.col(j).copy_from_slice(x.col(j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn potrf_reconstructs_spd() {
        let a = Matrix::random_spd(8, 1);
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        let recon = l.matmul_ref(&l.transposed());
        assert!(recon.max_abs_diff(&a) < 1e-9 * a.norm_fro());
        // Upper triangle must be zeroed.
        assert_eq!(l[(0, 7)], 0.0);
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::identity(3);
        a[(1, 1)] = -1.0;
        assert_eq!(potrf(&mut a), Err(NotPositiveDefinite { pivot: 1 }));
    }

    #[test]
    fn potrf_1x1() {
        let mut a = Matrix::from_column_major(1, 1, vec![9.0]);
        potrf(&mut a).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
    }

    #[test]
    fn trtri_inverts() {
        let a = Matrix::random_spd(6, 2);
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        let mut linv = l.clone();
        trtri(&mut linv);
        let prod = l.matmul_ref(&linv);
        assert!(prod.max_abs_diff(&Matrix::identity(6)) < 1e-10);
        // Inverse of lower triangular stays lower triangular.
        assert_eq!(linv[(0, 5)], 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_potrf_roundtrip(n in 1usize..12, seed in 0u64..1000) {
            let a = Matrix::random_spd(n, seed);
            let mut l = a.clone();
            prop_assert!(potrf(&mut l).is_ok());
            let recon = l.matmul_ref(&l.transposed());
            prop_assert!(recon.max_abs_diff(&a) < 1e-8 * (1.0 + a.norm_fro()));
        }

        #[test]
        fn prop_trtri_identity(n in 1usize..10, seed in 0u64..1000) {
            let a = Matrix::random_spd(n, seed);
            let mut l = a.clone();
            potrf(&mut l).unwrap();
            let mut linv = l.clone();
            trtri(&mut linv);
            let prod = linv.matmul_ref(&l);
            prop_assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-8);
        }
    }
}
