//! Cholesky factorization (`potrf`) and triangular inversion (`trtri`).

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

/// Lower Cholesky factorization in place: on success the lower triangle of
/// `a` holds `L` with `A = L·Lᵀ`; the strict upper triangle is zeroed. On
/// failure the error names the first pivot that is not positive.
///
/// The unblocked inner-product form: column `j` of `L` is its diagonal
/// entry, then the entries below it, each from the columns before it.
pub fn potrf(a: &mut Matrix) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.rows(), a.cols(), "potrf requires a square matrix");
    let n = a.rows();
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= a[(j, k)] * a[(j, k)];
        }
        if d <= 0.0 {
            return Err(NotPositiveDefinite { pivot: j });
        }
        let d = d.sqrt();
        a[(j, j)] = d;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            a[(i, j)] = s / d;
        }
    }
    a.tril_in_place();
    Ok(())
}

/// Invert a lower-triangular matrix in place (non-unit diagonal). The strict
/// upper triangle is ignored on entry and zero on return.
///
/// Column `j` of `L⁻¹` solves `L·x = eⱼ` by forward substitution, in the
/// inner-product form; the inverse is built beside `L` and replaces it.
pub fn trtri(l: &mut Matrix) {
    assert_eq!(l.rows(), l.cols(), "trtri requires a square matrix");
    let n = l.rows();
    let mut x = Matrix::zeros(n, n);
    for j in 0..n {
        assert!(l[(j, j)] != 0.0, "singular triangular matrix (zero at {j})");
        x[(j, j)] = 1.0 / l[(j, j)];
        for i in (j + 1)..n {
            let mut s = 0.0;
            for k in j..i {
                s += l[(i, k)] * x[(k, j)];
            }
            x[(i, j)] = -s / l[(i, i)];
        }
    }
    *l = x;
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

    #[test]
    fn potrf_reports_the_failing_pivot() {
        // The first 20 leading minors are positive, the 21st is not.
        let mut a = Matrix::random_spd(40, 5);
        a[(20, 20)] = -1.0;
        assert_eq!(potrf(&mut a), Err(NotPositiveDefinite { pivot: 20 }));
    }

    #[test]
    fn trtri_leaves_its_strict_upper_triangle_zero() {
        let mut l = Matrix::random_spd(7, 3);
        potrf(&mut l).unwrap();
        let mut linv = l.clone();
        (0..7).for_each(|j| (0..j).for_each(|i| linv[(i, j)] = f64::NAN));
        trtri(&mut linv);
        assert!((0..7).all(|j| (0..j).all(|i| linv[(i, j)] == 0.0)));
        assert!(l.matmul_ref(&linv).max_abs_diff(&Matrix::identity(7)) < 1e-10);
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
