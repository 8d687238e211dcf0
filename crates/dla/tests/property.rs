//! Property-based tests of the dense linear algebra kernels: algebraic
//! identities that must hold for random inputs.

use critter_dla::{gemm, geqrf, ormqr, potrf, syrk, tpqrt, trsm, trtri, Matrix, Side, Trans, Uplo};
use proptest::prelude::*;

fn well_conditioned_lower(n: usize, seed: u64) -> Matrix {
    let mut l = Matrix::random(n, n, seed);
    l.tril_in_place();
    for i in 0..n {
        l[(i, i)] = 2.0 + l[(i, i)].abs();
    }
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_is_linear_in_alpha(n in 1usize..10, seed in 0u64..500, alpha in -3.0f64..3.0) {
        let a = Matrix::random(n, n, seed);
        let b = Matrix::random(n, n, seed + 1);
        let mut c1 = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::No, alpha, &a, &b, 0.0, &mut c1);
        let mut c2 = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c2);
        for x in c2.data_mut() {
            *x *= alpha;
        }
        prop_assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    #[test]
    fn gemm_transpose_identity(m in 1usize..8, n in 1usize..8, k in 1usize..8, seed in 0u64..500) {
        // (A·B)ᵀ = Bᵀ·Aᵀ.
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 7);
        let mut ab = Matrix::zeros(m, n);
        gemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut ab);
        let mut btat = Matrix::zeros(n, m);
        gemm(Trans::Yes, Trans::Yes, 1.0, &b, &a, 0.0, &mut btat);
        prop_assert!(ab.transposed().max_abs_diff(&btat) < 1e-10);
    }

    #[test]
    fn trsm_left_inverts_a_lower_product(n in 1usize..10, cols in 1usize..6, seed in 0u64..500) {
        // B = L·X by gemm on an explicitly lower-triangular L; trsm recovers X.
        let l = well_conditioned_lower(n, seed);
        let x0 = Matrix::random(n, cols, seed + 13);
        let mut x = Matrix::zeros(n, cols);
        gemm(Trans::No, Trans::No, 1.0, &l, &x0, 0.0, &mut x);
        trsm(Side::Left, Uplo::Lower, Trans::No, false, 1.0, &l, &mut x);
        prop_assert!(x.max_abs_diff(&x0) < 1e-8);
    }

    #[test]
    fn trsm_right_inverts_a_lower_product(n in 1usize..10, rows in 1usize..6, seed in 0u64..500) {
        // B = X·Lᵀ by gemm; trsm recovers X.
        let l = well_conditioned_lower(n, seed);
        let x0 = Matrix::random(rows, n, seed + 17);
        let mut x = Matrix::zeros(rows, n);
        gemm(Trans::No, Trans::Yes, 1.0, &x0, &l, 0.0, &mut x);
        trsm(Side::Right, Uplo::Lower, Trans::Yes, false, 1.0, &l, &mut x);
        prop_assert!(x.max_abs_diff(&x0) < 1e-8);
    }

    #[test]
    fn syrk_produces_positive_semidefinite_diagonal(n in 1usize..10, k in 1usize..10, seed in 0u64..500) {
        let a = Matrix::random(n, k, seed);
        let mut c = Matrix::zeros(n, n);
        syrk(Uplo::Lower, Trans::No, 1.0, &a, 0.0, &mut c);
        for i in 0..n {
            prop_assert!(c[(i, i)] >= -1e-12, "A·Aᵀ diagonal must be nonnegative");
            for j in 0..n {
                prop_assert!((c[(i, j)] - c[(j, i)]).abs() < 1e-10, "must stay symmetric");
            }
        }
    }

    #[test]
    fn potrf_then_trtri_gives_inverse_factor(n in 1usize..10, seed in 0u64..500) {
        // L⁻¹·A·L⁻ᵀ = I for A = L·Lᵀ.
        let a = Matrix::random_spd(n, seed);
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        let mut linv = l.clone();
        trtri(&mut linv);
        let t = linv.matmul_ref(&a).matmul_ref(&linv.transposed());
        prop_assert!(t.max_abs_diff(&Matrix::identity(n)) < 1e-7);
    }

    #[test]
    fn qr_preserves_column_norms(m in 2usize..14, seed in 0u64..500) {
        // Qᵀ is orthogonal: applying it preserves the Frobenius norm.
        let n = (m / 2).max(1);
        let a = Matrix::random(m, n, seed);
        let mut f = Matrix::random(m, n, seed + 23);
        let tau = geqrf(&mut f);
        let mut c = a.clone();
        ormqr(Trans::Yes, &f, &tau, &mut c);
        prop_assert!((c.norm_fro() - a.norm_fro()).abs() < 1e-9 * (1.0 + a.norm_fro()));
    }

    #[test]
    fn tpqrt_gram_invariant(n in 1usize..8, m in 1usize..10, seed in 0u64..500) {
        // The Gram matrix RᵀR of the combined factor equals R₁ᵀR₁ + BᵀB.
        let mut r1 = Matrix::random(n, n, seed);
        r1.triu_in_place();
        let b = Matrix::random(m, n, seed + 31);
        let mut expected = r1.transposed().matmul_ref(&r1);
        let btb = b.transposed().matmul_ref(&b);
        for j in 0..n {
            for i in 0..n {
                expected[(i, j)] += btb[(i, j)];
            }
        }
        let mut r = r1.clone();
        let mut v = b.clone();
        tpqrt(&mut r, &mut v);
        let mut rt = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..=j {
                rt[(i, j)] = r[(i, j)];
            }
        }
        let g = rt.transposed().matmul_ref(&rt);
        prop_assert!(g.max_abs_diff(&expected) < 1e-7 * (1.0 + expected.norm_fro()));
    }
}
