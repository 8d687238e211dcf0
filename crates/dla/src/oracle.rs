//! Reference oracle for the blocked level-3 routines: the unblocked loops
//! these routines were before they moved onto the GEMM core, kept as the
//! thing to compare against, and the property tests that do so over shapes
//! crossing every block edge of the core, for both of its instantiations.

use proptest::prelude::*;

use crate::blas3::{gemm, syrk, trsm, Side, Trans, Uplo};
use crate::chol::{potrf, trtri, NotPositiveDefinite};
use crate::kernel::{self, View, ViewMut, KC, MR, NR};
use crate::matrix::Matrix;

/// The unblocked loops, one element of `op(A)` at a time.
mod reference {
    use super::*;

    fn op(a: &Matrix, ta: Trans, i: usize, k: usize) -> f64 {
        match ta {
            Trans::No => a[(i, k)],
            Trans::Yes => a[(k, i)],
        }
    }

    fn op_dims(a: &Matrix, ta: Trans) -> (usize, usize) {
        match ta {
            Trans::No => (a.rows(), a.cols()),
            Trans::Yes => (a.cols(), a.rows()),
        }
    }

    /// `β = 0` and `α = 0` overwrite, which the loops this was taken from
    /// did not do; everything else is theirs.
    fn scale(x: &mut Matrix, f: f64) {
        for v in x.data_mut() {
            *v = if f == 0.0 { 0.0 } else { *v * f };
        }
    }

    pub fn gemm(
        ta: Trans,
        tb: Trans,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
    ) {
        let (m, k) = op_dims(a, ta);
        let (_, n) = op_dims(b, tb);
        scale(c, beta);
        for j in 0..n {
            for p in 0..k {
                let bpj = alpha * op(b, tb, p, j);
                for i in 0..m {
                    c[(i, j)] += op(a, ta, i, p) * bpj;
                }
            }
        }
    }

    pub fn syrk(uplo: Uplo, ta: Trans, alpha: f64, a: &Matrix, beta: f64, c: &mut Matrix) {
        let (n, k) = op_dims(a, ta);
        for j in 0..n {
            let rows = if uplo == Uplo::Lower { j..n } else { 0..j + 1 };
            for i in rows {
                let mut s = 0.0;
                for l in 0..k {
                    s += op(a, ta, i, l) * op(a, ta, j, l);
                }
                let v = alpha * s + if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
                c[(i, j)] = v;
                c[(j, i)] = v;
            }
        }
    }

    pub fn trsm(
        side: Side,
        uplo: Uplo,
        ta: Trans,
        unit: bool,
        alpha: f64,
        a: &Matrix,
        b: &mut Matrix,
    ) {
        let n = a.rows();
        scale(b, alpha);
        let lower = matches!((uplo, ta), (Uplo::Lower, Trans::No) | (Uplo::Upper, Trans::Yes));
        let diag = |a: &Matrix, i: usize| if unit { 1.0 } else { a[(i, i)] };
        match side {
            Side::Left => {
                for j in 0..b.cols() {
                    if lower {
                        for i in 0..n {
                            let mut s = b[(i, j)];
                            for k in 0..i {
                                s -= op(a, ta, i, k) * b[(k, j)];
                            }
                            b[(i, j)] = s / diag(a, i);
                        }
                    } else {
                        for i in (0..n).rev() {
                            let mut s = b[(i, j)];
                            for k in (i + 1)..n {
                                s -= op(a, ta, i, k) * b[(k, j)];
                            }
                            b[(i, j)] = s / diag(a, i);
                        }
                    }
                }
            }
            Side::Right => {
                for i in 0..b.rows() {
                    if lower {
                        for j in (0..n).rev() {
                            let mut s = b[(i, j)];
                            for k in (j + 1)..n {
                                s -= b[(i, k)] * op(a, ta, k, j);
                            }
                            b[(i, j)] = s / diag(a, j);
                        }
                    } else {
                        for j in 0..n {
                            let mut s = b[(i, j)];
                            for k in 0..j {
                                s -= b[(i, k)] * op(a, ta, k, j);
                            }
                            b[(i, j)] = s / diag(a, j);
                        }
                    }
                }
            }
        }
    }

    pub fn potrf(a: &mut Matrix) -> Result<(), NotPositiveDefinite> {
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

    pub fn trtri(l: &mut Matrix) {
        let n = l.rows();
        let mut x = Matrix::zeros(n, n);
        for j in 0..n {
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
}

/// Extents on both sides of every block edge: the microkernel tile
/// (`MR`, `NR`), the in-block solve and factor widths (16, via 33), the
/// row block (`MC` = 128) and the `k` slice (`KC`), both via `KC + 1` = 257.
const DIMS: [usize; 11] = [0, 1, NR - 1, NR + 1, MR - 1, MR, MR + 1, 33, 64, 100, KC + 1];
const SCALARS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];
const TRANS: [Trans; 2] = [Trans::No, Trans::Yes];
const UPLOS: [Uplo; 2] = [Uplo::Lower, Uplo::Upper];
const SIDES: [Side; 2] = [Side::Left, Side::Right];

/// `op(A)` is `rows × cols`.
fn operand(t: Trans, rows: usize, cols: usize, seed: u64) -> Matrix {
    match t {
        Trans::No => Matrix::random(rows, cols, seed),
        Trans::Yes => Matrix::random(cols, rows, seed),
    }
}

/// A well-conditioned triangle: off-diagonal entries shrink with `n`, so the
/// solve does not amplify the rounding differences the tolerance allows.
/// The triangle that must not be read holds NaN.
fn triangle(n: usize, uplo: Uplo, seed: u64) -> Matrix {
    let mut t = Matrix::random(n, n, seed);
    for j in 0..n {
        for i in 0..n {
            let below = i > j;
            t[(i, j)] = if i == j {
                1.0 + t[(i, j)].abs()
            } else if below == (uplo == Uplo::Lower) {
                t[(i, j)] / n as f64
            } else {
                f64::NAN
            };
        }
    }
    t
}

fn assert_close(got: &Matrix, want: &Matrix, k: usize, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(got.data().iter().all(|x| x.is_finite()), "{what}: non-finite entry");
    let tol = 1e-13
        * (k as f64 + 8.0)
        * (1.0 + want.norm_fro() / (1.0 + want.data().len() as f64).sqrt());
    prop_assert!(
        got.max_abs_diff(want) <= tol,
        "{what}: off by {:e} (tolerance {tol:e})",
        got.max_abs_diff(want)
    );
    Ok(())
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// The core on whole matrices, through the chosen instantiation.
fn core_gemm(avx2: bool, t: (Trans, Trans), ab: (&Matrix, &Matrix), s: (f64, f64), c: &mut Matrix) {
    let (a, b) = (View::of(ab.0, t.0), View::of(ab.1, t.1));
    kernel::gemm_on(avx2, s.0, a, b, s.1, &mut ViewMut::of(c), false);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn gemm_matches_the_reference_in_both_instantiations(
        mi in 0..DIMS.len(), ni in 0..DIMS.len(), ki in 0..DIMS.len(),
        ta in 0..2usize, tb in 0..2usize, ai in 0..4usize, bi in 0..4usize, seed in 0u64..1000,
    ) {
        let (m, n, k) = (DIMS[mi], DIMS[ni], DIMS[ki]);
        let (ta, tb, alpha, beta) = (TRANS[ta], TRANS[tb], SCALARS[ai], SCALARS[bi]);
        let a = operand(ta, m, k, seed);
        let b = operand(tb, k, n, seed + 1);
        let c0 = Matrix::random(m, n, seed + 2);
        let mut want = c0.clone();
        reference::gemm(ta, tb, alpha, &a, &b, beta, &mut want);
        let mut public = c0.clone();
        gemm(ta, tb, alpha, &a, &b, beta, &mut public);
        assert_close(&public, &want, k, "gemm")?;
        let (mut base, mut wide) = (c0.clone(), c0.clone());
        core_gemm(false, (ta, tb), (&a, &b), (alpha, beta), &mut base);
        core_gemm(true, (ta, tb), (&a, &b), (alpha, beta), &mut wide);
        assert_close(&base, &want, k, "baseline gemm")?;
        prop_assert!(bits(&base) == bits(&wide), "instantiations differ in some bit");
        prop_assert!(bits(&public) == bits(&wide), "dispatch is not the avx2-if-detected path");
    }

    #[test]
    fn syrk_matches_the_reference_and_is_exactly_symmetric(
        ni in 0..DIMS.len(), ki in 0..DIMS.len(), ul in 0..2usize, ta in 0..2usize,
        ai in 0..4usize, bi in 0..4usize, seed in 0u64..1000,
    ) {
        let (n, k) = (DIMS[ni], DIMS[ki]);
        let (uplo, ta, alpha, beta) = (UPLOS[ul], TRANS[ta], SCALARS[ai], SCALARS[bi]);
        let a = operand(ta, n, k, seed);
        // Not symmetric on entry: only the `uplo` triangle may be read.
        let c0 = Matrix::random(n, n, seed + 1);
        let mut want = c0.clone();
        reference::syrk(uplo, ta, alpha, &a, beta, &mut want);
        let mut got = c0.clone();
        syrk(uplo, ta, alpha, &a, beta, &mut got);
        assert_close(&got, &want, k, "syrk")?;
        prop_assert!(bits(&got) == bits(&got.transposed()), "syrk left C asymmetric");
    }

    #[test]
    fn trsm_matches_the_reference_for_every_variant(
        ni in 0..DIMS.len(), mi in 0..DIMS.len(), variant in 0..16usize,
        ai in 0..4usize, seed in 0u64..1000,
    ) {
        let (n, m) = (DIMS[ni], DIMS[mi]);
        let (side, uplo) = (SIDES[variant & 1], UPLOS[(variant >> 1) & 1]);
        let (ta, unit, alpha) = (TRANS[(variant >> 2) & 1], variant >> 3 == 1, SCALARS[ai]);
        let mut t = triangle(n, uplo, seed);
        if unit {
            (0..n).for_each(|i| t[(i, i)] = f64::NAN); // implicit ones: never read
        }
        let b0 = match side {
            Side::Left => Matrix::random(n, m, seed + 1),
            Side::Right => Matrix::random(m, n, seed + 1),
        };
        let mut want = b0.clone();
        reference::trsm(side, uplo, ta, unit, alpha, &t, &mut want);
        let mut got = b0.clone();
        trsm(side, uplo, ta, unit, alpha, &t, &mut got);
        assert_close(&got, &want, n, "trsm")?;
    }

    #[test]
    fn potrf_and_trtri_match_the_reference(ni in 0..DIMS.len(), seed in 0u64..1000) {
        let n = DIMS[ni];
        let a = Matrix::random_spd(n, seed);
        let mut want = a.clone();
        reference::potrf(&mut want).expect("random_spd is positive definite");
        let mut l = a.clone();
        prop_assert!(potrf(&mut l).is_ok());
        assert_close(&l, &want, n, "potrf")?;
        prop_assert!((0..n).all(|j| (0..j).all(|i| l[(i, j)] == 0.0)), "upper triangle not zeroed");

        // The strict upper triangle of trtri's argument is not read.
        let mut want = l.clone();
        reference::trtri(&mut want);
        let mut inv = l.clone();
        (0..n).for_each(|j| (0..j).for_each(|i| inv[(i, j)] = f64::NAN));
        trtri(&mut inv);
        assert_close(&inv, &want, n, "trtri")?;
        prop_assert!((0..n).all(|j| (0..j).all(|i| inv[(i, j)] == 0.0)), "upper triangle not zero");
    }
}

#[test]
fn lower_only_core_agrees_bitwise_across_instantiations_on_the_lower_triangle() {
    if !kernel::avx2_detected() {
        println!("note: avx2 not detected on this host; only the baseline instantiation ran");
    }
    for (n, k) in [(MR + 1, 33), (33, KC + 1), (100, 64), (257, 9)] {
        let a = Matrix::random(n, k, 7);
        let c0 = Matrix::random(n, n, 8);
        let run = |avx2: bool, lower_only: bool| {
            let mut c = c0.clone();
            let av = View::of(&a, Trans::No);
            kernel::gemm_on(avx2, -1.0, av, av.t(), 1.0, &mut ViewMut::of(&mut c), lower_only);
            c
        };
        let (full, base, wide) = (run(false, false), run(false, true), run(true, true));
        for j in 0..n {
            for i in j..n {
                assert_eq!(base[(i, j)].to_bits(), full[(i, j)].to_bits(), "skipped a needed tile");
                assert_eq!(base[(i, j)].to_bits(), wide[(i, j)].to_bits(), "instantiations differ");
            }
        }
    }
}

#[test]
fn beta_zero_overwrites_and_nan_in_an_operand_propagates() {
    // One shape on the direct path, one on the blocked path.
    for n in [4, 40] {
        let a = Matrix::random(n, n, 1);
        let b = Matrix::random(n, n, 2);
        let nan = Matrix::from_column_major(n, n, vec![f64::NAN; n * n]);

        let mut c = nan.clone();
        gemm(Trans::No, Trans::Yes, 1.0, &a, &b, 0.0, &mut c);
        let mut want = Matrix::zeros(n, n);
        reference::gemm(Trans::No, Trans::Yes, 1.0, &a, &b, 0.0, &mut want);
        assert!(c.max_abs_diff(&want) < 1e-12, "gemm with β = 0 must not read C (n = {n})");

        let mut c = nan.clone();
        syrk(Uplo::Lower, Trans::No, -1.0, &a, 0.0, &mut c);
        let mut want = Matrix::zeros(n, n);
        reference::syrk(Uplo::Lower, Trans::No, -1.0, &a, 0.0, &mut want);
        assert!(c.max_abs_diff(&want) < 1e-12, "syrk with β = 0 must not read C (n = {n})");

        let mut x = nan.clone();
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::Yes,
            false,
            0.0,
            &triangle(n, Uplo::Lower, 3),
            &mut x,
        );
        assert_eq!(x, Matrix::zeros(n, n), "trsm with α = 0 must give X = 0 (n = {n})");

        // A NaN in A meets only zeros in B and must still reach C.
        let mut a_nan = a.clone();
        a_nan[(1, 2)] = f64::NAN;
        let mut c = Matrix::zeros(n, n);
        gemm(Trans::No, Trans::No, 1.0, &a_nan, &Matrix::zeros(n, n), 1.0, &mut c);
        assert!((0..n).all(|j| c[(1, j)].is_nan()), "NaN·0 was swallowed (n = {n})");
        assert!((0..n).all(|j| c[(0, j)] == 0.0));
    }
}

#[test]
fn blocked_potrf_reports_the_global_pivot() {
    // Three and a half blocks of the factor width; a negative diagonal entry
    // fails exactly at its own index, wherever in its block it sits.
    let n = 56;
    for bad in [16, 21, 31, 48, n - 1] {
        let mut a = Matrix::random_spd(n, 5);
        a[(bad, bad)] = -1.0;
        let mut r = a.clone();
        assert_eq!(reference::potrf(&mut r), Err(NotPositiveDefinite { pivot: bad }));
        assert_eq!(potrf(&mut a), Err(NotPositiveDefinite { pivot: bad }));
    }
}
