//! The one GEMM core under every level-3 routine of this crate.
//!
//! `C ← α·A·B + β·C` over strided operand views: a transposed operand is the
//! same view with its strides swapped, so no routine branches per element on
//! [`Trans`]. The flops land in one `MR×NR` register-blocked microkernel,
//! [`micro`], written once in plain Rust over fixed-size accumulator arrays
//! and compiled twice — under `avx2` (picked at run time on x86-64 hosts
//! that have it) and for the baseline target. Neither instantiation uses a
//! fused multiply-add: both perform the same IEEE operations in the same
//! order per element of `C`, so their results are bit-identical on every
//! host (the `oracle` tests compare them with `to_bits`). DESIGN.md §2.1
//! records how the block constants and the small-shape cut-off were picked.

use crate::blas3::Trans;
use crate::matrix::Matrix;

/// Rows of the microkernel's accumulator tile: two 4-lane vectors of `C`
/// down a column, the direction in which `A` and `C` are contiguous.
pub(crate) const MR: usize = 8;
/// Columns of the accumulator tile: `MR·NR/4` = 8 vector accumulators, half
/// of the 16 `ymm` registers, leaving room for the `A` column and a
/// broadcast `B` value.
pub(crate) const NR: usize = 4;
/// Depth of one pass over `k`: an `MR×KC` strip of `A` (16 KiB) and a
/// `KC×NR` panel of `B` (8 KiB, the most the staging buffer holds) stay in L1.
pub(crate) const KC: usize = 256;
/// Rows of `A` kept hot across the sweep over `C`'s columns: `MC×KC` doubles
/// (256 KiB) fit a quarter of the smallest L2 this runs on.
const MC: usize = 128;
/// Products of at most this many multiply-adds take the direct loop: below
/// it the panel staging and tile write-back cost more than they save.
const SMALL: usize = 12 * 12 * 12;

/// A read-only strided matrix view: element `(i, j)` is `data[i·rs + j·cs]`.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    rs: usize,
    cs: usize,
}

impl<'a> View<'a> {
    /// `op(m)`: the matrix as stored, or its transpose by swapping strides.
    pub(crate) fn of(m: &'a Matrix, t: Trans) -> Self {
        let v = View { data: m.data(), rows: m.rows(), cols: m.cols(), rs: 1, cs: m.rows() };
        match t {
            Trans::No => v,
            Trans::Yes => v.t(),
        }
    }

    /// The transposed view.
    pub(crate) fn t(self) -> Self {
        View { rows: self.cols, cols: self.rows, rs: self.cs, cs: self.rs, ..self }
    }

    /// The `r × c` block starting at `(i0, j0)`.
    pub(crate) fn sub(self, i0: usize, j0: usize, r: usize, c: usize) -> Self {
        assert!(i0 + r <= self.rows && j0 + c <= self.cols, "sub-view out of bounds");
        let data = self.data.get(i0 * self.rs + j0 * self.cs..).unwrap_or(&[]);
        View { data, rows: r, cols: c, ..self }
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }

    /// Column `j` of a view with unit row stride.
    #[inline(always)]
    pub(crate) fn col(&self, j: usize) -> &'a [f64] {
        debug_assert_eq!(self.rs, 1, "columns of this view are not contiguous");
        if self.rows == 0 {
            return &[];
        }
        &self.data[j * self.cs..][..self.rows]
    }

    /// A column-major copy. A view whose columns are not contiguous is moved
    /// in square tiles, so that neither its strided side nor the copy's
    /// contiguous side misses the cache on every element.
    pub(crate) fn to_matrix(self) -> Matrix {
        const T: usize = 8;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = vec![0.0; rows * cols];
        if self.rs == 1 {
            for (j, col) in out.chunks_exact_mut(rows.max(1)).enumerate() {
                col.copy_from_slice(self.col(j));
            }
        } else {
            for j0 in (0..cols).step_by(T) {
                for i0 in (0..rows).step_by(T) {
                    for j in j0..cols.min(j0 + T) {
                        let col = &mut out[j * rows..][i0..rows.min(i0 + T)];
                        for (i, x) in col.iter_mut().enumerate() {
                            *x = self.at(i0 + i, j);
                        }
                    }
                }
            }
        }
        Matrix::from_column_major(rows, cols, out)
    }
}

/// A mutable column-major block: element `(i, j)` is `data[i + j·ld]`, and
/// `data` ends with the block's last element.
pub(crate) struct ViewMut<'a> {
    data: &'a mut [f64],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    ld: usize,
}

impl<'a> ViewMut<'a> {
    fn new(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        let len = if rows == 0 || cols == 0 { 0 } else { (cols - 1) * ld + rows };
        ViewMut { data: &mut data[..len], rows, cols, ld }
    }

    /// The whole of `m`.
    pub(crate) fn of(m: &'a mut Matrix) -> Self {
        let (rows, cols) = (m.rows(), m.cols());
        ViewMut::new(m.data_mut(), rows, cols, rows)
    }

    /// The block read-only.
    pub(crate) fn view(&self) -> View<'_> {
        View { data: self.data, rows: self.rows, cols: self.cols, rs: 1, cs: self.ld }
    }

    /// The `r × c` block starting at `(i0, j0)`.
    pub(crate) fn sub(&mut self, i0: usize, j0: usize, r: usize, c: usize) -> ViewMut<'_> {
        assert!(i0 + r <= self.rows && j0 + c <= self.cols, "sub-block out of bounds");
        let data = self.data.get_mut(j0 * self.ld + i0..).unwrap_or(&mut []);
        ViewMut::new(data, r, c, self.ld)
    }

    /// Columns `..j` and `j..` as two disjoint blocks.
    pub(crate) fn split_cols(&mut self, j: usize) -> (ViewMut<'_>, ViewMut<'_>) {
        assert!(j <= self.cols, "split past the last column");
        let (left, right) = self.data.split_at_mut((j * self.ld).min(self.data.len()));
        (
            ViewMut::new(left, self.rows, j, self.ld),
            ViewMut::new(right, self.rows, self.cols - j, self.ld),
        )
    }

    /// Column `j`.
    #[inline(always)]
    pub(crate) fn col(&mut self, j: usize) -> &mut [f64] {
        if self.rows == 0 {
            return &mut [];
        }
        &mut self.data[j * self.ld..][..self.rows]
    }

    /// Element `(i, j)`.
    #[inline(always)]
    pub(crate) fn at(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.data[j * self.ld + i]
    }

    /// Column `j` mutably beside column `k ≠ j`.
    #[inline(always)]
    pub(crate) fn col_and(&mut self, j: usize, k: usize) -> (&mut [f64], &[f64]) {
        let (rows, ld) = (self.rows, self.ld);
        let (lo, hi) = self.data.split_at_mut(j.max(k) * ld);
        let (lo, hi) = (&mut lo[j.min(k) * ld..][..rows], &mut hi[..rows]);
        if j < k {
            (lo, hi)
        } else {
            (hi, lo)
        }
    }

    /// `C ← β·C`, where `β = 0` assigns: whatever `C` held, NaN included, is
    /// not read (the BLAS convention).
    pub(crate) fn scale(&mut self, beta: f64) {
        if beta == 1.0 {
            return;
        }
        for j in 0..self.cols {
            let col = self.col(j);
            if beta == 0.0 {
                col.fill(0.0);
            } else {
                col.iter_mut().for_each(|x| *x *= beta);
            }
        }
    }
}

/// Whether this host runs the `avx2` instantiation.
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// `C ← α·A·B + β·C`. With `lower_only`, tiles of `C` that lie wholly above
/// its diagonal may be left at `β·C`: the caller reads the lower triangle only.
pub(crate) fn gemm(alpha: f64, a: View, b: View, beta: f64, c: &mut ViewMut, lower_only: bool) {
    gemm_on(true, alpha, a, b, beta, c, lower_only)
}

/// [`gemm`], with the `avx2` instantiation used only if `allow_avx2` (and the
/// host has it): the entry point through which tests reach both.
pub(crate) fn gemm_on(
    allow_avx2: bool,
    alpha: f64,
    a: View,
    b: View,
    beta: f64,
    c: &mut ViewMut,
    lower_only: bool,
) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    assert!(a.rows == m && b.rows == k && b.cols == n, "gemm core: operand shapes disagree");
    c.scale(beta);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    if m * n * k <= SMALL {
        return direct(alpha, a, b, c);
    }
    // The microkernel reads `MR` consecutive rows of a column of `A`; a
    // transposed `A` is copied once, at its own size, to make them so.
    let packed;
    let a = if a.rs == 1 {
        a
    } else {
        packed = a.to_matrix();
        View::of(&packed, Trans::No)
    };
    if allow_avx2 && avx2_detected() {
        // SAFETY: `blocked_avx2` only requires a CPU with `avx2`, which
        // `avx2_detected` has just confirmed.
        #[cfg(target_arch = "x86_64")]
        return unsafe { blocked_avx2(alpha, a, b, c, lower_only) };
    }
    blocked(alpha, a, b, c, lower_only)
}

/// [`blocked`] compiled with `avx2` enabled.
///
/// # Safety
/// The CPU must support `avx2`; the body is otherwise safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blocked_avx2(alpha: f64, a: View, b: View, c: &mut ViewMut, lower_only: bool) {
    blocked(alpha, a, b, c, lower_only)
}

/// `C += α·A·B` by the direct `jki` loop (axpy down the columns of `C`).
fn direct(alpha: f64, a: View, b: View, c: &mut ViewMut) {
    for j in 0..c.cols {
        let ccol = c.col(j);
        for p in 0..a.cols {
            let s = alpha * b.at(p, j);
            if a.rs == 1 {
                ccol.iter_mut().zip(a.col(p)).for_each(|(x, y)| *x += y * s);
            } else {
                ccol.iter_mut().enumerate().for_each(|(i, x)| *x += a.at(i, p) * s);
            }
        }
    }
}

/// `C += α·A·B` through the microkernel; `A` has unit row stride.
///
/// Loop nest, outermost first: `KC` slices of `k`; `MC` blocks of rows;
/// `NR` columns of `C`, whose `KC×NR` panel of `B` is staged once
/// (zero-padded at the right edge) and reused down the block; `MR` rows. `A`
/// is read in place. There is no `NC` loop because `B` is never packed
/// beyond that one panel, which lives on the heap at `min(k, KC)` rows: as a
/// fixed stack array it cost every rank thread three more resident pages.
#[inline(always)]
fn blocked(alpha: f64, a: View, b: View, c: &mut ViewMut, lower_only: bool) {
    let (m, n, k) = (c.rows, c.cols, a.cols);
    // A one-column view may carry any column stride; the strip is walked in
    // chunks of `lda`, which must not be shorter than a column.
    let lda = a.cs.max(m);
    let mut panel = vec![[0.0; NR]; k.min(KC)];
    for p0 in (0..k).step_by(KC) {
        let panel = &mut panel[..KC.min(k - p0)];
        for i0 in (0..m).step_by(MC) {
            let i1 = m.min(i0 + MC);
            for j0 in (0..n).step_by(NR) {
                if lower_only && i1 <= j0 {
                    break;
                }
                let nr = NR.min(n - j0);
                for (p, row) in panel.iter_mut().enumerate() {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = if j < nr { b.at(p0 + p, j0 + j) } else { 0.0 };
                    }
                }
                for i in (i0..i1).step_by(MR) {
                    let mr = MR.min(i1 - i);
                    if lower_only && i + mr <= j0 {
                        continue;
                    }
                    let acc = micro(&a.data[p0 * lda + i..], lda, mr, panel);
                    for (j, acc) in acc.iter().enumerate().take(nr) {
                        let ccol = &mut c.data[(j0 + j) * c.ld + i..][..mr];
                        ccol.iter_mut().zip(acc).for_each(|(x, y)| *x += alpha * y);
                    }
                }
            }
        }
    }
}

/// The microkernel: the `mr × NR` tile `Σₚ a[·, p]·b[p][·]`, one accumulator
/// per element, summed in order of `p`. Column `p` of the `A` strip starts
/// at `a[p·lda]`. A full tile (`mr == MR`) runs over fixed-size arrays, which
/// is what lets the compiler keep the accumulators in vector registers.
#[inline(always)]
fn micro(a: &[f64], lda: usize, mr: usize, b: &[[f64; NR]]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0; MR]; NR];
    if mr == MR {
        for (acol, brow) in a.chunks(lda).zip(b) {
            let acol: &[f64; MR] = acol[..MR].try_into().expect("MR rows");
            for j in 0..NR {
                for i in 0..MR {
                    acc[j][i] += acol[i] * brow[j];
                }
            }
        }
    } else {
        for (acol, brow) in a.chunks(lda).zip(b) {
            for j in 0..NR {
                for i in 0..mr {
                    acc[j][i] += acol[i] * brow[j];
                }
            }
        }
    }
    acc
}
