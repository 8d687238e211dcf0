//! Column-major dense matrix.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense column-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix from a column-major data vector.
    pub fn from_column_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Matrix with entries drawn uniformly from `[-1, 1]`, seeded.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix { rows, cols, data }
    }

    /// Random symmetric positive definite matrix: `B·Bᵀ + n·I` for random `B`.
    pub fn random_spd(n: usize, seed: u64) -> Self {
        let b = Matrix::random(n, n, seed);
        let mut a = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(i, k)] * b[(j, k)];
                }
                a[(i, j)] = s;
            }
        }
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the column-major storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the column-major storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the column-major storage.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// One column as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Column `j`, mutably.
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy of the `r × c` submatrix starting at `(i0, j0)`.
    pub fn sub(&self, i0: usize, j0: usize, r: usize, c: usize) -> Matrix {
        assert!(i0 + r <= self.rows && j0 + c <= self.cols, "submatrix out of bounds");
        let mut data = Vec::with_capacity(r * c);
        for j in j0..j0 + c {
            data.extend_from_slice(&self.col(j)[i0..i0 + r]);
        }
        Matrix::from_column_major(r, c, data)
    }

    /// Write `block` into this matrix at `(i0, j0)`.
    pub fn set_sub(&mut self, i0: usize, j0: usize, block: &Matrix) {
        assert!(
            i0 + block.rows <= self.rows && j0 + block.cols <= self.cols,
            "block out of bounds"
        );
        for j in 0..block.cols {
            self.col_mut(j0 + j)[i0..i0 + block.rows].copy_from_slice(block.col(j));
        }
    }

    /// Transposed copy, moved in 8×8 tiles so that neither the strided reads
    /// nor the contiguous writes miss the cache on every element. This is the
    /// one copy a sweep runs on large blocks (Capital's 3D transpose).
    pub fn transposed(&self) -> Matrix {
        const T: usize = 8;
        let (rows, cols) = (self.cols, self.rows);
        let mut out = vec![0.0; rows * cols];
        for j0 in (0..cols).step_by(T) {
            for i0 in (0..rows).step_by(T) {
                for j in j0..cols.min(j0 + T) {
                    let col = &mut out[j * rows..][i0..rows.min(i0 + T)];
                    for (i, x) in col.iter_mut().enumerate() {
                        *x = self.data[(i0 + i) * cols + j];
                    }
                }
            }
        }
        Matrix::from_column_major(rows, cols, out)
    }

    /// Zero the strictly upper triangle (keep lower + diagonal).
    pub fn tril_in_place(&mut self) {
        for j in 0..self.cols {
            for i in 0..j.min(self.rows) {
                self[(i, j)] = 0.0;
            }
        }
    }

    /// Zero the strictly lower triangle (keep upper + diagonal).
    pub fn triu_in_place(&mut self) {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                self[(i, j)] = 0.0;
            }
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// Naive reference product (tests only — O(n³) with no blocking).
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut c = Matrix::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for k in 0..self.cols {
                let b = other[(k, j)];
                if b == 0.0 {
                    continue;
                }
                for i in 0..self.rows {
                    c[(i, j)] += self[(i, k)] * b;
                }
            }
        }
        c
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[j * self.rows + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let m = Matrix::from_column_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn identity_matmul() {
        let a = Matrix::random(4, 4, 1);
        let i = Matrix::identity(4);
        assert!(a.matmul_ref(&i).max_abs_diff(&a) < 1e-15);
        assert!(i.matmul_ref(&a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn sub_and_set_sub_roundtrip() {
        let a = Matrix::random(6, 5, 2);
        let block = a.sub(1, 2, 3, 2);
        let mut b = Matrix::zeros(6, 5);
        b.set_sub(1, 2, &block);
        assert_eq!(b[(1, 2)], a[(1, 2)]);
        assert_eq!(b[(3, 3)], a[(3, 3)]);
        assert_eq!(b[(0, 0)], 0.0);
    }

    #[test]
    fn sub_set_sub_and_transposed_match_element_loops() {
        for (rows, cols) in [(1, 1), (7, 9), (129, 65)] {
            let a = Matrix::random(rows, cols, 6);
            let t = a.transposed();
            assert_eq!((t.rows(), t.cols()), (cols, rows));
            assert!((0..rows).all(|i| (0..cols).all(|j| t[(j, i)] == a[(i, j)])));
            let (i0, j0) = (rows / 3, cols / 2);
            let (r, c) = (rows - i0 - rows / 4, cols - j0 - cols / 4);
            let s = a.sub(i0, j0, r, c);
            assert!((0..r).all(|i| (0..c).all(|j| s[(i, j)] == a[(i0 + i, j0 + j)])));
            let mut b = Matrix::zeros(rows, cols);
            b.set_sub(i0, j0, &s);
            for j in 0..cols {
                for i in 0..rows {
                    let inside = (i0..i0 + r).contains(&i) && (j0..j0 + c).contains(&j);
                    assert_eq!(b[(i, j)], if inside { a[(i, j)] } else { 0.0 }, "({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::random(3, 7, 3);
        assert!(a.transposed().transposed().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn spd_is_symmetric_with_heavy_diagonal() {
        let a = Matrix::random_spd(8, 4);
        for i in 0..8 {
            for j in 0..8 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
            assert!(a[(i, i)] > 0.0);
        }
    }

    #[test]
    fn tril_triu() {
        let mut a = Matrix::random(3, 3, 5);
        let mut b = a.clone();
        a.tril_in_place();
        b.triu_in_place();
        assert_eq!(a[(0, 2)], 0.0);
        assert_eq!(b[(2, 0)], 0.0);
        assert_eq!(a[(1, 1)], b[(1, 1)]);
    }

    #[test]
    fn random_is_seeded() {
        assert_eq!(Matrix::random(3, 3, 7), Matrix::random(3, 3, 7));
        assert_ne!(Matrix::random(3, 3, 7), Matrix::random(3, 3, 8));
    }
}
