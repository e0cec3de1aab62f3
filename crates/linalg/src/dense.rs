//! Column-major dense matrices.
//!
//! Column-major is the deliberate choice of the paper's GPU implementation:
//! with one device thread per row, lane `i` of a warp reads `A[i + j·ld]`
//! and consecutive lanes touch consecutive addresses — fully coalesced. The
//! row-major mirror (`to_row_major`) exists solely for the coalescing
//! ablation (experiment F4).

use crate::scalar::Scalar;

/// Dense column-major matrix: element `(i, j)` lives at `data[i + j * rows]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Build from column-major storage.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "storage size mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Build from a row-major iterator of rows (handy in tests).
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut m = DenseMatrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.rows] = v;
    }

    /// Contiguous storage of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable storage of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Copy of row `i` (strided gather).
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Full column-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable full column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row-major copy of the storage (for the uncoalesced-layout ablation).
    pub fn to_row_major(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.push(self.get(i, j));
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix<T> {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Maximum absolute element (∞-norm of the storage).
    pub fn max_abs(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &x| acc.maxs(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &x| acc + x * x).sqrt()
    }

    /// Count of elements with `|x| > tol` (fill statistics for reports).
    pub fn nnz(&self, tol: T) -> usize {
        self.data.iter().filter(|&&x| x.abs() > tol).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_major_layout() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.col(1), &[2.0, 4.0]);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i = DenseMatrix::<f32>::identity(3);
        assert_eq!(i.transpose(), i);
        let m = DenseMatrix::from_rows(&[vec![1.0f32, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
    }

    #[test]
    fn row_major_conversion_matches_rows() {
        let m = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.to_row_major(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn norms_and_nnz() {
        let m = DenseMatrix::from_rows(&[vec![3.0f64, 0.0], vec![0.0, -4.0]]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.frobenius_norm(), 5.0);
        assert_eq!(m.nnz(1e-12), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = DenseMatrix::from_rows(&[vec![1.0f64], vec![1.0, 2.0]]);
    }
}
