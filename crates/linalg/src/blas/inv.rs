//! Matrix inversion and linear solves for basis (re)factorization.
//!
//! The revised simplex method maintains `B⁻¹` explicitly (the paper's
//! approach) and periodically recomputes it from the basis columns to purge
//! accumulated rank-1-update error. Gauss–Jordan with partial pivoting is the
//! classic choice. The elimination works on an internal row-major copy so
//! every row operation is a contiguous slice loop — this runs once per
//! `refactor_period` iterations on an `m × m` matrix and must not dominate
//! the solve.

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;

/// Row-major workspace for elimination.
struct Rows<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Rows<T> {
    fn from_dense(a: &DenseMatrix<T>) -> Self {
        Rows {
            n: a.cols(),
            data: a.to_row_major(),
        }
    }

    fn identity(n: usize) -> Self {
        let mut data = vec![T::ZERO; n * n];
        for i in 0..n {
            data[i * n + i] = T::ONE;
        }
        Rows { n, data }
    }

    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> T {
        self.data[i * self.n + j]
    }

    /// Partial pivot of column `k`: the first row `i ≥ k` of largest `|·|`,
    /// and that magnitude.
    fn pivot(&self, k: usize) -> (usize, T) {
        let mut best = (k, self.get(k, k).abs());
        for i in k + 1..self.n {
            let v = self.get(i, k).abs();
            if v > best.1 {
                best = (i, v);
            }
        }
        best
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let n = self.n;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.data.split_at_mut(hi * n);
        left[lo * n..(lo + 1) * n].swap_with_slice(&mut right[..n]);
    }

    fn scale_row(&mut self, r: usize, s: T) {
        for v in self.row_mut(r) {
            *v *= s;
        }
    }

    /// `row[i] ← row[i] − f·row[k]` over columns `from..n` (contiguous
    /// slices).
    fn sub_scaled_row(&mut self, i: usize, k: usize, f: T, from: usize) {
        let n = self.n;
        let (ri, rk) = if i < k {
            let (left, right) = self.data.split_at_mut(k * n);
            (&mut left[i * n..(i + 1) * n], &right[..n])
        } else {
            let (left, right) = self.data.split_at_mut(i * n);
            (&mut right[..n], &left[k * n..(k + 1) * n])
        };
        for (a, &b) in ri[from..].iter_mut().zip(&rk[from..]) {
            *a -= f * b;
        }
    }

    fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.n, self.n);
        for i in 0..self.n {
            for (j, &v) in self.row(i).iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }
}

/// Pivot magnitude at or below which `a` counts as numerically singular.
fn singular_tol<T: Scalar>(a: &DenseMatrix<T>) -> T {
    a.max_abs().maxs(T::ONE) * T::epsilon() * T::from_f64(a.rows() as f64 * 16.0)
}

/// Invert a square matrix by Gauss–Jordan elimination with partial pivoting.
///
/// Returns `None` when the matrix is numerically singular (best pivot below
/// a scale-relative threshold).
pub fn gauss_jordan_invert<T: Scalar>(a: &DenseMatrix<T>) -> Option<DenseMatrix<T>> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "inverse of a non-square matrix");
    let mut work = Rows::from_dense(a);
    let mut inv = Rows::<T>::identity(n);
    let tiny = singular_tol(a);

    for k in 0..n {
        let (piv, best) = work.pivot(k);
        if !(best > tiny) {
            return None;
        }
        work.swap_rows(k, piv);
        inv.swap_rows(k, piv);
        let d = T::ONE / work.get(k, k);
        work.scale_row(k, d);
        inv.scale_row(k, d);
        for i in 0..n {
            if i == k {
                continue;
            }
            let f = work.get(i, k);
            if f == T::ZERO {
                continue;
            }
            work.sub_scaled_row(i, k, f, 0);
            inv.sub_scaled_row(i, k, f, 0);
        }
    }
    Some(inv.to_dense())
}

/// A dense LU factorization `P A = L U` with partial pivoting: one
/// factorization of a basis serves every solve against it and against its
/// transpose. The host uses it for the warm-start feasibility probe and for
/// the terminal polish and duals; the iterating solver keeps `B⁻¹`.
pub struct DenseLu<T> {
    /// Row-major `U` on and above the diagonal, `L`'s multipliers below it
    /// (row-exchanged along with their rows, as in LAPACK's `getrf`).
    lu: Rows<T>,
    /// The row exchanged with row `k` at elimination step `k`.
    piv: Vec<usize>,
}

impl<T: Scalar> DenseLu<T> {
    /// Factor `a` by Gaussian elimination with partial pivoting. `None`
    /// when the matrix is numerically singular (the threshold of
    /// [`gauss_jordan_invert`]).
    pub fn factor(a: &DenseMatrix<T>) -> Option<Self> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "LU of a non-square matrix");
        let mut lu = Rows::from_dense(a);
        let mut piv = Vec::with_capacity(n);
        let tiny = singular_tol(a);
        for k in 0..n {
            let (p, best) = lu.pivot(k);
            if !(best > tiny) {
                return None;
            }
            lu.swap_rows(k, p);
            piv.push(p);
            for i in k + 1..n {
                let f = lu.get(i, k) / lu.get(k, k);
                lu.row_mut(i)[k] = f;
                if f != T::ZERO {
                    lu.sub_scaled_row(i, k, f, k + 1);
                }
            }
        }
        Some(DenseLu { lu, piv })
    }

    /// Solve `A x = b`. Each entry of `b` meets the same operations, in the
    /// same order, as when eliminating `[A | b]` in one pass, so the result
    /// is bitwise that of the one-shot solve.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let n = self.piv.len();
        assert_eq!(n, b.len(), "LU solve: rhs length mismatch");
        let mut x = b.to_vec();
        for (k, &p) in self.piv.iter().enumerate() {
            x.swap(k, p);
        }
        for k in 0..n {
            let xk = x[k];
            for i in k + 1..n {
                let f = self.lu.get(i, k);
                if f != T::ZERO {
                    x[i] -= f * xk;
                }
            }
        }
        for k in (0..n).rev() {
            let row = self.lu.row(k);
            let mut acc = x[k];
            for j in k + 1..n {
                acc -= row[j] * x[j];
            }
            x[k] = acc / row[k];
        }
        x
    }

    /// Solve the transposed system `Aᵀ y = c` through the same factors
    /// (`Aᵀ = Uᵀ Lᵀ P`).
    pub fn solve_t(&self, c: &[T]) -> Vec<T> {
        let n = self.piv.len();
        assert_eq!(n, c.len(), "LU solve: rhs length mismatch");
        let mut y = c.to_vec();
        for k in 0..n {
            let mut acc = y[k];
            for j in 0..k {
                acc -= self.lu.get(j, k) * y[j];
            }
            y[k] = acc / self.lu.get(k, k);
        }
        for k in (0..n).rev() {
            let mut acc = y[k];
            for i in k + 1..n {
                acc -= self.lu.get(i, k) * y[i];
            }
            y[k] = acc;
        }
        for (k, &p) in self.piv.iter().enumerate().rev() {
            y.swap(k, p);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm;

    /// The one-pass elimination of `[A | b]` that [`DenseLu::solve`] must
    /// reproduce bitwise.
    fn one_shot_solve<T: Scalar>(a: &DenseMatrix<T>, b: &[T]) -> Option<Vec<T>> {
        let n = a.rows();
        let mut work = Rows::from_dense(a);
        let mut rhs = b.to_vec();
        let tiny = singular_tol(a);
        for k in 0..n {
            let (piv, best) = work.pivot(k);
            if !(best > tiny) {
                return None;
            }
            work.swap_rows(k, piv);
            rhs.swap(k, piv);
            for i in k + 1..n {
                let f = work.get(i, k) / work.get(k, k);
                if f == T::ZERO {
                    continue;
                }
                work.sub_scaled_row(i, k, f, 0);
                let rk = rhs[k];
                rhs[i] -= f * rk;
            }
        }
        let mut x = vec![T::ZERO; n];
        for k in (0..n).rev() {
            let mut acc = rhs[k];
            let row = work.row(k);
            for j in k + 1..n {
                acc -= row[j] * x[j];
            }
            x[k] = acc / row[k];
        }
        Some(x)
    }

    /// Deterministic pseudo-random `n × n` matrix in [−1, 1), with `zeros`
    /// of every 7 entries cleared so pivots need row exchanges.
    fn random_matrix(n: usize, seed: u64, zeros: usize) -> DenseMatrix<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut a = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let v = (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                if (i * n + j) % 7 >= zeros {
                    a.set(i, j, v);
                }
            }
        }
        a
    }

    /// The matrices the factor tests run on: dense random ones, sparse
    /// random ones, and a permutation-like one whose every pivot needs a
    /// row exchange.
    fn factor_fixtures() -> Vec<DenseMatrix<f64>> {
        let mut out: Vec<_> = (0..6u64)
            .map(|s| random_matrix(5 + 7 * s as usize, s, (s % 3) as usize * 2))
            .collect();
        let n = 9;
        let mut exch = DenseMatrix::zeros(n, n);
        for i in 0..n {
            exch.set(i, (i + 4) % n, 2.0 + i as f64);
            exch.set(i, (i + 1) % n, 0.5);
        }
        out.push(exch);
        out
    }

    #[test]
    fn factor_solve_is_bitwise_the_one_shot_elimination() {
        for a in factor_fixtures() {
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            let lu = DenseLu::factor(&a).expect("nonsingular fixture");
            assert!(lu.piv.iter().enumerate().any(|(k, &p)| p != k));
            let want = one_shot_solve(&a, &b).expect("nonsingular fixture");
            let got = lu.solve(&b);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn factor_solve_t_matches_the_transposed_one_shot() {
        for a in factor_fixtures() {
            let n = a.rows();
            let c: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 1.3).cos()).collect();
            let got = DenseLu::factor(&a).unwrap().solve_t(&c);
            let want = one_shot_solve(&a.transpose(), &c).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!(
                    (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                    "n = {n}: {g} vs {w}"
                );
            }
        }
    }

    #[test]
    fn invert_identity() {
        let i = DenseMatrix::<f64>::identity(4);
        assert_eq!(gauss_jordan_invert(&i).unwrap(), i);
    }

    #[test]
    fn invert_known_2x2() {
        let a = DenseMatrix::from_rows(&[vec![4.0f64, 7.0], vec![2.0, 6.0]]);
        let inv = gauss_jordan_invert(&a).unwrap();
        assert!((inv.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((inv.get(0, 1) + 0.7).abs() < 1e-12);
        assert!((inv.get(1, 0) + 0.2).abs() < 1e-12);
        assert!((inv.get(1, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        // A needs a row swap (zero on the first pivot) to exercise pivoting.
        let a = DenseMatrix::from_rows(&[
            vec![0.0f64, 2.0, 1.0],
            vec![1.0, 0.0, 3.0],
            vec![2.0, 1.0, 0.0],
        ]);
        let inv = gauss_jordan_invert(&a).unwrap();
        let mut prod = DenseMatrix::zeros(3, 3);
        gemm(1.0, &inv, &a, 0.0, &mut prod);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (prod.get(i, j) - expect).abs() < 1e-12,
                    "({i},{j}) = {}",
                    prod.get(i, j)
                );
            }
        }
    }

    #[test]
    fn larger_random_inverse_is_accurate() {
        // Deterministic pseudo-random diagonally-dominant matrix.
        let n = 48;
        let mut a = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = (((i * 31 + j * 17 + 7) % 23) as f64 - 11.0) / 23.0;
                a.set(i, j, v + if i == j { 4.0 } else { 0.0 });
            }
        }
        let inv = gauss_jordan_invert(&a).unwrap();
        let mut prod = DenseMatrix::zeros(n, n);
        gemm(1.0, &inv, &a, 0.0, &mut prod);
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![2.0, 4.0]]);
        assert!(gauss_jordan_invert(&a).is_none());
        assert!(DenseLu::factor(&a).is_none());
    }

    #[test]
    fn lu_solve_matches_inverse() {
        let a = DenseMatrix::from_rows(&[
            vec![3.0f64, 1.0, -2.0],
            vec![1.0, -5.0, 2.0],
            vec![2.0, 2.0, 7.0],
        ]);
        let b = vec![6.0, -4.0, 23.0];
        let x = DenseLu::factor(&a).unwrap().solve(&b);
        for i in 0..3 {
            let mut acc = 0.0;
            for j in 0..3 {
                acc += a.get(i, j) * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn f32_inverse_is_reasonable() {
        let a = DenseMatrix::from_rows(&[vec![2.0f32, 1.0], vec![1.0, 3.0]]);
        let inv = gauss_jordan_invert(&a).unwrap();
        let mut prod = DenseMatrix::zeros(2, 2);
        gemm(1.0, &inv, &a, 0.0, &mut prod);
        assert!((prod.get(0, 0) - 1.0).abs() < 1e-5);
        assert!(prod.get(0, 1).abs() < 1e-5);
    }
}
