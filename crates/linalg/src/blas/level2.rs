//! Level-2 (matrix-vector) routines over column-major [`DenseMatrix`].

use super::level1::dot;
use crate::dense::DenseMatrix;
use crate::scalar::Scalar;

/// β-scale of one output element. With `β = 0` the output is *overwritten*,
/// so a non-finite previous value must not leak through as `0 · NaN = NaN` —
/// that would keep a poisoned vector unhealable forever (the PR-8 mega-batch
/// zeroing bug, now fixed here for the scalar level-2 path too). Finite
/// values still go through the multiply so `±0` signs are bitwise preserved.
#[inline]
pub(crate) fn beta_scale<T: Scalar>(prev: T, beta: T) -> T {
    if beta == T::ZERO {
        if prev.is_finite() {
            prev * beta
        } else {
            T::ZERO
        }
    } else {
        prev * beta
    }
}

/// `y ← αAx + βy` (no transpose).
///
/// Walks the matrix column-by-column so the inner loop is contiguous — the
/// cache-friendly order for column-major storage, mirroring what a tuned
/// serial sgemv does.
pub fn gemv_n<T: Scalar>(alpha: T, a: &DenseMatrix<T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.cols(), x.len(), "gemv_n: x length mismatch");
    assert_eq!(a.rows(), y.len(), "gemv_n: y length mismatch");
    for v in y.iter_mut() {
        *v = beta_scale(*v, beta);
    }
    for (j, &xj) in x.iter().enumerate() {
        let s = alpha * xj;
        if s == T::ZERO {
            continue;
        }
        for (yi, &aij) in y.iter_mut().zip(a.col(j)) {
            *yi = s.mul_add(aij, *yi);
        }
    }
}

/// `y ← αAᵀx + βy`, four columns per pass over `x` (see [`col_dots`]).
pub fn gemv_t<T: Scalar>(alpha: T, a: &DenseMatrix<T>, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(a.rows(), x.len(), "gemv_t: x length mismatch");
    assert_eq!(a.cols(), y.len(), "gemv_t: y length mismatch");
    for (c, ys) in y.chunks_mut(4).enumerate() {
        let mut acc = [T::ZERO; 4];
        col_dots(a, 4 * c, x, &mut acc[..ys.len()]);
        for (yj, &s) in ys.iter_mut().zip(&acc) {
            *yj = alpha * s + beta_scale(*yj, beta);
        }
    }
}

/// `out[k] = dot(x, A[:, first + k])` over a window of columns.
///
/// Four columns share each pass over `x`. Every column still sums its own
/// `mul_add` chain in element order, exactly as [`crate::blas::dot`]
/// does, so each result is bitwise `dot(x, column)`: the four chains only
/// interleave, which hides the add latency one chain per column waits on.
pub fn col_dots<T: Scalar>(a: &DenseMatrix<T>, first: usize, x: &[T], out: &mut [T]) {
    assert_eq!(a.rows(), x.len(), "col_dots: x length mismatch");
    assert!(
        first + out.len() <= a.cols(),
        "col_dots: window out of range"
    );
    let mut quads = out.chunks_exact_mut(4);
    let mut j = first;
    for o in &mut quads {
        let mut acc = [T::ZERO; 4];
        let cols = x.iter().zip(a.col(j)).zip(a.col(j + 1)).zip(a.col(j + 2));
        for ((((&xi, &c0), &c1), &c2), &c3) in cols.zip(a.col(j + 3)) {
            acc[0] = xi.mul_add(c0, acc[0]);
            acc[1] = xi.mul_add(c1, acc[1]);
            acc[2] = xi.mul_add(c2, acc[2]);
            acc[3] = xi.mul_add(c3, acc[3]);
        }
        o.copy_from_slice(&acc);
        j += 4;
    }
    for o in quads.into_remainder() {
        *o = dot(x, a.col(j));
        j += 1;
    }
}

/// Rank-1 update `A ← A + αxyᵀ`.
pub fn ger<T: Scalar>(alpha: T, x: &[T], y: &[T], a: &mut DenseMatrix<T>) {
    assert_eq!(a.rows(), x.len(), "ger: x length mismatch");
    assert_eq!(a.cols(), y.len(), "ger: y length mismatch");
    for (j, &yj) in y.iter().enumerate() {
        let s = alpha * yj;
        if s == T::ZERO {
            continue;
        }
        for (aij, &xi) in a.col_mut(j).iter_mut().zip(x) {
            *aij = s.mul_add(xi, *aij);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])
    }

    #[test]
    fn gemv_n_basic() {
        let a = mat();
        let mut y = vec![1.0, 1.0, 1.0];
        gemv_n(1.0, &a, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, vec![5.0, 11.0, 17.0]);
    }

    #[test]
    fn gemv_n_alpha_beta() {
        let a = mat();
        let mut y = vec![10.0, 20.0, 30.0];
        gemv_n(2.0, &a, &[1.0, 0.0], 0.5, &mut y);
        assert_eq!(y, vec![5.0 + 2.0, 10.0 + 6.0, 15.0 + 10.0]);
    }

    #[test]
    fn gemv_t_basic() {
        let a = mat();
        let mut y = vec![0.0, 0.0];
        gemv_t(1.0, &a, &[1.0, 1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![9.0, 12.0]);
    }

    #[test]
    fn gemv_t_matches_transpose_gemv_n() {
        let a = mat();
        let at = a.transpose();
        let x = vec![1.0, -2.0, 0.5];
        let mut y1 = vec![0.0, 0.0];
        let mut y2 = vec![0.0, 0.0];
        gemv_t(1.0, &a, &x, 0.0, &mut y1);
        gemv_n(1.0, &at, &x, 0.0, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gemv_n_beta_zero_heals_poisoned_y() {
        // β = 0 means "overwrite y": a NaN left in y by a faulted kernel
        // must not survive the zeroing pass as 0 · NaN = NaN. Pre-fix this
        // produced [NaN, NaN, NaN] and the poison could never be healed.
        let a = mat();
        let mut y = vec![f64::NAN, f64::INFINITY, -0.0];
        gemv_n(1.0, &a, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, vec![5.0, 11.0, 17.0]);
        // The x = 0 fast path must not skip the healing either.
        let mut y = vec![f64::NAN; 3];
        gemv_n(1.0, &a, &[0.0, 0.0], 0.0, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn gemv_t_beta_zero_heals_poisoned_y() {
        let a = mat();
        let mut y = vec![f64::NAN, f64::NEG_INFINITY];
        gemv_t(1.0, &a, &[1.0, 1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![9.0, 12.0]);
    }

    #[test]
    fn beta_zero_keeps_x_poison_visible() {
        // Healing is only for the *output* operand: NaN riding in through
        // x is real data corruption and must propagate, fast paths or not.
        let a = mat();
        let mut y = vec![0.0; 3];
        gemv_n(1.0, &a, &[f64::NAN, 0.0], 0.0, &mut y);
        assert!(y.iter().all(|v| v.is_nan()));
        let mut y = vec![0.0; 2];
        gemv_t(1.0, &a, &[f64::NAN, 0.0, 0.0], 0.0, &mut y);
        assert!(y.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn beta_nonzero_still_propagates_y() {
        // With β ≠ 0 the previous y is a real input — poison must survive.
        let a = mat();
        let mut y = vec![f64::NAN, 1.0, 1.0];
        gemv_n(1.0, &a, &[1.0, 2.0], 0.5, &mut y);
        assert!(y[0].is_nan());
        assert_eq!(y[1], 11.5);
    }

    #[test]
    fn beta_zero_preserves_signed_zero() {
        // Finite values still take the multiply path so −0.0 · 0.0 = −0.0
        // keeps its bit pattern through an α = 0 no-op gemv.
        let a = mat();
        let mut y = vec![-0.0f64, 0.0, -0.0];
        gemv_n(0.0, &a, &[0.0, 0.0], 0.0, &mut y);
        assert_eq!(y[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(y[1].to_bits(), 0.0f64.to_bits());
    }

    /// Columns of mixed sign and magnitude, with NaN, ±inf and −0.0.
    fn special_matrix(m: usize, n: usize) -> DenseMatrix<f64> {
        let pool = [1.5, -0.0, 1e308, f64::NAN, -2.25, f64::INFINITY, 0.0, -1e-3];
        let mut a = DenseMatrix::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                let v = if (i + 2 * j) % 7 == 0 {
                    pool[(i + j) % pool.len()]
                } else {
                    (i as f64 - 0.37 * j as f64) * 1.1f64.powi((i % 9) as i32)
                };
                a.set(i, j, v);
            }
        }
        a
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn col_dots_are_bitwise_dot_per_column() {
        // Every n mod 4 (whole windows), windows not aligned to 4, and x
        // with and without NaN.
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 13] {
            let a = special_matrix(37, n);
            for x_nan in [false, true] {
                let mut x: Vec<f64> = (0..37).map(|i| 0.5 - i as f64 * 0.125).collect();
                if x_nan {
                    x[5] = f64::NAN;
                }
                for first in 0..n {
                    for len in 0..=n - first {
                        let mut out = vec![f64::NAN; len];
                        col_dots(&a, first, &x, &mut out);
                        let expect: Vec<f64> =
                            (first..first + len).map(|j| dot(&x, a.col(j))).collect();
                        assert_eq!(bits(&out), bits(&expect), "n={n} window {first}+{len}");
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_t_keeps_one_chain_per_column() {
        // The per-column loop gemv_t ran before its columns interleaved.
        fn reference(alpha: f64, a: &DenseMatrix<f64>, x: &[f64], beta: f64, y: &mut [f64]) {
            for (j, yj) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (&aij, &xi) in a.col(j).iter().zip(x) {
                    acc = Scalar::mul_add(aij, xi, acc);
                }
                *yj = alpha * acc + beta_scale(*yj, beta);
            }
        }
        for n in [1usize, 2, 3, 4, 9, 10, 11, 12] {
            let a = special_matrix(21, n);
            let x: Vec<f64> = (0..21).map(|i| 1.0 - i as f64 * 0.0625).collect();
            for (alpha, beta) in [(1.0, 0.0), (-2.0, 0.5)] {
                let y0: Vec<f64> = (0..n)
                    .map(|j| if j == 1 { f64::NAN } else { j as f64 })
                    .collect();
                let (mut y, mut expect) = (y0.clone(), y0);
                gemv_t(alpha, &a, &x, beta, &mut y);
                reference(alpha, &a, &x, beta, &mut expect);
                assert_eq!(bits(&y), bits(&expect), "n={n} α={alpha} β={beta}");
            }
        }
    }

    #[test]
    fn ger_rank1() {
        let mut a = DenseMatrix::<f64>::zeros(2, 2);
        ger(2.0, &[1.0, 2.0], &[3.0, 4.0], &mut a);
        assert_eq!(a.get(0, 0), 6.0);
        assert_eq!(a.get(1, 1), 16.0);
    }
}
