//! Property-based tests of the linear-algebra substrate: CPU BLAS against
//! algebraic identities, GPU kernels against the CPU reference, and the
//! sparse formats against their dense counterparts.

// Indexed loops mirror the textbook formulations being checked.
#![allow(clippy::needless_range_loop)]

use gpu_sim::{DeviceSpec, Gpu};
use linalg::gpu::{self as gblas, DeviceMatrix, GemvTStrategy, Layout};
use linalg::{blas, CooMatrix, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

/// Strategy: a dense matrix with entries in [-4, 4] and bounded shape.
fn matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-4.0f64..4.0, m * n)
            .prop_map(move |data| DenseMatrix::from_col_major(m, n, data))
    })
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// gemv_t(A, x) == gemv_n(Aᵀ, x) for every shape and content.
    #[test]
    fn gemv_transpose_identity(a in matrix(12)) {
        let x: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y1 = vec![0.0; a.cols()];
        let mut y2 = vec![0.0; a.cols()];
        blas::gemv_t(1.0, &a, &x, 0.0, &mut y1);
        blas::gemv_n(1.0, &a.transpose(), &x, 0.0, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!(close(*u, *v, 1e-12));
        }
    }

    /// ger is gemm with rank-1 operands: A + αxyᵀ == A + α·(x as m×1)(yᵀ as 1×n).
    #[test]
    fn ger_is_rank_one_gemm(a in matrix(10)) {
        let x: Vec<f64> = (0..a.rows()).map(|i| (i as f64 + 0.5) * 0.3).collect();
        let y: Vec<f64> = (0..a.cols()).map(|j| 1.0 - j as f64 * 0.2).collect();
        let mut via_ger = a.clone();
        blas::ger(0.75, &x, &y, &mut via_ger);
        let xm = DenseMatrix::from_col_major(a.rows(), 1, x.clone());
        let ym = DenseMatrix::from_col_major(1, a.cols(), y.clone());
        let mut via_gemm = a.clone();
        blas::gemm(0.75, &xm, &ym, 1.0, &mut via_gemm);
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                prop_assert!(close(via_ger.get(i, j), via_gemm.get(i, j), 1e-12));
            }
        }
    }

    /// Inverting then multiplying recovers the identity (well-conditioned
    /// inputs: diagonally dominated).
    #[test]
    fn inverse_roundtrip(base in matrix(10)) {
        let n = base.rows().min(base.cols());
        let mut a = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a.set(i, j, base.get(i, j) + if i == j { 16.0 } else { 0.0 });
            }
        }
        let inv = blas::gauss_jordan_invert(&a).expect("diagonally dominant");
        let mut prod = DenseMatrix::zeros(n, n);
        blas::gemm(1.0, &inv, &a, 0.0, &mut prod);
        for j in 0..n {
            for i in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!(close(prod.get(i, j), expect, 1e-9));
            }
        }
    }

    /// Dense LU solutions satisfy the system.
    #[test]
    fn lu_solve_satisfies_system(base in matrix(10)) {
        let n = base.rows().min(base.cols());
        let mut a = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a.set(i, j, base.get(i, j) + if i == j { 16.0 } else { 0.0 });
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 3.0).collect();
        let x = blas::DenseLu::factor(&a).expect("solvable").solve(&b);
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a.get(i, j) * x[j];
            }
            prop_assert!(close(acc, b[i], 1e-9));
        }
    }

    /// Every GPU gemv variant agrees with the CPU reference on every shape.
    #[test]
    fn gpu_gemv_matches_cpu(a in matrix(10)) {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let x_n: Vec<f64> = (0..a.cols()).map(|j| (j as f64 * 0.4).cos()).collect();
        let x_t: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.9).sin()).collect();

        let mut expect_n = vec![0.5; a.rows()];
        blas::gemv_n(1.25, &a, &x_n, -0.5, &mut expect_n);
        let mut expect_t = vec![0.25; a.cols()];
        blas::gemv_t(0.5, &a, &x_t, 2.0, &mut expect_t);

        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let da = DeviceMatrix::upload(&gpu, &a, layout).unwrap();
            let dx = gpu.htod(&x_n);
            let mut dy = gpu.htod(&vec![0.5; a.rows()]);
            gblas::gemv_n(&gpu, 1.25, &da, dx.view(), -0.5, dy.view_mut()).unwrap();
            for (g, c) in gpu.dtoh(&dy).iter().zip(&expect_n) {
                prop_assert!(close(*g, *c, 1e-12), "gemv_n {layout:?}");
            }

            let strategies: &[GemvTStrategy] = if layout == Layout::ColMajor {
                &[GemvTStrategy::Naive, GemvTStrategy::TwoPass]
            } else {
                &[GemvTStrategy::Naive]
            };
            for &strat in strategies {
                let dxt = gpu.htod(&x_t);
                let mut dyt = gpu.htod(&vec![0.25; a.cols()]);
                gblas::gemv_t(&gpu, 0.5, &da, dxt.view(), 2.0, dyt.view_mut(), strat).unwrap();
                for (g, c) in gpu.dtoh(&dyt).iter().zip(&expect_t) {
                    prop_assert!(close(*g, *c, 1e-10), "gemv_t {layout:?} {strat:?}");
                }
            }
        }
    }

    /// Device GEMM agrees with CPU GEMM on arbitrary (small) shapes.
    #[test]
    fn gpu_gemm_matches_cpu(a in matrix(8), salt in 0u64..100) {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let (m, k) = (a.rows(), a.cols());
        let n = (salt as usize % 7) + 1;
        let mut b = DenseMatrix::zeros(k, n);
        for j in 0..n {
            for i in 0..k {
                b.set(i, j, (((i * 5 + j * 3) as u64 + salt) % 9) as f64 - 4.0);
            }
        }
        let mut expect = DenseMatrix::zeros(m, n);
        blas::gemm(1.0, &a, &b, 0.0, &mut expect);

        let da = DeviceMatrix::upload(&gpu, &a, Layout::ColMajor).unwrap();
        let db = DeviceMatrix::upload(&gpu, &b, Layout::ColMajor).unwrap();
        let mut dc = DeviceMatrix::<f64>::zeros(&gpu, m, n, Layout::ColMajor).unwrap();
        gblas::gemm(&gpu, 1.0, &da, &db, 0.0, &mut dc).unwrap();
        let got = dc.download(&gpu).unwrap();
        for j in 0..n {
            for i in 0..m {
                prop_assert!(close(got.get(i, j), expect.get(i, j), 1e-12));
            }
        }
    }

    /// CSR round trip: dense → CSR → dense is the identity (up to exact
    /// zeros), and SpMV agrees with dense gemv.
    #[test]
    fn csr_roundtrip_and_spmv(a in matrix(12)) {
        let csr = CsrMatrix::from_dense(&a, 0.0);
        prop_assert_eq!(csr.to_dense(), a.clone());
        let x: Vec<f64> = (0..a.cols()).map(|j| (j as f64 * 1.3).sin()).collect();
        let mut sparse_y = vec![0.0; a.rows()];
        csr.spmv(&x, &mut sparse_y);
        let mut dense_y = vec![0.0; a.rows()];
        blas::gemv_n(1.0, &a, &x, 0.0, &mut dense_y);
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            prop_assert!(close(*s, *d, 1e-12));
        }
    }

    /// CSC column dots match dense column dots.
    #[test]
    fn csc_col_dot_matches_dense(a in matrix(10)) {
        let csc = CsrMatrix::from_dense(&a, 0.0).to_csc();
        let x: Vec<f64> = (0..a.rows()).map(|i| 2.0 - i as f64 * 0.1).collect();
        for j in 0..a.cols() {
            let dense = blas::dot(a.col(j), &x);
            prop_assert!(close(csc.col_dot(j, &x), dense, 1e-12));
        }
    }

    /// Sparse assembly round trip, bitwise: triplets pushed in arbitrary
    /// (unsorted) order through COO → CSR → CSC all land on the same dense
    /// matrix bit-for-bit — including empty rows/columns — and SpMV /
    /// transposed SpMV agree with dense gemv. Duplicate coordinates go
    /// through `from_triplets`, which must merge them (and drop exact
    /// cancellations) before the formats compare.
    #[test]
    fn coo_csr_csc_roundtrip_bitwise(
        (m, n) in (1usize..12, 1usize..12),
        cells in proptest::collection::vec((0usize..144, -4.0f64..4.0), 0..40),
        dup in proptest::collection::vec((0usize..144, -4.0f64..4.0), 0..6),
    ) {
        // Unique-cell assembly via raw pushes, in generation order (almost
        // surely unsorted): the bitwise path.
        let mut seen = std::collections::HashSet::new();
        let mut coo = CooMatrix::<f64>::new(m, n);
        for &(cell, v) in &cells {
            let (i, j) = (cell % m, (cell / m) % n);
            if v != 0.0 && seen.insert((i, j)) {
                coo.push(i, j, v);
            }
        }
        let dense = coo.to_dense();
        let csr = coo.to_csr();
        let csc = csr.to_csc();
        prop_assert_eq!(csr.to_dense(), dense.clone());
        prop_assert_eq!(csc.to_dense(), dense.clone());
        prop_assert_eq!(csr.nnz(), coo.nnz());

        // SpMV / SpMVᵀ parity against dense gemv (tolerance: summation
        // order differs between the sparse and dense walks).
        let x: Vec<f64> = (0..n).map(|j| (j as f64 * 0.9).cos()).collect();
        let mut y_s = vec![0.0; m];
        csr.spmv(&x, &mut y_s);
        let mut y_d = vec![0.0; m];
        blas::gemv_n(1.0, &dense, &x, 0.0, &mut y_d);
        for (s, d) in y_s.iter().zip(&y_d) {
            prop_assert!(close(*s, *d, 1e-12));
        }
        let xt: Vec<f64> = (0..m).map(|i| 1.0 - i as f64 * 0.3).collect();
        let mut yt_s = vec![0.0; n];
        csr.spmv_t(&xt, &mut yt_s);
        let mut yt_d = vec![0.0; n];
        blas::gemv_t(1.0, &dense, &xt, 0.0, &mut yt_d);
        for (s, d) in yt_s.iter().zip(&yt_d) {
            prop_assert!(close(*s, *d, 1e-12));
        }

        // Duplicate coordinates through the merging constructor: the dense
        // images still agree across all three formats.
        let mut trips: Vec<(usize, usize, f64)> = cells
            .iter()
            .map(|&(cell, v)| (cell % m, (cell / m) % n, v))
            .collect();
        trips.extend(dup.iter().map(|&(cell, v)| (cell % m, (cell / m) % n, v)));
        let merged = CooMatrix::from_triplets(m, n, &trips);
        let merged_dense = merged.to_dense();
        prop_assert_eq!(merged.to_csr().to_dense(), merged_dense.clone());
        prop_assert_eq!(merged.to_csr().to_csc().to_dense(), merged_dense);
    }

    /// Device reductions agree with host folds for any length.
    #[test]
    fn device_reductions_match_host(data in proptest::collection::vec(-100.0f64..100.0, 1..3000)) {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let d = gpu.htod(&data);
        let sum = gblas::reduce(&gpu, d.view(), data.len(), gblas::ReduceOp::Sum).unwrap();
        let host_sum: f64 = data.iter().sum();
        prop_assert!(close(sum, host_sum, 1e-9));
        let (minv, mini) = gblas::argmin(&gpu, d.view(), data.len()).unwrap();
        let (hi, hv) = data
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
            .map(|(i, &v)| (i, v))
            .unwrap();
        prop_assert_eq!(minv, hv);
        prop_assert_eq!(mini as usize, hi);
    }
}
