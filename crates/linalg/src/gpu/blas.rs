//! Host-callable wrappers around the simublas kernels — the CUBLAS-shaped
//! API surface the solver backends program against.
//!
//! Every wrapper is fallible: a device with an armed
//! [`gpu_sim::FaultPlan`] can reject any launch or transfer with a
//! [`DeviceError`], and injected *silent corruption* is realized here — a
//! corrupted launch completes, then the wrapper poisons its output with
//! NaN (see [`poison_if_corrupted`]), exactly the failure only numerical
//! detection upstream can catch. On a fault-free device the `Result` is
//! always `Ok`, so infallible callers simply `expect`.

use gpu_sim::timing::{kernel_timing, SimTime};
use gpu_sim::{DView, DViewMut, DeviceError, DeviceSpec, Gpu, KernelCost, LaunchConfig, Launcher};

use super::algo::{reduce, ReduceOp};
use super::kernels::{
    gemv_n_cost, gemv_n_pass1_cost, strip_sum_cost, AxpyK, CopyK, EtaK, FillK, GemvNK, GemvNPass1K,
    GemvTNaiveK, GemvTPass1K, GerK, MulEwK, PivotUpdateK, RowExtractK, ScalK, StripSumK,
    GEMV_T_STRIPS,
};
use super::mat::{DeviceMatrix, Layout};
use crate::scalar::Scalar;

/// Default block size for elementwise launches.
const BLOCK: u32 = 128;

/// Strip counts the split-K `gemv_n` chooses among, fewest first.
pub const GEMV_N_STRIP_CANDIDATES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Relative difference in modeled body time below which two strip counts
/// tie.
pub const GEMV_N_STRIP_TIE: f64 = 1e-9;

/// If the device flagged an injected corruption, overwrite `out` with NaN.
///
/// Host-side poke through the view, charging nothing: this *models* the
/// kernel having written garbage, it is not extra work the device did.
pub(crate) fn poison_if_corrupted<T: Scalar>(gpu: &Gpu, out: &DViewMut<T>) {
    if gpu.take_corruption() {
        let nan = T::from_f64(f64::NAN);
        for i in 0..out.len() {
            out.set(i, nan);
        }
    }
}

/// `x[i] = val` for all `i`.
pub fn fill<T: Scalar>(gpu: &Gpu, x: DViewMut<T>, val: T) -> Result<(), DeviceError> {
    let n = x.len();
    gpu.try_launch(LaunchConfig::for_elems(n, BLOCK), &FillK { out: x, val, n })?;
    Ok(())
}

/// `x ← αx`.
pub fn scal<T: Scalar>(gpu: &Gpu, alpha: T, x: DViewMut<T>) -> Result<(), DeviceError> {
    let n = x.len();
    gpu.try_launch(LaunchConfig::for_elems(n, BLOCK), &ScalK { x, alpha, n })?;
    Ok(())
}

/// `y ← αx + y`.
pub fn axpy<T: Scalar>(
    gpu: &Gpu,
    alpha: T,
    x: DView<T>,
    y: DViewMut<T>,
) -> Result<(), DeviceError> {
    let n = x.len();
    assert_eq!(n, y.len(), "axpy: length mismatch");
    gpu.try_launch(LaunchConfig::for_elems(n, BLOCK), &AxpyK { alpha, x, y, n })?;
    Ok(())
}

/// `dst ← src`.
pub fn copy<T: Scalar>(gpu: &Gpu, src: DView<T>, dst: DViewMut<T>) -> Result<(), DeviceError> {
    copy_on(&mut Launcher::Direct(gpu), src, dst)
}

/// [`copy`] through an arbitrary [`Launcher`] (direct or fused).
pub fn copy_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    src: DView<T>,
    dst: DViewMut<T>,
) -> Result<(), DeviceError> {
    let n = src.len();
    assert_eq!(n, dst.len(), "copy: length mismatch");
    l.try_launch(LaunchConfig::for_elems(n, BLOCK), &CopyK { src, dst, n })?;
    Ok(())
}

/// Device dot product `xᵀy` (elementwise multiply + tree reduction; the
/// result crosses PCIe, as a 2009 `cublasSdot` result did).
pub fn dot<T: Scalar>(gpu: &Gpu, x: DView<T>, y: DView<T>) -> Result<T, DeviceError> {
    let n = x.len();
    assert_eq!(n, y.len(), "dot: length mismatch");
    if n == 0 {
        return Ok(T::ZERO);
    }
    let mut prod = gpu.try_alloc(n, T::ZERO)?;
    gpu.try_launch(
        LaunchConfig::for_elems(n, BLOCK),
        &MulEwK {
            x,
            y,
            out: prod.view_mut(),
            n,
        },
    )?;
    poison_if_corrupted(gpu, &prod.view_mut());
    reduce(gpu, prod.view(), n, ReduceOp::Sum)
}

/// `y ← αAx + βy`.
pub fn gemv_n<T: Scalar>(
    gpu: &Gpu,
    alpha: T,
    a: &DeviceMatrix<T>,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
) -> Result<(), DeviceError> {
    gemv_n_on(&mut Launcher::Direct(gpu), alpha, a, x, beta, y)
}

/// [`gemv_n`] through an arbitrary [`Launcher`] (direct or fused), with the
/// strip count [`gemv_n_strips`] derives for this device and shape.
pub fn gemv_n_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    alpha: T,
    a: &DeviceMatrix<T>,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
) -> Result<(), DeviceError> {
    let strips = gemv_n_strips::<T>(l.gpu().spec(), a.layout(), a.rows(), a.cols());
    gemv_n_split_on(l, strips, alpha, a, x, beta, y)
}

/// `y ← αAx + βy` as a split-K strip reduce over `strips` column blocks.
///
/// `strips = 1` is the thread-per-row kernel. Otherwise pass 1 runs
/// `m · strips` threads, thread `(i, k)` summing row `i` over column block
/// `k` into `partials[k·m + i]`, and pass 2 adds each row's partials in
/// strip order and applies `α` and `β`.
pub fn gemv_n_split_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    strips: usize,
    alpha: T,
    a: &DeviceMatrix<T>,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
) -> Result<(), DeviceError> {
    let (m, n, layout) = (a.rows(), a.cols(), a.layout());
    assert_eq!(n, x.len(), "gemv_n: x length mismatch");
    assert_eq!(m, y.len(), "gemv_n: y length mismatch");
    assert!(strips >= 1, "gemv_n: strip count must be positive");
    let out = y;
    if strips == 1 {
        l.try_launch(
            LaunchConfig::sweep(),
            &GemvNK {
                a: a.view(),
                layout,
                m,
                n,
                alpha,
                x,
                beta,
                y,
            },
        )?;
    } else {
        let mut partials = l.gpu().try_alloc(m * strips, T::ZERO)?;
        l.try_launch(
            LaunchConfig::sweep(),
            &GemvNPass1K {
                a: a.view(),
                layout,
                m,
                n,
                strips,
                x,
                partials: partials.view_mut(),
            },
        )?;
        poison_if_corrupted(l.gpu(), &partials.view_mut());
        l.try_launch(
            LaunchConfig::for_elems(m, BLOCK),
            &StripSumK {
                name: "gemv_n_pass2",
                partials: partials.view(),
                n: m,
                strips,
                out_stride: 1,
                strip_stride: m,
                alpha,
                beta,
                y,
            },
        )?;
    }
    poison_if_corrupted(l.gpu(), &out);
    Ok(())
}

/// The strip count `gemv_n` uses for an `m × n` matrix of `T` stored in
/// `layout` on `spec`: the candidate in {1, 2, 4, 8, 16, 32}, capped at `n`,
/// whose launches have the least modeled kernel-body time. Ties — equal up
/// to float rounding, which the latency term often produces exactly — go to
/// fewer strips, so a shape where splitting does not pay keeps the
/// thread-per-row kernel and its exact arithmetic.
pub fn gemv_n_strips<T: Scalar>(spec: &DeviceSpec, layout: Layout, m: usize, n: usize) -> usize {
    let body = |cfg: LaunchConfig, cost: KernelCost| {
        let t = kernel_timing(spec, &cfg, &cost);
        t.total() - t.overhead
    };
    let row_cfg = LaunchConfig::for_elems(m, BLOCK);
    let bodies: Vec<(usize, SimTime)> = GEMV_N_STRIP_CANDIDATES
        .iter()
        .filter(|&&s| s == 1 || s <= n)
        .map(|&s| {
            let t = if s == 1 {
                body(LaunchConfig::sweep(), gemv_n_cost::<T>(layout, m, n))
            } else {
                body(
                    LaunchConfig::sweep(),
                    gemv_n_pass1_cost::<T>(layout, m, n, s),
                ) + body(row_cfg, strip_sum_cost::<T>(&row_cfg, m, s, 1))
            };
            (s, t)
        })
        .collect();
    let least = bodies
        .iter()
        .map(|(_, t)| t.as_nanos())
        .fold(f64::INFINITY, f64::min);
    bodies
        .iter()
        .find(|(_, t)| t.as_nanos() <= least * (1.0 + GEMV_N_STRIP_TIE))
        .map_or(1, |&(s, _)| s)
}

/// Strategy for the transposed matrix-vector product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemvTStrategy {
    /// One thread per column (uncoalesced on col-major storage).
    Naive,
    /// Two passes with 32 cooperating threads per column (coalesced);
    /// col-major only.
    TwoPass,
}

/// `y ← αAᵀx + βy`.
pub fn gemv_t<T: Scalar>(
    gpu: &Gpu,
    alpha: T,
    a: &DeviceMatrix<T>,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
    strategy: GemvTStrategy,
) -> Result<(), DeviceError> {
    gemv_t_on(&mut Launcher::Direct(gpu), alpha, a, x, beta, y, strategy)
}

/// [`gemv_t`] through an arbitrary [`Launcher`] (direct or fused).
pub fn gemv_t_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    alpha: T,
    a: &DeviceMatrix<T>,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
    strategy: GemvTStrategy,
) -> Result<(), DeviceError> {
    assert_eq!(a.rows(), x.len(), "gemv_t: x length mismatch");
    assert_eq!(a.cols(), y.len(), "gemv_t: y length mismatch");
    let out = y;
    match strategy {
        GemvTStrategy::Naive => {
            let kernel = GemvTNaiveK {
                a: a.view(),
                layout: a.layout(),
                m: a.rows(),
                n: a.cols(),
                alpha,
                x,
                beta,
                y,
            };
            l.try_launch(LaunchConfig::for_elems(a.cols(), BLOCK), &kernel)?;
        }
        GemvTStrategy::TwoPass => {
            assert_eq!(
                a.layout(),
                Layout::ColMajor,
                "two-pass gemv_t requires col-major storage"
            );
            gemv_t_two_pass(l, alpha, a.view(), a.rows(), a.cols(), x, beta, y)?;
        }
    }
    poison_if_corrupted(l.gpu(), &out);
    Ok(())
}

/// The two passes of the coalesced `gemv_t` over a col-major `m × n` block
/// `a`: 32 cooperating threads per column write partials, then one thread
/// per column reduces them.
#[allow(clippy::too_many_arguments)]
fn gemv_t_two_pass<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    alpha: T,
    a: DView<T>,
    m: usize,
    n: usize,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
) -> Result<(), DeviceError> {
    let strips = GEMV_T_STRIPS;
    let mut partials = l.gpu().try_alloc(n * strips, T::ZERO)?;
    l.try_launch(
        LaunchConfig::sweep(),
        &GemvTPass1K {
            a,
            m,
            n,
            x,
            partials: partials.view_mut(),
        },
    )?;
    poison_if_corrupted(l.gpu(), &partials.view_mut());
    l.try_launch(
        LaunchConfig::for_elems(n, BLOCK),
        &StripSumK {
            name: "gemv_t_pass2",
            partials: partials.view(),
            n,
            strips,
            out_stride: strips,
            strip_stride: 1,
            alpha,
            beta,
            y,
        },
    )?;
    Ok(())
}

/// `y ← αA[:, start..start+len]ᵀ x + βy` — transposed gemv over a
/// contiguous column block (col-major only, where a column block is a
/// contiguous sub-buffer). The workhorse of partial pricing: the solver
/// prices `len` columns per iteration instead of all of them.
// BLAS-style signature: the argument list mirrors the gemv calling
// convention plus the column-block window.
#[allow(clippy::too_many_arguments)]
pub fn gemv_t_cols<T: Scalar>(
    gpu: &Gpu,
    alpha: T,
    a: &DeviceMatrix<T>,
    start: usize,
    len: usize,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
    strategy: GemvTStrategy,
) -> Result<(), DeviceError> {
    gemv_t_cols_on(
        &mut Launcher::Direct(gpu),
        alpha,
        a,
        start,
        len,
        x,
        beta,
        y,
        strategy,
    )
}

/// [`gemv_t_cols`] through an arbitrary [`Launcher`] (direct or fused).
#[allow(clippy::too_many_arguments)]
pub fn gemv_t_cols_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    alpha: T,
    a: &DeviceMatrix<T>,
    start: usize,
    len: usize,
    x: DView<T>,
    beta: T,
    y: DViewMut<T>,
    strategy: GemvTStrategy,
) -> Result<(), DeviceError> {
    assert_eq!(
        a.layout(),
        Layout::ColMajor,
        "gemv_t_cols requires col-major storage"
    );
    assert!(start + len <= a.cols(), "column window out of range");
    assert_eq!(a.rows(), x.len(), "gemv_t_cols: x length mismatch");
    assert_eq!(len, y.len(), "gemv_t_cols: y length mismatch");
    let m = a.rows();
    let block = a.view().subview(start * m, len * m);
    let out = y;
    match strategy {
        GemvTStrategy::Naive => {
            l.try_launch(
                LaunchConfig::for_elems(len, BLOCK),
                &GemvTNaiveK {
                    a: block,
                    layout: Layout::ColMajor,
                    m,
                    n: len,
                    alpha,
                    x,
                    beta,
                    y,
                },
            )?;
        }
        GemvTStrategy::TwoPass => {
            gemv_t_two_pass(l, alpha, block, m, len, x, beta, y)?;
        }
    }
    poison_if_corrupted(l.gpu(), &out);
    Ok(())
}

/// Rank-1 update `A ← A + αxyᵀ`.
pub fn ger<T: Scalar>(
    gpu: &Gpu,
    alpha: T,
    x: DView<T>,
    y: DView<T>,
    a: &mut DeviceMatrix<T>,
) -> Result<(), DeviceError> {
    assert_eq!(a.rows(), x.len(), "ger: x length mismatch");
    assert_eq!(a.cols(), y.len(), "ger: y length mismatch");
    let (m, n, layout) = (a.rows(), a.cols(), a.layout());
    let functional_iters = match layout {
        Layout::ColMajor => n,
        Layout::RowMajor => m,
    };
    let kernel = GerK {
        alpha,
        x,
        y,
        a: a.view_mut(),
        m,
        n,
        layout,
    };
    gpu.try_launch(LaunchConfig::for_elems(functional_iters, BLOCK), &kernel)?;
    poison_if_corrupted(gpu, &a.view_mut());
    Ok(())
}

/// Gauss–Jordan column elimination on a device matrix: given the pivot
/// column values `alpha` (length `rows`) and pivot row `p`, apply
/// `M ← E·M` where `E` is the eta matrix that maps `alpha` to `e_p`.
///
/// Three launches: eta column, pivot-row extraction, O(rows·cols) update.
pub fn eliminate<T: Scalar>(
    gpu: &Gpu,
    mat: &mut DeviceMatrix<T>,
    alpha: DView<T>,
    p: usize,
) -> Result<(), DeviceError> {
    eliminate_on(&mut Launcher::Direct(gpu), mat, alpha, p)
}

/// [`eliminate`] through an arbitrary [`Launcher`] (direct or fused).
pub fn eliminate_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    mat: &mut DeviceMatrix<T>,
    alpha: DView<T>,
    p: usize,
) -> Result<(), DeviceError> {
    let (rows, cols, layout) = (mat.rows(), mat.cols(), mat.layout());
    assert_eq!(rows, alpha.len(), "eliminate: alpha length mismatch");
    assert!(p < rows, "eliminate: pivot row out of range");

    let mut eta = l.gpu().try_alloc(rows, T::ZERO)?;
    l.try_launch(
        LaunchConfig::for_elems(rows, BLOCK),
        &EtaK {
            alpha,
            p,
            eta: eta.view_mut(),
            m: rows,
        },
    )?;
    poison_if_corrupted(l.gpu(), &eta.view_mut());

    let mut rowp = l.gpu().try_alloc(cols, T::ZERO)?;
    l.try_launch(
        LaunchConfig::for_elems(cols, BLOCK),
        &RowExtractK {
            mat: mat.view(),
            rows,
            cols,
            layout,
            p,
            out: rowp.view_mut(),
        },
    )?;
    poison_if_corrupted(l.gpu(), &rowp.view_mut());

    let functional_iters = match layout {
        Layout::ColMajor => cols,
        Layout::RowMajor => rows,
    };
    l.try_launch(
        LaunchConfig::for_elems(functional_iters, BLOCK),
        &PivotUpdateK {
            mat: mat.view_mut(),
            eta: eta.view(),
            rowp: rowp.view(),
            p,
            rows,
            cols,
            layout,
        },
    )?;
    poison_if_corrupted(l.gpu(), &mat.view_mut());
    Ok(())
}

/// The revised simplex basis-inverse update (the paper's per-iteration core):
/// replace `B⁻¹ ← E·B⁻¹` where `E` is the eta matrix built from the entering
/// column `α_q = B⁻¹ a_q` and leaving row `p`.
pub fn pivot_update<T: Scalar>(
    gpu: &Gpu,
    binv: &mut DeviceMatrix<T>,
    alpha_q: DView<T>,
    p: usize,
) -> Result<(), DeviceError> {
    pivot_update_on(&mut Launcher::Direct(gpu), binv, alpha_q, p)
}

/// [`pivot_update`] through an arbitrary [`Launcher`] (direct or fused).
pub fn pivot_update_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    binv: &mut DeviceMatrix<T>,
    alpha_q: DView<T>,
    p: usize,
) -> Result<(), DeviceError> {
    assert_eq!(binv.rows(), binv.cols(), "pivot_update: B⁻¹ must be square");
    eliminate_on(l, binv, alpha_q, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dense::DenseMatrix;
    use gpu_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::gtx280())
    }

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn vector_ops_match_cpu() {
        let g = gpu();
        let xh = vec![1.0f64, -2.0, 3.0, 0.5];
        let yh = vec![4.0, 5.0, -6.0, 2.0];
        let x = g.htod(&xh);
        let mut y = g.htod(&yh);
        axpy(&g, 2.0, x.view(), y.view_mut()).unwrap();
        let mut expect = yh.clone();
        blas::axpy(2.0, &xh, &mut expect);
        assert_eq!(g.dtoh(&y), expect);

        scal(&g, 0.5, y.view_mut()).unwrap();
        blas::scal(0.5, &mut expect);
        assert_eq!(g.dtoh(&y), expect);

        assert_eq!(dot(&g, x.view(), x.view()).unwrap(), blas::dot(&xh, &xh));

        let mut z = g.alloc(4, 0.0f64);
        copy(&g, x.view(), z.view_mut()).unwrap();
        assert_eq!(g.dtoh(&z), xh);
        fill(&g, z.view_mut(), 7.0).unwrap();
        assert_eq!(g.dtoh(&z), vec![7.0; 4]);
    }

    #[test]
    fn gemv_n_matches_cpu_both_layouts() {
        let g = gpu();
        let a = DenseMatrix::from_rows(&[
            vec![1.0f64, 2.0, -1.0],
            vec![0.5, -3.0, 2.0],
            vec![4.0, 0.0, 1.0],
            vec![-1.0, 1.0, 1.0],
        ]);
        let xh = vec![2.0, -1.0, 3.0];
        let yh = vec![1.0, 1.0, 1.0, 1.0];
        let mut expect = yh.clone();
        blas::gemv_n(2.0, &a, &xh, 0.5, &mut expect);
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let da = DeviceMatrix::upload(&g, &a, layout).unwrap();
            let dx = g.htod(&xh);
            let mut dy = g.htod(&yh);
            gemv_n(&g, 2.0, &da, dx.view(), 0.5, dy.view_mut()).unwrap();
            approx(&g.dtoh(&dy), &expect, 1e-12);
        }
    }

    /// A `rows × cols` matrix with a few exact zeros and signs of both kinds.
    fn ragged_matrix(rows: usize, cols: usize) -> DenseMatrix<f64> {
        let mut a = DenseMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                a.set(i, j, ((i * 7 + j * 13) % 17) as f64 / 4.0 - 2.0);
            }
        }
        a
    }

    /// An `x` with exact zeros, which the split-K pass 1 skips.
    fn ragged_x(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| if j % 5 == 3 { 0.0 } else { (j as f64).cos() })
            .collect()
    }

    #[test]
    fn split_k_gemv_n_matches_cpu_both_layouts() {
        // n = 45 is a multiple of no candidate strip count above 1.
        let g = gpu();
        let (m, n) = (70, 45);
        let a = ragged_matrix(m, n);
        let xh = ragged_x(n);
        let yh: Vec<f64> = (0..m).map(|i| i as f64 - 30.0).collect();
        let mut expect = yh.clone();
        blas::gemv_n(1.5, &a, &xh, -0.5, &mut expect);
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let da = DeviceMatrix::upload(&g, &a, layout).unwrap();
            let dx = g.htod(&xh);
            for strips in GEMV_N_STRIP_CANDIDATES {
                let mut dy = g.htod(&yh);
                let mut l = Launcher::Direct(&g);
                gemv_n_split_on(&mut l, strips, 1.5, &da, dx.view(), -0.5, dy.view_mut()).unwrap();
                approx(&g.dtoh(&dy), &expect, 1e-12);
            }
            // The derived strip count splits this shape.
            assert!(
                gemv_n_strips::<f64>(g.spec(), layout, m, n) > 1,
                "{layout:?}"
            );
            let mut dy = g.htod(&yh);
            gemv_n(&g, 1.5, &da, dx.view(), -0.5, dy.view_mut()).unwrap();
            approx(&g.dtoh(&dy), &expect, 1e-12);
        }
    }

    #[test]
    fn split_k_gemv_n_beta_zero_heals_nan_output() {
        let g = gpu();
        let (m, n) = (64, 48);
        let a = ragged_matrix(m, n);
        let xh = ragged_x(n);
        let mut expect = vec![0.0; m];
        blas::gemv_n(1.0, &a, &xh, 0.0, &mut expect);
        let da = DeviceMatrix::upload(&g, &a, Layout::ColMajor).unwrap();
        assert!(gemv_n_strips::<f64>(g.spec(), Layout::ColMajor, m, n) > 1);
        let dx = g.htod(&xh);
        let mut dy = g.htod(&vec![f64::NAN; m]);
        gemv_n(&g, 1.0, &da, dx.view(), 0.0, dy.view_mut()).unwrap();
        let got = g.dtoh(&dy);
        assert!(got.iter().all(|v| v.is_finite()), "β = 0 must heal NaN");
        approx(&got, &expect, 1e-12);
    }

    #[test]
    fn gemv_n_pass1_sweep_is_bitwise_per_thread() {
        let g = gpu();
        let (m, n) = (37, 23);
        let a = ragged_matrix(m, n);
        let xh = ragged_x(n);
        let aij = |i: usize, j: usize| a.get(i, j);
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let da = DeviceMatrix::upload(&g, &a, layout).unwrap();
            let dx = g.htod(&xh);
            for strips in [2, 4, 8, 16] {
                let mut partials = g.alloc(m * strips, f64::NAN);
                g.launch(
                    LaunchConfig::sweep(),
                    &GemvNPass1K {
                        a: da.view(),
                        layout,
                        m,
                        n,
                        strips,
                        x: dx.view(),
                        partials: partials.view_mut(),
                    },
                );
                // Modeled thread (i, k) = tid (k·m + i), one at a time.
                let reference: Vec<f64> = (0..m * strips)
                    .map(|tid| {
                        let (i, k) = (tid % m, tid / m);
                        let mut acc = 0.0f64;
                        for j in k * n / strips..(k + 1) * n / strips {
                            if xh[j] != 0.0 {
                                acc = Scalar::mul_add(aij(i, j), xh[j], acc);
                            }
                        }
                        acc
                    })
                    .collect();
                let got = g.dtoh(&partials);
                assert!(
                    got.iter()
                        .zip(&reference)
                        .all(|(g, r)| g.to_bits() == r.to_bits()),
                    "{layout:?} strips={strips}"
                );
            }
        }
    }

    #[test]
    fn gemv_t_pass1_sweep_is_bitwise_per_thread() {
        let g = gpu();
        let (m, n) = (77, 9);
        let a = ragged_matrix(m, n);
        let xh: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let da = DeviceMatrix::upload(&g, &a, Layout::ColMajor).unwrap();
        let dx = g.htod(&xh);
        let s = GEMV_T_STRIPS;
        let mut partials = g.alloc(n * s, f64::NAN);
        g.launch(
            LaunchConfig::sweep(),
            &GemvTPass1K {
                a: da.view(),
                m,
                n,
                x: dx.view(),
                partials: partials.view_mut(),
            },
        );
        // Modeled thread (k, j) = tid (j·32 + k) sums rows k, k+32, ….
        let reference: Vec<f64> = (0..n * s)
            .map(|tid| {
                let (j, k) = (tid / s, tid % s);
                let mut acc = 0.0f64;
                let mut i = k;
                while i < m {
                    acc = Scalar::mul_add(a.get(i, j), xh[i], acc);
                    i += s;
                }
                acc
            })
            .collect();
        let got = g.dtoh(&partials);
        assert!(got
            .iter()
            .zip(&reference)
            .all(|(g, r)| g.to_bits() == r.to_bits()));
    }

    #[test]
    fn gemv_t_all_strategies_match_cpu() {
        let g = gpu();
        let a = DenseMatrix::from_rows(&[
            vec![1.0f64, 2.0, -1.0, 0.0],
            vec![0.5, -3.0, 2.0, 1.0],
            vec![4.0, 0.0, 1.0, -2.0],
        ]);
        let xh = vec![1.0, -2.0, 0.5];
        let yh = vec![0.1, 0.2, 0.3, 0.4];
        let mut expect = yh.clone();
        blas::gemv_t(1.5, &a, &xh, -1.0, &mut expect);

        for (layout, strat) in [
            (Layout::ColMajor, GemvTStrategy::Naive),
            (Layout::RowMajor, GemvTStrategy::Naive),
            (Layout::ColMajor, GemvTStrategy::TwoPass),
        ] {
            let da = DeviceMatrix::upload(&g, &a, layout).unwrap();
            let dx = g.htod(&xh);
            let mut dy = g.htod(&yh);
            gemv_t(&g, 1.5, &da, dx.view(), -1.0, dy.view_mut(), strat).unwrap();
            approx(g.dtoh(&dy).as_slice(), &expect, 1e-12);
        }
    }

    #[test]
    fn gemv_t_two_pass_covers_ragged_rows() {
        // m not a multiple of the strip count exercises the tail loop.
        let g = gpu();
        let m = 37;
        let n = 5;
        let mut a = DenseMatrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                a.set(i, j, ((i * 3 + j * 7) % 11) as f64 - 5.0);
            }
        }
        let xh: Vec<f64> = (0..m).map(|i| (i as f64).sin()).collect();
        let mut expect = vec![0.0; n];
        blas::gemv_t(1.0, &a, &xh, 0.0, &mut expect);
        let da = DeviceMatrix::upload(&g, &a, Layout::ColMajor).unwrap();
        let dx = g.htod(&xh);
        let mut dy = g.alloc(n, 0.0f64);
        gemv_t(
            &g,
            1.0,
            &da,
            dx.view(),
            0.0,
            dy.view_mut(),
            GemvTStrategy::TwoPass,
        )
        .unwrap();
        approx(&g.dtoh(&dy), &expect, 1e-10);
    }

    #[test]
    fn ger_matches_cpu_both_layouts() {
        let g = gpu();
        let base = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let xh = vec![1.0, -1.0, 2.0];
        let yh = vec![0.5, 2.0];
        let mut expect = base.clone();
        blas::ger(2.0, &xh, &yh, &mut expect);
        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let mut da = DeviceMatrix::upload(&g, &base, layout).unwrap();
            let dx = g.htod(&xh);
            let dy = g.htod(&yh);
            ger(&g, 2.0, dx.view(), dy.view(), &mut da).unwrap();
            assert_eq!(da.download(&g).unwrap(), expect);
        }
    }

    #[test]
    fn pivot_update_matches_explicit_eta_product() {
        // Apply the update to B⁻¹ and check against E·B⁻¹ computed densely.
        let g = gpu();
        let m = 6;
        let p = 2;
        let mut binv_h = DenseMatrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                binv_h.set(
                    i,
                    j,
                    ((i * 5 + j * 3) % 7) as f64 + if i == j { 2.0 } else { 0.0 },
                );
            }
        }
        let alpha_h: Vec<f64> = (0..m).map(|i| 0.5 + i as f64).collect();

        // Dense oracle: E = I with column p replaced by eta.
        let mut e = DenseMatrix::<f64>::identity(m);
        for i in 0..m {
            let v = if i == p {
                1.0 / alpha_h[p]
            } else {
                -alpha_h[i] / alpha_h[p]
            };
            e.set(i, p, v);
        }
        let mut expect = DenseMatrix::zeros(m, m);
        blas::gemm(1.0, &e, &binv_h, 0.0, &mut expect);

        for layout in [Layout::ColMajor, Layout::RowMajor] {
            let mut db = DeviceMatrix::upload(&g, &binv_h, layout).unwrap();
            let da = g.htod(&alpha_h);
            pivot_update(&g, &mut db, da.view(), p).unwrap();
            let got = db.download(&g).unwrap();
            for i in 0..m {
                for j in 0..m {
                    assert!(
                        (got.get(i, j) - expect.get(i, j)).abs() < 1e-10,
                        "layout {layout:?} ({i},{j}): {} vs {}",
                        got.get(i, j),
                        expect.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn coalesced_gemv_t_is_faster_than_naive_on_col_major() {
        // The F4 ablation in miniature: same math, different simulated time.
        let g1 = gpu();
        let g2 = gpu();
        let n = 512;
        let a = DenseMatrix::<f32>::zeros(n, n);
        let x = vec![1.0f32; n];

        let da1 = DeviceMatrix::upload(&g1, &a, Layout::ColMajor).unwrap();
        let dx1 = g1.htod(&x);
        let mut dy1 = g1.alloc(n, 0.0f32);
        g1.reset_counters();
        gemv_t(
            &g1,
            1.0,
            &da1,
            dx1.view(),
            0.0,
            dy1.view_mut(),
            GemvTStrategy::TwoPass,
        )
        .unwrap();
        let t_coalesced = g1.elapsed();

        let da2 = DeviceMatrix::upload(&g2, &a, Layout::ColMajor).unwrap();
        let dx2 = g2.htod(&x);
        let mut dy2 = g2.alloc(n, 0.0f32);
        g2.reset_counters();
        gemv_t(
            &g2,
            1.0,
            &da2,
            dx2.view(),
            0.0,
            dy2.view_mut(),
            GemvTStrategy::Naive,
        )
        .unwrap();
        let t_naive = g2.elapsed();

        assert!(
            t_naive.as_nanos() > 2.0 * t_coalesced.as_nanos(),
            "naive {t_naive} should be much slower than two-pass {t_coalesced}"
        );
    }

    #[test]
    fn corrupted_gemv_poisons_output_with_nan() {
        use gpu_sim::{FaultConfig, FaultPlan};
        let g = gpu();
        let a = DenseMatrix::from_rows(&[vec![1.0f64, 2.0], vec![3.0, 4.0]]);
        let da = DeviceMatrix::upload(&g, &a, Layout::ColMajor).unwrap();
        let dx = g.htod(&[1.0f64, 1.0]);
        let mut dy = g.alloc(2, 0.0f64);
        let mut cfg = FaultConfig::off(17);
        cfg.kernel_corrupt = 1.0;
        g.set_fault_plan(FaultPlan::new(cfg));
        gemv_n(&g, 1.0, &da, dx.view(), 0.0, dy.view_mut()).unwrap();
        g.clear_fault_plan();
        assert!(
            g.dtoh(&dy).iter().all(|v| v.is_nan()),
            "corrupted output must be NaN"
        );
    }

    #[test]
    fn faulted_launch_surfaces_device_error() {
        use gpu_sim::{FaultConfig, FaultPlan};
        let g = gpu();
        let mut dy = g.alloc(8, 0.0f64);
        let mut cfg = FaultConfig::off(23);
        cfg.kernel_fault = 1.0;
        g.set_fault_plan(FaultPlan::new(cfg));
        let err = fill(&g, dy.view_mut(), 1.0).unwrap_err();
        assert!(matches!(err, DeviceError::KernelFault { .. }));
    }
}
