//! Full-tableau simplex on the simulated GPU — the baseline the revised
//! method displaces. The whole `(m+1) × (n+1)` tableau (cost row included)
//! lives in device memory and is re-eliminated with the eta kernel every
//! iteration: O(m·n) work per pivot versus the revised method's O(m²)
//! basis-inverse update, which is exactly the trade the paper's method
//! exploits when `n > m`.

use gpu_sim::{DView, DViewMut, Gpu, Kernel, KernelCost, LaunchConfig, SimTime, ThreadCtx};
use linalg::gpu::{self as gblas, DeviceMatrix, Layout};
use linalg::{DenseMatrix, Scalar};
use lp::StandardForm;

use crate::backends::gpu_kernels::RatioK;
use crate::options::{PivotRule, SolverOptions};
use crate::result::Status;
use crate::tableau::TableauResult;

/// Insert a dense vector as row `p` of a col-major device matrix
/// (strided writes — the honest cost of touching a row).
struct RowInsertK<T: Scalar> {
    mat: DViewMut<T>,
    rows: usize,
    cols: usize,
    p: usize,
    src: DView<T>,
}

impl<T: Scalar> Kernel for RowInsertK<T> {
    fn name(&self) -> &'static str {
        "row_insert"
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        if j < self.cols {
            self.mat.set(self.p + j * self.rows, self.src.get(j));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.cols as u64;
        KernelCost::new()
            .read(gpu_sim::AccessPattern::coalesced::<T>(n))
            .write(gpu_sim::AccessPattern::strided::<T>(
                n,
                self.rows as u64 * T::BYTES,
            ))
            .active_threads(cfg, n)
    }
}

/// Solve a standard form with the full-tableau method on the device.
///
/// Returns the result plus the simulated device time (read from `gpu`'s
/// clock delta). Pricing uses the given rule; the Hybrid stall fallback is
/// honored like the revised driver's.
pub fn solve_standard_gpu<T: Scalar>(
    gpu: &Gpu,
    sf: &StandardForm<T>,
    opts: &SolverOptions,
) -> (TableauResult<T>, SimTime) {
    let started = gpu.elapsed();
    let m = sf.num_rows();
    let n = sf.num_cols();
    let max_iters = opts.max_iters_for(m, n);
    let opt_tol = opts.opt_tol_for::<T>();
    let pivot_tol = opts.pivot_tol_for::<T>();

    // Host-side tableau assembly: [A | b] over the constraint rows; the
    // cost row is installed per phase below.
    let mut tab_h = DenseMatrix::<T>::zeros(m + 1, n + 1);
    for j in 0..n {
        for i in 0..m {
            tab_h.set(i, j, sf.a.get(i, j));
        }
    }
    for i in 0..m {
        tab_h.set(i, n, sf.b[i]);
    }
    let mut basis = sf.basis0.clone();
    let mut total_iters = 0usize;

    // One upload; phases swap only the cost row. The tableau baseline is
    // never fault-armed (resilience targets the revised pipeline), so the
    // fallible ops below unwrap with that invariant.
    let mut tab = DeviceMatrix::upload(gpu, &tab_h, Layout::ColMajor)
        .expect("tableau device is never fault-armed");
    let xb0: Vec<u32> = basis.iter().map(|&j| j as u32).collect();
    let mut xb = gpu.htod(&xb0);

    let install_cost_row =
        |gpu: &Gpu, tab: &mut DeviceMatrix<T>, basis: &[usize], costs: &dyn Fn(usize) -> T| {
            // d_j = c_j − Σ_i c_B(i)·T[i,j] computed host-side from the *current*
            // device tableau (downloaded once per phase — charged).
            let cur = tab
                .download(gpu)
                .expect("tableau device is never fault-armed");
            let mut row = vec![T::ZERO; n + 1];
            for (j, r) in row.iter_mut().enumerate().take(n) {
                let mut d = costs(j);
                for (i, &bj) in basis.iter().enumerate() {
                    d -= costs(bj) * cur.get(i, j);
                }
                *r = d;
            }
            // Corner: −z = −c_B·b̂.
            let mut z = T::ZERO;
            for (i, &bj) in basis.iter().enumerate() {
                z += costs(bj) * cur.get(i, n);
            }
            row[n] = -z;
            let src = gpu.htod(&row);
            gpu.launch(
                LaunchConfig::for_elems(n + 1, 128),
                &RowInsertK {
                    mat: tab.view_mut(),
                    rows: m + 1,
                    cols: n + 1,
                    p: m,
                    src: src.view(),
                },
            );
        };

    let run_phase = |gpu: &Gpu,
                     tab: &mut DeviceMatrix<T>,
                     xb: &mut gpu_sim::DeviceBuffer<u32>,
                     basis: &mut Vec<usize>,
                     n_price: usize,
                     iters_budget: usize|
     -> (Status, usize) {
        let mut iters = 0usize;
        let mut stall = 0usize;
        let mut bland = matches!(opts.pivot_rule, PivotRule::Bland);
        loop {
            if iters >= iters_budget {
                return (Status::IterationLimit, iters);
            }
            // Entering: the cost row is row m of the tableau; extract it to
            // a contiguous vector (strided read) and reduce.
            let mut d = gpu.alloc(n_price, T::ZERO);
            gpu.launch(
                LaunchConfig::for_elems(n_price, 128),
                &linalg::gpu::RowExtractK {
                    mat: tab.view(),
                    rows: m + 1,
                    cols: n_price,
                    layout: Layout::ColMajor,
                    p: m,
                    out: d.view_mut(),
                },
            );
            gpu.launch(
                LaunchConfig::for_elems(m, 128),
                &crate::backends::gpu_kernels::MaskBasicK {
                    d: d.view_mut(),
                    xb: xb.view(),
                    m,
                    n_active: n_price,
                },
            );
            let q = if bland {
                let mut idx = gpu.alloc(n_price, u32::MAX);
                gpu.launch(
                    LaunchConfig::for_elems(n_price, 128),
                    &crate::backends::gpu_kernels::MapNegIdxK {
                        d: d.view(),
                        tol: opt_tol,
                        out: idx.view_mut(),
                        n: n_price,
                    },
                );
                let q = gblas::reduce_u32_min(gpu, idx.view(), n_price)
                    .expect("tableau device is never fault-armed");
                if q == u32::MAX {
                    return (Status::Optimal, iters);
                }
                q as usize
            } else {
                let (v, q) = gblas::argmin(gpu, d.view(), n_price)
                    .expect("tableau device is never fault-armed");
                if !(v < -opt_tol) {
                    return (Status::Optimal, iters);
                }
                q as usize
            };

            // Ratio test over the constraint rows of column q.
            let col_q = tab.col_view(q); // length m+1; restrict to m rows
            let alpha = col_q.subview(0, m);
            let beta = tab.col_view(n).subview(0, m);
            let mut ratios = gpu.alloc(m, T::ZERO);
            gpu.launch(
                LaunchConfig::for_elems(m, 128),
                &RatioK {
                    alpha,
                    beta,
                    tol: pivot_tol,
                    shift: T::ZERO,
                    out: ratios.view_mut(),
                    m,
                },
            );
            let (theta, p) =
                gblas::argmin(gpu, ratios.view(), m).expect("tableau device is never fault-armed");
            if !theta.is_finite() {
                return (Status::Unbounded, iters);
            }
            let p = p as usize;

            // Eliminate around (p, q) across the whole tableau, cost row
            // included — one eta application over (m+1)×(n+1) values.
            gblas::eliminate(gpu, tab, col_q, p).expect("tableau device is never fault-armed");
            basis[p] = q;
            gpu.htod_elem(xb, p, q as u32);

            if theta > T::ZERO {
                stall = 0;
                if matches!(opts.pivot_rule, PivotRule::Hybrid) {
                    bland = false;
                }
            } else {
                stall += 1;
                if matches!(opts.pivot_rule, PivotRule::Hybrid) && stall >= opts.stall_threshold {
                    bland = true;
                }
            }
            iters += 1;
        }
    };

    let n_price = n - sf.num_artificials;

    // Phase 1.
    if sf.num_artificials > 0 {
        let c1 = |j: usize| if sf.is_artificial(j) { T::ONE } else { T::ZERO };
        install_cost_row(gpu, &mut tab, &basis, &c1);
        let (status, iters) = run_phase(gpu, &mut tab, &mut xb, &mut basis, n_price, max_iters);
        total_iters += iters;
        match status {
            Status::Optimal => {}
            Status::IterationLimit => {
                return (
                    assemble(gpu, sf, &tab, &basis, Status::IterationLimit, total_iters),
                    gpu.elapsed() - started,
                )
            }
            _ => {
                return (
                    assemble(gpu, sf, &tab, &basis, Status::SingularBasis, total_iters),
                    gpu.elapsed() - started,
                )
            }
        }
        // Feasibility: Σ artificial basic values from the rhs column.
        let rhs = gpu.dtoh_range(tab.buffer(), n * (m + 1), m);
        let z1: f64 = basis
            .iter()
            .enumerate()
            .filter(|&(_, &j)| sf.is_artificial(j))
            .map(|(i, _)| rhs[i].to_f64())
            .sum();
        if z1 > opts.feas_tol_for::<T>().to_f64() {
            return (
                assemble(gpu, sf, &tab, &basis, Status::Infeasible, total_iters),
                gpu.elapsed() - started,
            );
        }
    }

    // Phase 2.
    let c2 = |j: usize| sf.c[j];
    install_cost_row(gpu, &mut tab, &basis, &c2);
    let (status, iters) = run_phase(gpu, &mut tab, &mut xb, &mut basis, n_price, max_iters);
    total_iters += iters;
    (
        assemble(gpu, sf, &tab, &basis, status, total_iters),
        gpu.elapsed() - started,
    )
}

fn assemble<T: Scalar>(
    gpu: &Gpu,
    sf: &StandardForm<T>,
    tab: &DeviceMatrix<T>,
    basis: &[usize],
    status: Status,
    iterations: usize,
) -> TableauResult<T> {
    let m = sf.num_rows();
    let n = sf.num_cols();
    // Download just the rhs column (contiguous in col-major).
    let rhs = gpu.dtoh_range(tab.buffer(), n * (m + 1), m);
    let mut x_std = vec![T::ZERO; n];
    for (i, &j) in basis.iter().enumerate() {
        x_std[j] = rhs[i].maxs(T::ZERO);
    }
    let z_std =
        sf.c.iter()
            .zip(&x_std)
            .map(|(&c, &x)| c.to_f64() * x.to_f64())
            .sum();
    TableauResult {
        status,
        x_std,
        z_std,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;
    use lp::generator::{self, fixtures};

    fn opts() -> SolverOptions {
        SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        }
    }

    fn solve_lp_gpu(model: &lp::LinearProgram) -> (Status, f64, usize, SimTime) {
        let sf = StandardForm::<f64>::from_lp(model).expect("standardizes");
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let (res, t) = solve_standard_gpu(&gpu, &sf, &opts());
        (
            res.status,
            sf.objective_from_std(res.z_std),
            res.iterations,
            t,
        )
    }

    #[test]
    fn gpu_tableau_solves_wyndor() {
        let (model, expected) = fixtures::wyndor();
        let (status, obj, iters, t) = solve_lp_gpu(&model);
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9, "obj {obj}");
        assert!(iters >= 2);
        assert!(t.as_nanos() > 0.0);
    }

    #[test]
    fn gpu_tableau_two_phase() {
        let (model, expected) = fixtures::two_phase();
        let (status, obj, _, _) = solve_lp_gpu(&model);
        assert_eq!(status, Status::Optimal);
        assert!((obj - expected).abs() < 1e-9, "obj {obj}");
    }

    #[test]
    fn gpu_tableau_detects_infeasible_and_unbounded() {
        let (status, _, _, _) = solve_lp_gpu(&fixtures::infeasible());
        assert_eq!(status, Status::Infeasible);
        let (status, _, _, _) = solve_lp_gpu(&fixtures::unbounded());
        assert_eq!(status, Status::Unbounded);
    }

    #[test]
    fn gpu_tableau_matches_cpu_tableau_on_random_instances() {
        for seed in 0..4 {
            let model = generator::dense_random(12, 18, seed);
            let sf = StandardForm::<f64>::from_lp(&model).unwrap();
            let cpu = crate::tableau::solve_standard(&sf, &opts());
            let gpu = Gpu::new(DeviceSpec::gtx280());
            let (dev, _) = solve_standard_gpu(&gpu, &sf, &opts());
            assert_eq!(cpu.status, dev.status, "seed {seed}");
            assert!(
                (cpu.z_std - dev.z_std).abs() / cpu.z_std.abs().max(1.0) < 1e-9,
                "seed {seed}: {} vs {}",
                cpu.z_std,
                dev.z_std
            );
        }
    }

    #[test]
    fn gpu_tableau_agrees_with_revised_gpu_in_f32() {
        // Same optimum from both methods; the performance comparison
        // (revised O(m²) update vs tableau O(m·n) elimination) lives in
        // experiment T1b at arithmetic-dominated sizes — at unit-test sizes
        // both are launch-overhead-bound and the comparison is meaningless.
        let model = generator::dense_random(48, 480, 3);
        let sf = StandardForm::<f32>::from_lp(&model).unwrap();
        let o = opts();

        let gpu1 = Gpu::new(DeviceSpec::gtx280());
        let (tab_res, t_tab) = solve_standard_gpu(&gpu1, &sf, &o);
        assert_eq!(tab_res.status, Status::Optimal);
        assert!(t_tab.as_nanos() > 0.0);

        let gpu2 = Gpu::new(DeviceSpec::gtx280());
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut be =
            crate::backends::GpuDenseBackend::new(&gpu2, &sf.a, &sf.b, n_active, &sf.basis0);
        let rev = crate::revised::RevisedSimplex::new(
            &mut be,
            &sf,
            &o,
            crate::Start::Cold,
            None,
            None::<&mut crate::NoopRecorder>,
        )
        .solve();
        assert_eq!(rev.status, Status::Optimal);

        assert!(
            (tab_res.z_std - rev.z_std).abs() / rev.z_std.abs().max(1.0) < 1e-4,
            "{} vs {}",
            tab_res.z_std,
            rev.z_std
        );
    }
}
