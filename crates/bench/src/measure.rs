//! Measurement runners: solve one instance on one target, collect the
//! numbers every experiment reports.

use std::time::Instant;

use gplex::backends::{CpuDenseBackend, CpuSparseBackend, GpuDenseBackend};
use gplex::result::StdResult;
use gplex::trace::{NoopRecorder, Recorder};
use gplex::{RevisedSimplex, SolverOptions, Start, Status, Step};
use gpu_sim::{DeviceSpec, Gpu, TimeCategory};
use linalg::gpu::{GemvTStrategy, Layout};
use linalg::Scalar;
use lp::{LinearProgram, StandardForm};

/// GPU run configuration.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Simulated device.
    pub spec: DeviceSpec,
    /// Device matrix layout.
    pub layout: Layout,
    /// Transposed-gemv strategy.
    pub strategy: GemvTStrategy,
}

impl GpuConfig {
    /// The paper's configuration on the paper's card.
    pub fn paper() -> Self {
        GpuConfig {
            spec: DeviceSpec::gtx280(),
            layout: Layout::ColMajor,
            strategy: GemvTStrategy::TwoPass,
        }
    }
}

/// Which implementation to measure.
#[derive(Debug, Clone)]
pub enum Target {
    /// Dense serial CPU on the paper-era cost model.
    Cpu,
    /// Sparse-pricing serial CPU.
    CpuSparse,
    /// Simulated GPU.
    Gpu(GpuConfig),
}

impl Target {
    /// The paper's CPU baseline.
    pub fn cpu() -> Self {
        Target::Cpu
    }

    /// The paper's GPU implementation.
    pub fn gpu() -> Self {
        Target::Gpu(GpuConfig::paper())
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Target::Cpu => "cpu".into(),
            Target::CpuSparse => "cpu-sparse".into(),
            Target::Gpu(cfg) => {
                let layout = match cfg.layout {
                    Layout::ColMajor => "cm",
                    Layout::RowMajor => "rm",
                };
                let strat = match cfg.strategy {
                    GemvTStrategy::TwoPass => "2p",
                    GemvTStrategy::Naive => "nv",
                };
                format!("gpu[{layout}/{strat}]")
            }
        }
    }
}

/// GPU-side counters captured after a run.
#[derive(Debug, Clone, Default)]
pub struct GpuReport {
    /// Kernel launches (a fused group counts once).
    pub launches: u64,
    /// Fused launch groups issued (0 with fusion off).
    pub fused_groups: u64,
    /// Member kernels folded into fused groups.
    pub fused_kernels_folded: u64,
    /// Host→device transfers and bytes.
    pub h2d: (u64, u64),
    /// Device→host transfers and bytes.
    pub d2h: (u64, u64),
    /// Fraction of simulated time in kernel bodies.
    pub frac_kernel: f64,
    /// Fraction in launch overhead.
    pub frac_launch: f64,
    /// Fraction in PCIe transfers (both directions).
    pub frac_transfer: f64,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Termination status.
    pub status: Status,
    /// Total simplex iterations.
    pub iterations: usize,
    /// Phase-1 iterations.
    pub phase1: usize,
    /// Modeled/simulated seconds (the primary metric).
    pub sim_seconds: f64,
    /// Wall-clock seconds of this Rust process (secondary).
    pub wall_seconds: f64,
    /// Standard-form objective.
    pub z_std: f64,
    /// Original-sense objective.
    pub objective: f64,
    /// Per-step simulated seconds, in [`Step::ALL`] order.
    pub step_seconds: Vec<f64>,
    /// GPU counters when the target was a GPU.
    pub gpu: Option<GpuReport>,
}

impl Measurement {
    fn from_result<T: Scalar>(
        sf: &StandardForm<T>,
        res: &StdResult<T>,
        wall: f64,
        gpu: Option<GpuReport>,
    ) -> Self {
        Measurement {
            status: res.status,
            iterations: res.stats.iterations,
            phase1: res.stats.phase1_iterations,
            sim_seconds: res.stats.total_time().as_secs_f64(),
            wall_seconds: wall,
            z_std: res.z_std,
            objective: sf.objective_from_std(res.z_std),
            step_seconds: Step::ALL
                .iter()
                .map(|s| res.stats.time(*s).as_secs_f64())
                .collect(),
            gpu,
        }
    }
}

/// Standardize and solve `model` on `target` (no presolve/scaling — the
/// experiments measure the solver, not the pipeline).
pub fn run_model<T: Scalar>(
    model: &LinearProgram,
    target: &Target,
    opts: &SolverOptions,
) -> Measurement {
    let sf = StandardForm::<T>::from_lp(model).expect("experiment model standardizes");
    run_standard(&sf, target, opts)
}

/// Solve a prepared standard form on `target`.
pub fn run_standard<T: Scalar>(
    sf: &StandardForm<T>,
    target: &Target,
    opts: &SolverOptions,
) -> Measurement {
    run_standard_full(sf, target, opts).0
}

/// Like [`run_standard`], also returning the raw [`StdResult`] (for
/// certificate checks that need the final basis).
pub fn run_standard_full<T: Scalar>(
    sf: &StandardForm<T>,
    target: &Target,
    opts: &SolverOptions,
) -> (Measurement, StdResult<T>) {
    run_standard_impl(sf, target, opts, None::<&mut NoopRecorder>)
}

/// Like [`run_standard_full`], with every solver step reported to `rec` as
/// a [`gplex::trace`] span — the entry point for the step-profiling
/// experiment (O1).
pub fn run_standard_traced<T: Scalar, R: Recorder>(
    sf: &StandardForm<T>,
    target: &Target,
    opts: &SolverOptions,
    rec: &mut R,
) -> (Measurement, StdResult<T>) {
    run_standard_impl(sf, target, opts, Some(rec))
}

fn run_standard_impl<T: Scalar, R: Recorder>(
    sf: &StandardForm<T>,
    target: &Target,
    opts: &SolverOptions,
    rec: Option<&mut R>,
) -> (Measurement, StdResult<T>) {
    fn solve_with<'a, T: Scalar, B: gplex::Backend<T>, R: Recorder>(
        be: &'a mut B,
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        rec: Option<&'a mut R>,
    ) -> StdResult<T> {
        match rec {
            Some(r) => RevisedSimplex::new(be, sf, opts, Start::Cold, None, Some(r)).solve(),
            None => RevisedSimplex::new(be, sf, opts, Start::Cold, None, None::<&mut NoopRecorder>)
                .solve(),
        }
    }

    let n_active = sf.num_cols() - sf.num_artificials;
    let wall = Instant::now();
    match target {
        Target::Cpu => {
            let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
            let res = solve_with(&mut be, sf, opts, rec);
            let m = Measurement::from_result(sf, &res, wall.elapsed().as_secs_f64(), None);
            (m, res)
        }
        Target::CpuSparse => {
            let mut be = CpuSparseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
            let res = solve_with(&mut be, sf, opts, rec);
            let m = Measurement::from_result(sf, &res, wall.elapsed().as_secs_f64(), None);
            (m, res)
        }
        Target::Gpu(cfg) => {
            let gpu = Gpu::new(cfg.spec.clone());
            let mut be = GpuDenseBackend::with_layout(
                &gpu,
                &sf.a,
                &sf.b,
                n_active,
                &sf.basis0,
                cfg.layout,
                cfg.strategy,
            );
            be.set_fuse_launches(opts.fuse_launches);
            let res = solve_with(&mut be, sf, opts, rec);
            let c = gpu.counters();
            let report = GpuReport {
                launches: c.kernels_launched,
                fused_groups: c.fused_groups,
                fused_kernels_folded: c.fused_kernels_folded,
                h2d: (c.h2d_count, c.h2d_bytes),
                d2h: (c.d2h_count, c.d2h_bytes),
                frac_kernel: c.breakdown.fraction(TimeCategory::KernelBody),
                frac_launch: c.breakdown.fraction(TimeCategory::LaunchOverhead),
                frac_transfer: c.breakdown.fraction(TimeCategory::TransferH2D)
                    + c.breakdown.fraction(TimeCategory::TransferD2H),
            };
            let m = Measurement::from_result(sf, &res, wall.elapsed().as_secs_f64(), Some(report));
            (m, res)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lp::generator;

    fn opts() -> SolverOptions {
        SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        }
    }

    #[test]
    fn cpu_and_gpu_measurements_agree_on_objective() {
        let model = generator::dense_random(24, 32, 5);
        let c = run_model::<f32>(&model, &Target::cpu(), &opts());
        let g = run_model::<f32>(&model, &Target::gpu(), &opts());
        assert_eq!(c.status, Status::Optimal);
        assert_eq!(g.status, Status::Optimal);
        assert!((c.objective - g.objective).abs() < 1e-3);
        assert!(c.sim_seconds > 0.0 && g.sim_seconds > 0.0);
        let gr = g.gpu.unwrap();
        // Fusion (default on) folds member kernels into grouped launches.
        assert!(gr.launches + gr.fused_kernels_folded > 100);
        assert!(gr.fused_groups > 0);
        assert!(gr.launches < gr.launches + gr.fused_kernels_folded);
        assert!(gr.frac_kernel + gr.frac_launch + gr.frac_transfer > 0.99);
    }

    #[test]
    fn small_problems_favor_cpu() {
        // The paper's crossover: tiny LPs lose on the GPU.
        let model = generator::dense_random(32, 32, 2);
        let c = run_model::<f32>(&model, &Target::cpu(), &opts());
        let g = run_model::<f32>(&model, &Target::gpu(), &opts());
        assert!(
            g.sim_seconds > c.sim_seconds,
            "gpu {:.2e}s should lose to cpu {:.2e}s at m=32",
            g.sim_seconds,
            c.sim_seconds
        );
    }

    #[test]
    fn step_seconds_cover_total() {
        let model = generator::dense_random(16, 16, 3);
        let m = run_model::<f64>(&model, &Target::gpu(), &opts());
        let sum: f64 = m.step_seconds.iter().sum();
        assert!((sum - m.sim_seconds).abs() < 1e-9);
    }
}
