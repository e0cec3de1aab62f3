//! `gplex::pdhg` — reflected restarted-Halpern PDHG, the second algorithm
//! family.
//!
//! The revised simplex earns its keep on small dense instances: every
//! iteration is a handful of `m × m` products, and the iteration count is
//! modest. First-order methods invert that trade. One PDHG iteration on the
//! standardized LP
//!
//! ```text
//!     min c̃ᵀx̃   s.t.   Ãx̃ = b̃,  x̃ ≥ 0
//! ```
//!
//! is two sparse matrix–vector products plus two elementwise updates —
//! `O(nnz)` work, no factorization, no basis — so on large sparse models a
//! PDHG iteration costs orders of magnitude less than a simplex pivot. The
//! chain maps onto four GPU kernels (see [`linalg::gpu::PdhgPrimalK`]), and
//! since no host decision falls between two residual checks, a whole check
//! block of chains fuses into a single launch. The P1 experiment measures
//! exactly this regime split.
//!
//! ## The iteration
//!
//! With primal step `τ = 0.9·ω/‖A‖₂` and dual step `σ = 0.9/(ω·‖A‖₂)`
//! (`ω` the primal weight), let `T(z) = (x⁺, y⁺)` be one PDHG step from
//! `z = (x, y)`. The iterate moves by the reflected Halpern step
//! `z ← λ(2T(z) − z) + (1−λ)z₀`:
//!
//! ```text
//!     g  = Ãᵀy                                   (CSC gather)
//!     x⁺ = max(0, x − τ(c̃ − g))                  (projection)
//!     x̄  = 2x⁺ − x                                (reflection)
//!     x  = λx̄ + (1−λ)x₀                           (Halpern anchor pull)
//!     a  = Ãx̄                                     (CSR product)
//!     y⁺ = y + σ(b̃ − a)
//!     y  = λ(2y⁺ − y) + (1−λ)y₀
//! ```
//!
//! with `λ = (k+1)/(k+2)` counted from the last restart and `(x₀, y₀)` the
//! restart anchor. The reflected iterate is not projected (`x` can go
//! negative), so everything the driver decides and returns uses the PDHG
//! output `T(z)`. On a block's last iteration the kernels write `x⁺` over
//! `g` and `y⁺` over `a`, and every `CHECK_INTERVAL` (32) iterations the
//! driver downloads `g‖a` together with the iterate (the two halves of one
//! device buffer) and evaluates normalized residuals of `T(z)` in f64:
//!
//! ```text
//!     rp  = ‖Ãx⁺ − b̃‖ / (1 + ‖b̃‖)
//!     rd  = ‖min(c̃ − Ãᵀy⁺, 0)‖ / (1 + ‖c̃‖)
//!     gap = |c̃ᵀx⁺ − b̃ᵀy⁺| / (1 + |c̃ᵀx⁺| + |b̃ᵀy⁺|)
//! ```
//!
//! terminating with `T(z)` when all three fall below the tolerance. It
//! *restarts* (iterate ← anchor ← `T(z)`, `k ← 0`) on cuPDLPx's conditions
//! on the fixed-point residual `r = ‖z − T(z)‖_P` (the norm in which `T` is
//! nonexpansive): `r` fell to `BETA_SUFFICIENT` (0.2) of its value at the
//! last restart; or to `BETA_NECESSARY` (0.8) of it while growing since the
//! previous check; or the cycle has run `BETA_ARTIFICIAL` (0.36) of all
//! iterations so far. This restarted-Halpern scheme turns PDHG's sublinear
//! tail into linear convergence on LPs. A restart swaps the roles of the
//! iterate and `g‖a` halves on the host and copies the new iterate into the
//! anchor: one device copy. Each restart also rebalances the primal weight
//! from the observed movement ratio `‖Δy‖/‖Δx‖`.
//!
//! Everything is deterministic: no randomness, fixed reduction orders, and
//! the restart schedule is a pure function of the iterate — two identical
//! runs produce bitwise-identical iterates (pinned by the differential
//! suite via the iterate fingerprint in
//! [`SolveStats::pivot_fingerprint`]).
//!
//! Artificial columns are excluded from the active matrix: PDHG needs no
//! phase 1, so the artificials' only effect would be to pollute `‖A‖₂`.

use std::time::Instant;

use gpu_sim::{DeviceBuffer, FaultConfig, Gpu, Launcher, SimTime};
use linalg::cpu_model::{CpuClock, CpuModel};
use linalg::gpu as gblas;
use linalg::{CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, DeviceCsc, DeviceCsr, Scalar};
use lp::{LinearProgram, StandardForm};

use crate::error::SolveError;
use crate::result::{LpSolution, Status};
use crate::solver::{on_target, BackendKind, SolveRequest, Target};
use crate::stats::{SolveStats, Step};
use crate::trace::{Recorder, StepKind};

/// Configuration for the PDHG solver family.
#[derive(Debug, Clone, PartialEq)]
pub struct PdhgOptions {
    /// Hard iteration cap; `None` = 200 000.
    pub max_iterations: Option<usize>,
    /// Run presolve in the high-level pipeline.
    pub presolve: bool,
    /// Apply geometric-mean scaling in the high-level pipeline.
    pub scale: bool,
    /// Submit each check block's four-kernel chains (32 iterations) as one
    /// fused launch (GPU backends only; accounting toggle, arithmetic is
    /// identical).
    pub fuse_launches: bool,
    /// Wall-clock deadline for one solve, in seconds.
    pub time_limit: Option<f64>,
    /// Fault-injection plan armed on the device before the solve (GPU
    /// backends only; ignored on CPU).
    pub faults: Option<FaultConfig>,
}

impl Default for PdhgOptions {
    fn default() -> Self {
        PdhgOptions {
            max_iterations: None,
            presolve: true,
            scale: true,
            fuse_launches: true,
            time_limit: None,
            faults: None,
        }
    }
}

impl PdhgOptions {
    /// Resolved iteration cap.
    pub fn max_iters(&self) -> usize {
        self.max_iterations.unwrap_or(200_000)
    }
}

/// Termination tolerance on the normalized primal/dual residuals and
/// duality gap, by precision: `1e-8` for f64, `1e-4` for f32.
fn tol_for<T: Scalar>() -> f64 {
    if T::IS_F64 {
        1e-8
    } else {
        1e-4
    }
}

/// Residuals are evaluated (and restarts considered) every this many
/// iterations. Checks download the iterate, so on GPU backends this is also
/// the PCIe cadence and the length of one fused launch.
const CHECK_INTERVAL: usize = 32;

/// cuPDLPx's restart conditions (arXiv 2507.14051, §3.2) on the fixed-point
/// residual `r = ‖z − T(z)‖_P`: restart when `r` has fallen to
/// `BETA_SUFFICIENT` of its value at the last restart, or to
/// `BETA_NECESSARY` of it with no progress since the previous check, or when
/// the current cycle has run `BETA_ARTIFICIAL` of all iterations so far.
const BETA_SUFFICIENT: f64 = 0.2;
const BETA_NECESSARY: f64 = 0.8;
const BETA_ARTIFICIAL: f64 = 0.36;

/// Result of a standard-form PDHG solve.
pub(crate) struct PdhgStdResult<T: Scalar> {
    /// Termination status (`Optimal` or `IterationLimit`; PDHG cannot
    /// certify infeasibility — presolve catches the obvious cases).
    pub(crate) status: Status,
    /// Standard-form point, full `num_cols` length (artificials zero).
    pub(crate) x_std: Vec<T>,
    /// Standard-space duals (one per row), in f64.
    pub(crate) y_std: Vec<f64>,
    /// Statistics (`pdhg_iterations`/`restarts`/`final_gap` populated;
    /// `iterations` stays 0 — there are no pivots).
    pub(crate) stats: SolveStats,
}

/// Should the crossover picker route this shape to PDHG instead of the
/// simplex? The regime split the P1 experiment measures: simplex wins
/// small/dense (few pivots, cheap basis ops), PDHG wins large/sparse
/// (`O(nnz)` iterations against `O(m²)` pivots).
pub fn crossover_prefers_pdhg(rows: usize, cols: usize, density: f64) -> bool {
    rows.max(cols) >= 256 && density <= 0.05
}

/// Constraint-matrix density of an original-form model (nonzero
/// coefficients over `m·n`), for the crossover picker.
pub fn model_density(model: &LinearProgram) -> f64 {
    let cells = model.num_constraints() * model.num_vars();
    if cells == 0 {
        return 0.0;
    }
    let nnz: usize = model
        .constraints()
        .iter()
        .map(|c| c.coeffs.iter().filter(|(_, a)| *a != 0.0).count())
        .sum();
    nnz as f64 / cells as f64
}

// ---------------------------------------------------------------------------
// Problem data
// ---------------------------------------------------------------------------

/// Host-side problem data shared by every backend: the active submatrix
/// (artificial columns dropped) in both CSR and CSC plus an f64 shadow for
/// residual checks, and the norms the step sizes derive from.
struct PdhgProblem<T: Scalar> {
    csr: CsrMatrix<T>,
    csc: CscMatrix<T>,
    b: Vec<T>,
    c: Vec<T>,
    csr64: CsrMatrix<f64>,
    b64: Vec<f64>,
    c64: Vec<f64>,
    m: usize,
    n: usize,
    norm_b: f64,
    norm_c: f64,
    a_norm: f64,
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `‖a − b‖₂` of the f64 differences, summed in [`l2`]'s order.
fn distance<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(a, b)| (*a - *b).to_f64())
        .map(|d| d * d)
        .sum::<f64>()
        .sqrt()
}

impl<T: Scalar> PdhgProblem<T> {
    fn build(sf: &StandardForm<T>) -> Self {
        let m = sf.num_rows();
        let n = sf.num_cols() - sf.num_artificials;
        let mut coo = CooMatrix::<T>::new(m, n);
        let mut coo64 = CooMatrix::<f64>::new(m, n);
        for i in 0..m {
            for j in 0..n {
                let v = sf.a.get(i, j);
                if v != T::ZERO {
                    coo.push(i, j, v);
                    coo64.push(i, j, v.to_f64());
                }
            }
        }
        let csr = coo.to_csr();
        let csc = csr.to_csc();
        let csr64 = coo64.to_csr();
        let b: Vec<T> = sf.b.clone();
        let c: Vec<T> = sf.c[..n].to_vec();
        let b64: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
        let c64: Vec<f64> = c.iter().map(|v| v.to_f64()).collect();
        let norm_b = l2(&b64);
        let norm_c = l2(&c64);
        let a_norm = spectral_norm(&csr64);
        PdhgProblem {
            csr,
            csc,
            b,
            c,
            csr64,
            b64,
            c64,
            m,
            n,
            norm_b,
            norm_c,
            a_norm,
        }
    }
}

/// Deterministic power-iteration estimate of `‖A‖₂` (host, f64): 24 rounds
/// of `v ← AᵀAv` from an all-ones start. No randomness — the estimate (and
/// therefore the whole step-size schedule) is a pure function of the data.
fn spectral_norm(a: &CsrMatrix<f64>) -> f64 {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return 1.0;
    }
    let mut v = vec![1.0f64; n];
    let mut u = vec![0.0f64; m];
    let mut w = vec![0.0f64; n];
    let mut sigma2 = 0.0;
    for _ in 0..24 {
        let nv = l2(&v);
        if nv == 0.0 || !nv.is_finite() {
            break;
        }
        for x in v.iter_mut() {
            *x /= nv;
        }
        a.spmv(&v, &mut u);
        a.spmv_t(&u, &mut w);
        sigma2 = l2(&w);
        std::mem::swap(&mut v, &mut w);
    }
    let s = sigma2.sqrt();
    if s.is_finite() && s > 0.0 {
        s
    } else {
        1.0
    }
}

/// Normalized residuals of a point, evaluated on the f64 shadow.
struct Residuals {
    rp: f64,
    rd: f64,
    gap: f64,
}

/// The driver's f64 scratch for [`residuals`] and
/// [`fixed_point_residual`]: a primal and a dual vector and the two
/// products, allocated once per solve rather than once per check.
struct ResidualScratch {
    xf: Vec<f64>,
    yf: Vec<f64>,
    ax: Vec<f64>,
    g: Vec<f64>,
}

impl ResidualScratch {
    fn new<T: Scalar>(prob: &PdhgProblem<T>) -> Self {
        ResidualScratch {
            xf: vec![0.0; prob.n],
            yf: vec![0.0; prob.m],
            ax: vec![0.0; prob.m],
            g: vec![0.0; prob.n],
        }
    }
}

fn residuals<T: Scalar>(
    prob: &PdhgProblem<T>,
    x: &[T],
    y: &[T],
    s: &mut ResidualScratch,
) -> Residuals {
    for (d, v) in s.xf.iter_mut().zip(x) {
        *d = v.to_f64();
    }
    for (d, v) in s.yf.iter_mut().zip(y) {
        *d = v.to_f64();
    }
    let ResidualScratch { xf, yf, ax, g } = s;
    prob.csr64.spmv(xf, ax);
    let rp = ax
        .iter()
        .zip(&prob.b64)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
        / (1.0 + prob.norm_b);
    prob.csr64.spmv_t(yf, g);
    let rd = prob
        .c64
        .iter()
        .zip(g.iter())
        .map(|(c, gj)| (c - gj).min(0.0))
        .map(|d| d * d)
        .sum::<f64>()
        .sqrt()
        / (1.0 + prob.norm_c);
    let px: f64 = prob.c64.iter().zip(xf.iter()).map(|(c, x)| c * x).sum();
    let dy: f64 = prob.b64.iter().zip(yf.iter()).map(|(b, y)| b * y).sum();
    let gap = (px - dy).abs() / (1.0 + px.abs() + dy.abs());
    Residuals { rp, rd, gap }
}

/// The fixed-point residual `‖z_k − T(z_k)‖_P` of a block's last iterate,
/// in the norm `‖(dx, dy)‖²_P = ‖dx‖²/τ + ‖dy‖²/σ − 2dyᵀÃdx` in which `T`
/// is nonexpansive. The block ended on
/// `z_{k+1} = λ(2T(z_k) − z_k) + (1−λ)z₀`, so
/// `z_k − T(z_k) = T(z_k) − (z_{k+1} − (1−λ)z₀)/λ` needs no extra state.
fn fixed_point_residual<T: Scalar>(
    prob: &PdhgProblem<T>,
    end: &BlockEnd<T>,
    (x0, y0): (&[T], &[T]),
    lam: f64,
    tau: f64,
    sigma: f64,
    s: &mut ResidualScratch,
) -> f64 {
    let mu = 1.0 - lam;
    let diff = |t: T, z: T, z0: T| t.to_f64() - (z.to_f64() - mu * z0.to_f64()) / lam;
    for (j, d) in s.xf.iter_mut().enumerate() {
        *d = diff(end.x[j], end.zx[j], x0[j]);
    }
    for (i, d) in s.yf.iter_mut().enumerate() {
        *d = diff(end.y[i], end.zy[i], y0[i]);
    }
    prob.csr64.spmv(&s.xf, &mut s.ax);
    let dx2: f64 = s.xf.iter().map(|d| d * d).sum();
    let dy2: f64 = s.yf.iter().map(|d| d * d).sum();
    let cross: f64 = s.yf.iter().zip(&s.ax).map(|(d, a)| d * a).sum();
    (dx2 / tau + dy2 / sigma - 2.0 * cross).max(0.0).sqrt()
}

// ---------------------------------------------------------------------------
// Backend operations
// ---------------------------------------------------------------------------

/// Halpern weight `λ = (k+1)/(k+2)` of iteration `k` since the last restart.
fn halpern_lambda<T: Scalar>(k: u64) -> T {
    T::from_f64((k + 1) as f64 / (k + 2) as f64)
}

/// What a check reads back after a block: the PDHG output
/// `T(z_k) = (x, y)` of its last iteration, which the driver checks,
/// returns and restarts at, and the iterate `z_{k+1} = (zx, zy)` the block
/// ended on.
struct BlockEnd<T> {
    x: Vec<T>,
    y: Vec<T>,
    zx: Vec<T>,
    zy: Vec<T>,
}

/// What a backend must provide: one check block of iterations, a download
/// of the block's end, a restart, and its simulated clock. The driver owns
/// everything else (step sizes, restart schedule, convergence checks).
trait FirstOrderOps<T: Scalar> {
    /// Run `count` iterations, the `i`-th with Halpern weight
    /// [`halpern_lambda`]`(k0 + i)`. No host decision falls inside a block,
    /// so GPU backends dispatch it as one fused launch. The last iteration
    /// leaves its PDHG output `T(z)` in the backend's `g‖ax` scratch.
    fn block(&mut self, tau: T, sigma: T, k0: u64, count: usize) -> Result<(), SolveError>;
    /// The last block's end, in one download.
    fn output(&mut self) -> Result<BlockEnd<T>, SolveError>;
    /// Restart at the last block's output: it becomes both the iterate and
    /// the anchor.
    fn restart(&mut self) -> Result<(), SolveError>;
    fn elapsed(&self) -> SimTime;
}

/// How the CPU backend stores the active matrix: dense mirrors the paper's
/// baseline cost model (`2mn` flops per product), sparse pays `O(nnz)`.
enum CpuMat<T: Scalar> {
    Dense(DenseMatrix<T>),
    Sparse {
        csr: CsrMatrix<T>,
        csc: CscMatrix<T>,
    },
}

impl<T: Scalar> CpuMat<T> {
    fn apply(&self, x: &[T], y: &mut [T]) {
        match self {
            CpuMat::Dense(a) => linalg::blas::gemv_n(T::ONE, a, x, T::ZERO, y),
            CpuMat::Sparse { csr, .. } => csr.spmv(x, y),
        }
    }
    fn apply_t(&self, x: &[T], y: &mut [T]) {
        match self {
            CpuMat::Dense(a) => linalg::blas::gemv_t(T::ONE, a, x, T::ZERO, y),
            CpuMat::Sparse { csc, .. } => csc.spmv_t(x, y),
        }
    }
    /// Flops and bytes of one `Ax` (or `Aᵀy`) product, for the clock.
    fn product_cost(&self) -> (u64, u64) {
        match self {
            CpuMat::Dense(a) => {
                let work = (a.rows() * a.cols()) as u64;
                (2 * work, work * std::mem::size_of::<T>() as u64)
            }
            CpuMat::Sparse { csr, .. } => {
                let nnz = csr.nnz() as u64;
                (2 * nnz, nnz * (std::mem::size_of::<T>() as u64 + 4))
            }
        }
    }
}

/// Serial CPU backend: host loops mirroring the GPU kernels' arithmetic
/// and buffer use exactly (same `mul_add` placement, `T(z)` emitted into
/// `g` and `ax`), charged against the modeled 2009 single core like every
/// other CPU backend in the repo.
struct CpuOps<T: Scalar> {
    mat: CpuMat<T>,
    b: Vec<T>,
    c: Vec<T>,
    x: Vec<T>,
    y: Vec<T>,
    x0: Vec<T>,
    y0: Vec<T>,
    g: Vec<T>,
    xbar: Vec<T>,
    ax: Vec<T>,
    clock: CpuClock,
    model: CpuModel,
}

impl<T: Scalar> CpuOps<T> {
    fn new(prob: &PdhgProblem<T>, dense: bool) -> Self {
        let mat = if dense {
            CpuMat::Dense(prob.csr.to_dense())
        } else {
            CpuMat::Sparse {
                csr: prob.csr.clone(),
                csc: prob.csc.clone(),
            }
        };
        CpuOps {
            mat,
            b: prob.b.clone(),
            c: prob.c.clone(),
            x: vec![T::ZERO; prob.n],
            y: vec![T::ZERO; prob.m],
            x0: vec![T::ZERO; prob.n],
            y0: vec![T::ZERO; prob.m],
            g: vec![T::ZERO; prob.n],
            xbar: vec![T::ZERO; prob.n],
            ax: vec![T::ZERO; prob.m],
            clock: CpuClock::new(),
            model: CpuModel::core2_era(),
        }
    }

    /// One iteration with Halpern weight `lam`, charged to the modeled core;
    /// with `emit`, `g` and `ax` end holding `T(z) = (x⁺, y⁺)`.
    fn step(&mut self, tau: T, sigma: T, lam: T, emit: bool) {
        let mu = T::ONE - lam;
        self.mat.apply_t(&self.y, &mut self.g);
        for j in 0..self.x.len() {
            let xj = self.x[j];
            let step = xj - tau * (self.c[j] - self.g[j]);
            let xnew = if step > T::ZERO { step } else { T::ZERO };
            let xbar = xnew + xnew - xj;
            self.xbar[j] = xbar;
            self.x[j] = lam * xbar + mu * self.x0[j];
            if emit {
                self.g[j] = xnew;
            }
        }
        self.mat.apply(&self.xbar, &mut self.ax);
        for i in 0..self.y.len() {
            let yi = self.y[i];
            let ynew = sigma.mul_add(self.b[i] - self.ax[i], yi);
            self.y[i] = lam * (ynew + ynew - yi) + mu * self.y0[i];
            if emit {
                self.ax[i] = ynew;
            }
        }
        let (pf, pb) = self.mat.product_cost();
        let (n, m) = (self.x.len() as u64, self.y.len() as u64);
        let elem = std::mem::size_of::<T>() as u64;
        let emitted = if emit { n + m } else { 0 };
        self.clock.charge(self.model.op_time(
            2 * pf + 8 * (n + m),
            2 * pb + (6 * n + 5 * m + emitted) * elem,
            T::IS_F64,
        ));
    }
}

impl<T: Scalar> FirstOrderOps<T> for CpuOps<T> {
    fn block(&mut self, tau: T, sigma: T, k0: u64, count: usize) -> Result<(), SolveError> {
        let last = k0 + count as u64;
        for k in k0..last {
            self.step(tau, sigma, halpern_lambda(k), k + 1 == last);
        }
        Ok(())
    }

    fn restart(&mut self) -> Result<(), SolveError> {
        std::mem::swap(&mut self.x, &mut self.g);
        std::mem::swap(&mut self.y, &mut self.ax);
        self.x0.copy_from_slice(&self.x);
        self.y0.copy_from_slice(&self.y);
        let elem = std::mem::size_of::<T>() as u64;
        let bytes = 2 * (self.x.len() + self.y.len()) as u64 * elem;
        self.clock.charge(self.model.op_time(0, bytes, T::IS_F64));
        Ok(())
    }

    fn output(&mut self) -> Result<BlockEnd<T>, SolveError> {
        Ok(BlockEnd {
            x: self.g.clone(),
            y: self.ax.clone(),
            zx: self.x.clone(),
            zy: self.y.clone(),
        })
    }

    fn elapsed(&self) -> SimTime {
        self.clock.elapsed()
    }
}

/// GPU backend: the active matrix lives on the device in both CSR and CSC,
/// and one iteration is the four-kernel chain `spmv_t → primal → spmv →
/// dual` through a [`Launcher`]. A whole check block goes through one
/// launcher, so when fused it pays one launch overhead (and presents one
/// fault roll) per block rather than per kernel — the same accounting
/// story as the simplex pivot chain. One buffer holds two halves, the
/// iterate `x‖y` and the products `g‖ax`, which the block's last iteration
/// overwrites with `T(z)`; the anchor is one buffer `x₀‖y₀`. A check
/// downloads both halves at once; a restart swaps the halves' roles on the
/// host and copies the new iterate into the anchor, so it is one copy.
/// Works over a fresh [`Gpu`] or a [`Stream`]
/// (which derefs to its per-stream `Gpu`), so the shared-device backend
/// reuses it unchanged.
struct GpuOps<'g, T: Scalar> {
    gpu: &'g Gpu,
    dcsr: DeviceCsr<T>,
    dcsc: DeviceCsc<T>,
    db: DeviceBuffer<T>,
    dc: DeviceBuffer<T>,
    /// `x‖y` and `g‖ax`, in the order `flip` says.
    halves: DeviceBuffer<T>,
    /// The iterate is the second half (and `g‖ax` the first).
    flip: bool,
    xy0: DeviceBuffer<T>,
    xbar: DeviceBuffer<T>,
    n: usize,
    fuse: bool,
    t0: SimTime,
}

impl<'g, T: Scalar> GpuOps<'g, T> {
    /// Offsets of the iterate and of the `g‖ax` half in `halves`.
    fn iterate_at(&self) -> usize {
        if self.flip {
            self.xy0.len()
        } else {
            0
        }
    }
    fn scratch_at(&self) -> usize {
        self.xy0.len() - self.iterate_at()
    }

    fn new(gpu: &'g Gpu, prob: &PdhgProblem<T>, fuse: bool) -> Self {
        let dcsr = DeviceCsr::upload(gpu, &prob.csr);
        let dcsc = DeviceCsc::upload(gpu, &prob.csc);
        GpuOps {
            gpu,
            dcsr,
            dcsc,
            db: gpu.htod(&prob.b),
            dc: gpu.htod(&prob.c),
            halves: gpu.alloc(2 * (prob.n + prob.m), T::ZERO),
            flip: false,
            xy0: gpu.alloc(prob.n + prob.m, T::ZERO),
            xbar: gpu.alloc(prob.n, T::ZERO),
            n: prob.n,
            fuse,
            t0: gpu.elapsed(),
        }
    }

    fn chain(
        &mut self,
        tau: T,
        sigma: T,
        lam: T,
        emit: bool,
        l: &mut Launcher<'_, '_>,
    ) -> Result<(), SolveError> {
        let (n, m) = (self.n, self.xy0.len() - self.n);
        let (z, s) = (self.iterate_at(), self.scratch_at());
        let halves = self.halves.view_mut();
        let (x, y) = (halves.subview_mut(z, n), halves.subview_mut(z + n, m));
        let (g, ax) = (halves.subview_mut(s, n), halves.subview_mut(s + n, m));
        let xy0 = self.xy0.view();
        let (x0, y0) = (xy0.subview(0, n), xy0.subview(n, m));
        self.dcsc.spmv_t_on(l, y.as_view(), g)?;
        let xbar = self.xbar.view_mut();
        gblas::pdhg_primal_on(l, x, xbar, g, self.dc.view(), x0, tau, lam, emit)?;
        self.dcsr.spmv_on(l, xbar.as_view(), ax)?;
        gblas::pdhg_dual_on(l, y, ax, self.db.view(), y0, sigma, lam, emit)?;
        Ok(())
    }
}

impl<T: Scalar> FirstOrderOps<T> for GpuOps<'_, T> {
    fn block(&mut self, tau: T, sigma: T, k0: u64, count: usize) -> Result<(), SolveError> {
        if count == 0 {
            return Ok(());
        }
        let gpu = self.gpu;
        let mut group = if self.fuse {
            Some(gpu.try_begin_fused("pdhg_step")?)
        } else {
            None
        };
        {
            let mut l = match group.as_mut() {
                Some(f) => Launcher::Fused(f),
                None => Launcher::Direct(gpu),
            };
            let last = k0 + count as u64;
            for k in k0..last {
                self.chain(tau, sigma, halpern_lambda(k), k + 1 == last, &mut l)?;
            }
        }
        if let Some(f) = group {
            f.finish();
        }
        Ok(())
    }

    fn output(&mut self) -> Result<BlockEnd<T>, SolveError> {
        let (n, half) = (self.n, self.xy0.len());
        let mut z = self.gpu.try_dtoh(&self.halves)?;
        let mut t = z.split_off(half);
        if self.flip {
            std::mem::swap(&mut z, &mut t);
        }
        let (zy, y) = (z.split_off(n), t.split_off(n));
        Ok(BlockEnd { x: t, y, zx: z, zy })
    }

    fn restart(&mut self) -> Result<(), SolveError> {
        self.flip = !self.flip;
        let z = self
            .halves
            .view()
            .subview(self.iterate_at(), self.xy0.len());
        gblas::copy_on(&mut Launcher::Direct(self.gpu), z, self.xy0.view_mut())?;
        Ok(())
    }

    fn elapsed(&self) -> SimTime {
        self.gpu.elapsed() - self.t0
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for shift in [0u32, 32] {
        h ^= (v >> shift) & 0xffff_ffff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_iterate<T: Scalar>(mut h: u64, x: &[T], y: &[T]) -> u64 {
    for v in x.iter().chain(y) {
        h = fnv_fold(h, v.to_f64().to_bits());
    }
    h
}

/// What the generic driver hands back to the backend dispatcher.
struct PdhgCore<T: Scalar> {
    status: Status,
    x: Vec<T>,
    y: Vec<T>,
    stats: SolveStats,
}

fn drive<T: Scalar, O: FirstOrderOps<T>, R: Recorder>(
    prob: &PdhgProblem<T>,
    opts: &PdhgOptions,
    ops: &mut O,
    mut rec: Option<&mut R>,
) -> Result<PdhgCore<T>, SolveError> {
    let mut stats = SolveStats::default();
    let tol = tol_for::<T>();
    let max_iters = opts.max_iters();
    let wall_start = Instant::now();

    // Primal weight ω scales the primal step up and the dual step down
    // (τ = 0.9ω/‖A‖, σ = 0.9/(ω‖A‖)). Initialize from the data's own
    // scale — a large ‖c‖ means steep primal gradients, so shrink τ —
    // then adapt at restarts from observed movement.
    let mut omega = if prob.norm_b > 0.0 && prob.norm_c > 0.0 {
        (prob.norm_b / prob.norm_c).clamp(1e-4, 1e4)
    } else {
        1.0
    };
    let a_norm = prob.a_norm.max(1e-12);
    let step_scale = 0.9;
    let mut tau = T::from_f64(step_scale * omega / a_norm);
    let mut sigma = T::from_f64(step_scale / (omega * a_norm));

    // Anchor state: the solve starts at (and is anchored to) the origin.
    let mut anchor_x = vec![T::ZERO; prob.n];
    let mut anchor_y = vec![T::ZERO; prob.m];
    let mut scratch = ResidualScratch::new(prob);
    // Fixed-point residuals at the last restart and at the previous check.
    // The first cycle always ends at its first check, where the artificial
    // condition holds (the cycle is the whole run), whatever these say.
    let (mut fp_restart, mut fp_prev) = (f64::INFINITY, f64::INFINITY);

    let mut k_inner: u64 = 0;
    let mut total: usize = 0;
    let mut restarts: u64 = 0;
    let mut fingerprint = FNV_OFFSET;
    let mut status = Status::IterationLimit;
    let (last_x, last_y);

    loop {
        let todo = CHECK_INTERVAL.min(max_iters - total);
        let block_sim0 = ops.elapsed();
        let block_wall = Instant::now();
        ops.block(tau, sigma, k_inner, todo)?;
        k_inner += todo as u64;
        total += todo;
        let block_sim1 = ops.elapsed();
        stats.charge(Step::Update, block_sim1 - block_sim0);
        if R::ENABLED {
            if let Some(r) = rec.as_deref_mut() {
                r.span(
                    StepKind::UpdateBasis,
                    block_sim0,
                    block_sim1,
                    block_wall.elapsed().as_secs_f64(),
                    total,
                    2,
                );
            }
        }

        let dl_wall = Instant::now();
        let end = ops.output()?;
        let dl_sim1 = ops.elapsed();
        stats.charge(Step::Other, dl_sim1 - block_sim1);
        if R::ENABLED {
            if let Some(r) = rec.as_deref_mut() {
                r.span(
                    StepKind::Transfer,
                    block_sim1,
                    dl_sim1,
                    dl_wall.elapsed().as_secs_f64(),
                    total,
                    2,
                );
            }
        }

        let r = residuals(prob, &end.x, &end.y, &mut scratch);
        stats.final_gap = r.gap;
        if !(r.rp + r.rd + r.gap).is_finite() {
            return Err(SolveError::Numerical(format!(
                "pdhg iterate diverged at iteration {total} (non-finite residual)"
            )));
        }
        if r.rp <= tol && r.rd <= tol && r.gap <= tol {
            status = Status::Optimal;
            (last_x, last_y) = (end.x, end.y);
            break;
        }
        if let Some(limit) = opts.time_limit {
            let elapsed = wall_start.elapsed().as_secs_f64();
            if elapsed > limit {
                return Err(SolveError::Timeout {
                    elapsed_seconds: elapsed,
                    limit_seconds: limit,
                });
            }
        }
        if total >= max_iters {
            (last_x, last_y) = (end.x, end.y);
            break;
        }

        let fp = fixed_point_residual(
            prob,
            &end,
            (&anchor_x, &anchor_y),
            halpern_lambda::<f64>(k_inner - 1),
            tau.to_f64(),
            sigma.to_f64(),
            &mut scratch,
        );
        let sufficient = fp <= BETA_SUFFICIENT * fp_restart;
        let necessary = fp <= BETA_NECESSARY * fp_restart && fp > fp_prev;
        let artificial = k_inner as f64 >= BETA_ARTIFICIAL * total as f64;
        fp_prev = fp;
        if sufficient || necessary || artificial {
            // Primal-weight rebalance from observed movement: geometric
            // mean of the old weight and the dual/primal movement ratio.
            let (x, y) = (end.x, end.y);
            let dx = distance(&x, &anchor_x);
            let dy = distance(&y, &anchor_y);
            if dx > 1e-12 && dy > 1e-12 {
                // Geometric mean of the old weight and the movement ratio:
                // when the dual outran the primal (dy ≫ dx), grow τ and
                // shrink σ so the next cycle rebalances.
                omega = (omega * (dx / dy)).sqrt().clamp(1e-4, 1e4);
                tau = T::from_f64(step_scale * omega / a_norm);
                sigma = T::from_f64(step_scale / (omega * a_norm));
            }
            let rebase_sim0 = ops.elapsed();
            let rebase_wall = Instant::now();
            ops.restart()?;
            let rebase_sim1 = ops.elapsed();
            stats.charge(Step::Other, rebase_sim1 - rebase_sim0);
            if R::ENABLED {
                if let Some(rr) = rec.as_deref_mut() {
                    rr.span(
                        StepKind::Refactorize,
                        rebase_sim0,
                        rebase_sim1,
                        rebase_wall.elapsed().as_secs_f64(),
                        total,
                        2,
                    );
                }
            }
            fingerprint = fold_iterate(fingerprint, &x, &y);
            anchor_x = x;
            anchor_y = y;
            (fp_restart, fp_prev) = (fp, f64::INFINITY);
            k_inner = 0;
            restarts += 1;
        }
    }

    stats.pdhg_iterations = total as u64;
    stats.restarts = restarts;
    stats.wall_seconds = wall_start.elapsed().as_secs_f64();
    stats.pivot_fingerprint = fold_iterate(fingerprint, &last_x, &last_y);
    Ok(PdhgCore {
        status,
        x: last_x,
        y: last_y,
        stats,
    })
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Solve a prepared standard form with PDHG on the chosen backend: the
/// [`crate::SolveRequest`] pipeline's PDHG stage.
pub(crate) fn solve_standard<T: Scalar, R: Recorder>(
    sf: &StandardForm<T>,
    opts: &PdhgOptions,
    kind: &BackendKind,
    rec: Option<&mut R>,
) -> Result<PdhgStdResult<T>, SolveError> {
    let prob = PdhgProblem::build(sf);
    let core = on_target(
        kind,
        opts.faults.as_ref(),
        |target| match target {
            Target::CpuDense => drive(&prob, opts, &mut CpuOps::new(&prob, true), rec),
            Target::CpuSparse => drive(&prob, opts, &mut CpuOps::new(&prob, false), rec),
            Target::Gpu(gpu) => {
                let mut ops = GpuOps::new(gpu, &prob, opts.fuse_launches);
                drive(&prob, opts, &mut ops, rec)
            }
        },
        |core| &mut core.stats,
    )?;
    // Expand the active point to the full standard-form width (artificial
    // columns are identically zero in PDHG's formulation).
    let mut x_std = vec![T::ZERO; sf.num_cols()];
    x_std[..prob.n].copy_from_slice(&core.x);
    Ok(PdhgStdResult {
        status: core.status,
        x_std,
        y_std: core.y.iter().map(|v| v.to_f64()).collect(),
        stats: core.stats,
    })
}

/// A PDHG model solve on `kind` with step spans reported to `rec`, kept for
/// callers outside this workspace that call it by name:
/// `SolveRequest::model(model, opts).on(kind).recorder(rec)`.
pub fn try_solve_on_recorded<T: Scalar, R: Recorder>(
    model: &LinearProgram,
    opts: &PdhgOptions,
    kind: &BackendKind,
    rec: &mut R,
) -> Result<LpSolution, SolveError> {
    SolveRequest::model(model, opts)
        .on(kind)
        .recorder(rec)
        .run::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{prepare, Prepared};
    use crate::trace::NoopRecorder;
    use gpu_sim::{DeviceSpec, Stream};
    use lp::generator::{self, fixtures};
    use std::sync::Arc;

    fn all_kinds() -> Vec<BackendKind> {
        vec![
            BackendKind::CpuDense,
            BackendKind::CpuSparse,
            BackendKind::GpuDense(DeviceSpec::gtx280()),
        ]
    }

    #[test]
    fn wyndor_on_every_backend() {
        let (model, expected) = fixtures::wyndor();
        for kind in all_kinds() {
            let sol = SolveRequest::model(&model, &PdhgOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - expected).abs() / expected.abs() < 1e-6,
                "{kind:?}: {} vs {}",
                sol.objective,
                expected
            );
            assert!(sol.stats.pdhg_iterations > 0);
            assert_eq!(sol.stats.iterations, 0, "pdhg performs no pivots");
        }
    }

    #[test]
    fn two_phase_fixture_needs_no_artificial_machinery() {
        // `≥`/`=` rows force the simplex through phase 1; PDHG just
        // projects. The artificial columns are excluded from the active
        // matrix, so their presence in the standard form is invisible.
        let (model, expected) = fixtures::two_phase();
        let sol = SolveRequest::model(&model, &PdhgOptions::default())
            .on(&BackendKind::CpuSparse)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - expected).abs() / expected.abs().max(1.0) < 1e-6,
            "{} vs {}",
            sol.objective,
            expected
        );
        assert!(model.check_feasible(&sol.x, 1e-5).is_none());
    }

    #[test]
    fn restarts_and_gap_are_reported() {
        let model = generator::dense_random(12, 16, 9);
        let sol = SolveRequest::model(&model, &PdhgOptions::default())
            .on(&BackendKind::CpuSparse)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(sol.stats.final_gap <= 1e-8);
        assert!(sol.stats.restarts > 0, "restarted scheme should restart");
    }

    #[test]
    fn iteration_limit_reported_not_errored() {
        let model = generator::dense_random(12, 16, 9);
        let opts = PdhgOptions {
            max_iterations: Some(8),
            ..Default::default()
        };
        let sol = SolveRequest::model(&model, &opts)
            .on(&BackendKind::CpuSparse)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::IterationLimit);
        assert_eq!(sol.stats.pdhg_iterations, 8);
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn f32_reaches_its_looser_tolerance() {
        let (model, expected) = fixtures::wyndor();
        let sol = SolveRequest::model(&model, &PdhgOptions::default())
            .on(&BackendKind::CpuSparse)
            .run::<f32>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - expected).abs() / expected.abs() < 1e-3,
            "{} vs {}",
            sol.objective,
            expected
        );
    }

    #[test]
    fn duals_match_simplex_on_wyndor() {
        // Presolve off on both sides: wyndor has singleton rows, and the
        // presolved pipeline's dual recovery is exercised separately.
        let (model, _) = fixtures::wyndor();
        let pdhg = SolveRequest::model(
            &model,
            &PdhgOptions {
                presolve: false,
                ..Default::default()
            },
        )
        .on(&BackendKind::CpuSparse)
        .run::<f64>()
        .unwrap();
        let simplex = SolveRequest::model(
            &model,
            &crate::options::SolverOptions {
                presolve: false,
                ..Default::default()
            },
        )
        .run::<f64>()
        .unwrap();
        let (pd, sd) = (pdhg.duals.unwrap(), simplex.duals.unwrap());
        assert_eq!(pd.len(), sd.len());
        for (a, b) in pd.iter().zip(&sd) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_and_unfused_gpu_agree_bitwise() {
        fn parity<T: Scalar>(model: &LinearProgram, kind: &BackendKind, min_restarts: u64) {
            let run = |fuse_launches| {
                let opts = PdhgOptions {
                    fuse_launches,
                    ..Default::default()
                };
                SolveRequest::model(model, &opts)
                    .on(kind)
                    .run::<T>()
                    .expect("fault-free solve")
            };
            let (fused, unfused) = (run(true), run(false));
            let what = format!("{} f64={} on {kind:?}", model.name, T::IS_F64);
            // Fusion is an accounting toggle: identical arithmetic.
            assert_eq!(
                fused.stats.pivot_fingerprint, unfused.stats.pivot_fingerprint,
                "{what}"
            );
            assert_eq!(
                fused.objective.to_bits(),
                unfused.objective.to_bits(),
                "{what}"
            );
            assert!(fused.stats.restarts >= min_restarts, "{what}");
            assert!(
                fused.stats.total_time() < unfused.stats.total_time(),
                "{what}: fused {:?} vs unfused {:?}",
                fused.stats.total_time(),
                unfused.stats.total_time()
            );
        }
        let (wyndor, _) = fixtures::wyndor();
        let sparse = generator::sparse_random(300, 300, 0.01, 2);
        let kinds = [
            BackendKind::GpuDense(DeviceSpec::gtx280()),
            BackendKind::GpuShared(Arc::new(Gpu::new(DeviceSpec::gtx280()))),
        ];
        for kind in &kinds {
            parity::<f64>(&wyndor, kind, 0);
            parity::<f64>(&sparse, kind, 2);
            parity::<f32>(&sparse, kind, 2);
        }
    }

    #[test]
    fn gpu_launches_one_group_per_check_block() {
        // A fresh device sees exactly one fused `pdhg_step` group and one
        // download per check block, plus one anchor copy per restart.
        let model = generator::dense_random(12, 16, 9);
        for fuse_launches in [true, false] {
            let device = Arc::new(Gpu::new(DeviceSpec::gtx280()));
            let opts = PdhgOptions {
                fuse_launches,
                ..Default::default()
            };
            let sol = SolveRequest::model(&model, &opts)
                .on(&BackendKind::GpuShared(device.clone()))
                .run::<f64>()
                .unwrap();
            let (iters, restarts) = (sol.stats.pdhg_iterations, sol.stats.restarts);
            let blocks = iters.div_ceil(CHECK_INTERVAL as u64);
            let c = device.counters();
            assert!(restarts > 0, "no restart exercised");
            assert_eq!(c.d2h_count, blocks, "fuse={fuse_launches}");
            assert_eq!(c.per_kernel["copy"].launches, restarts);
            if fuse_launches {
                assert_eq!(c.fused_groups, blocks);
                assert_eq!(c.per_kernel["pdhg_step"].launches, blocks);
                assert_eq!(c.kernels_launched, blocks + restarts);
            } else {
                assert_eq!(c.fused_groups, 0);
                assert_eq!(c.kernels_launched, 4 * iters + restarts);
            }
        }
    }

    #[test]
    fn fixed_point_residual_recovers_the_last_iterate() {
        // The device overwrites z_k with z_{k+1}; the residual recovered
        // from z_{k+1}, T(z_k) and the anchor must equal ‖z_k − T(z_k)‖_P
        // computed from a snapshot of z_k.
        let model = generator::dense_random(12, 16, 9);
        let sf = match prepare::<f64>(&model, true, true) {
            Prepared::Ready { sf, .. } => sf,
            Prepared::Early(_) => panic!("presolve decided the model"),
        };
        let prob = PdhgProblem::build(&sf);
        let mut ops = CpuOps::new(&prob, false);
        let (tau, sigma) = (0.9 / prob.a_norm, 0.9 / prob.a_norm);
        ops.block(tau, sigma, 0, 4).unwrap();
        let before = ops.output().unwrap();
        ops.block(tau, sigma, 4, 1).unwrap();
        let end = ops.output().unwrap();
        let (dx, dy): (Vec<f64>, Vec<f64>) = (
            before.zx.iter().zip(&end.x).map(|(z, t)| z - t).collect(),
            before.zy.iter().zip(&end.y).map(|(z, t)| z - t).collect(),
        );
        let mut adx = vec![0.0; prob.m];
        prob.csr64.spmv(&dx, &mut adx);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
        let direct = (dot(&dx, &dx) / tau + dot(&dy, &dy) / sigma - 2.0 * dot(&dy, &adx)).sqrt();
        let anchor = (vec![0.0; prob.n], vec![0.0; prob.m]);
        let recovered = fixed_point_residual(
            &prob,
            &end,
            (&anchor.0, &anchor.1),
            halpern_lambda(4),
            tau,
            sigma,
            &mut ResidualScratch::new(&prob),
        );
        assert!(direct > 0.0);
        assert!(
            (recovered - direct).abs() <= 1e-9 * direct,
            "recovered {recovered} vs direct {direct}"
        );
    }

    #[test]
    fn stats_charge_every_tick_of_the_backend_clock() {
        // Blocks, downloads and restart rebases all advance the backend's
        // clock; the driver must charge each of them to `SolveStats`.
        let model = generator::dense_random(12, 16, 9);
        let sf = match prepare::<f64>(&model, true, true) {
            Prepared::Ready { sf, .. } => sf,
            Prepared::Early(_) => panic!("presolve decided the model"),
        };
        let prob = PdhgProblem::build(&sf);
        fn check<O: FirstOrderOps<f64>>(label: &str, prob: &PdhgProblem<f64>, mut ops: O) {
            let opts = PdhgOptions::default();
            let stats = drive(prob, &opts, &mut ops, None::<&mut NoopRecorder>)
                .unwrap_or_else(|e| panic!("{label}: {e}"))
                .stats;
            assert!(stats.restarts > 0, "{label}: no restart exercised");
            // Equal up to f64 summation order (the stats add per-step
            // differences of the clock).
            let (charged, clock) = (stats.total_time().as_nanos(), ops.elapsed().as_nanos());
            assert!(
                (charged - clock).abs() <= 1e-12 * clock,
                "{label}: charged {charged} ns, clock {clock} ns"
            );
        }
        check("cpu-dense", &prob, CpuOps::new(&prob, true));
        check("cpu-sparse", &prob, CpuOps::new(&prob, false));
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let stream = Stream::on(&Arc::new(Gpu::new(DeviceSpec::gtx280())));
        for fuse in [true, false] {
            check("gpu-dense", &prob, GpuOps::new(&gpu, &prob, fuse));
            check("gpu-shared", &prob, GpuOps::new(&stream, &prob, fuse));
        }
    }

    #[test]
    fn determinism_same_run_same_fingerprint() {
        let model = generator::sparse_random(24, 32, 0.2, 5);
        let run = || {
            let sol = SolveRequest::model(&model, &PdhgOptions::default())
                .on(&BackendKind::CpuSparse)
                .run::<f64>()
                .unwrap();
            (sol.stats.pivot_fingerprint, sol.objective.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crossover_picker_splits_regimes() {
        assert!(!crossover_prefers_pdhg(8, 12, 0.9), "small dense → simplex");
        assert!(
            crossover_prefers_pdhg(2048, 2048, 0.01),
            "large sparse → pdhg"
        );
        assert!(
            !crossover_prefers_pdhg(2048, 2048, 0.5),
            "large dense → simplex"
        );
        let (wyndor, _) = fixtures::wyndor();
        assert!(model_density(&wyndor) > 0.5);
    }

    #[test]
    fn timeout_surfaces() {
        let model = generator::dense_random(16, 20, 3);
        let opts = PdhgOptions {
            time_limit: Some(0.0),
            ..Default::default()
        };
        match SolveRequest::model(&model, &opts)
            .on(&BackendKind::CpuSparse)
            .run::<f64>()
        {
            Err(SolveError::Timeout { .. }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    /// Names every field with no `..`: a new option fails to compile here
    /// until the DESIGN.md option table is updated with it.
    #[test]
    fn option_list_is_reviewed() {
        let PdhgOptions {
            max_iterations,
            presolve,
            scale,
            fuse_launches,
            time_limit,
            faults,
        } = PdhgOptions::default();
        assert_eq!((max_iterations, time_limit), (None, None));
        assert!(presolve && scale && fuse_launches);
        assert!(faults.is_none());
    }
}
