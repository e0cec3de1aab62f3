//! High-level pipeline: presolve → standardize → scale → solve → recover,
//! over a chosen backend, for either algorithm family.
//!
//! One [`SolveRequest`] describes one solve: its input (a model through the
//! whole pipeline, or a prepared standard form straight to the simplex),
//! the algorithm, the backend, where the simplex starts ([`Start`]), and an
//! optional warm-start cache, checkpoint slot and recorder. Its `run` is
//! fallible: device faults, timeouts and numerical collapse come back as
//! [`SolveError`]s, and fault-free configurations never fail. When the
//! options carry a fault plan, a GPU backend arms a fresh [`FaultPlan`] on
//! its device or stream before the backend is built, and the observed fault
//! count is folded into the result's stats.
//!
//! ```
//! use gplex::{BackendKind, SolveRequest, SolverOptions, Start, Status};
//! use lp::generator::fixtures;
//!
//! let (model, _) = fixtures::wyndor();
//! let opts = SolverOptions::default();
//! let first = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
//! assert_eq!(first.status, Status::Optimal);
//!
//! // A prepared standard form goes straight to the simplex; here it is
//! // warm-started from the basis of a cold solve.
//! let sf = lp::StandardForm::<f64>::from_lp(&model).unwrap();
//! let kind = BackendKind::CpuSparse;
//! let cold = SolveRequest::standard(&sf, &opts).on(&kind).run().unwrap();
//! let warm = SolveRequest::standard(&sf, &opts)
//!     .on(&kind)
//!     .start(Start::Warm(cold.basis.clone()))
//!     .run()
//!     .unwrap();
//! assert_eq!(warm.stats.iterations, 0);
//! ```

use std::ops::Deref;
use std::sync::Arc;

use gpu_sim::{DeviceSpec, FaultConfig, FaultPlan, Gpu, Stream};
use linalg::blas::DenseLu;
use linalg::{CsrMatrix, Scalar};
use lp::presolve::{presolve, PresolveResult, Presolved};
use lp::scaling::{scale, ScalingKind};
use lp::{LinearProgram, StandardForm};

use crate::backends::{CpuDenseBackend, CpuSparseBackend, GpuDenseBackend};
use crate::basis::basis_lu;
use crate::batch::cache::{cache_key, BasisCache};
use crate::batch::policy::WarmStartPolicy;
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::SolveError;
use crate::options::SolverOptions;
use crate::pdhg::{self, PdhgOptions};
use crate::result::{LpSolution, Status, StdResult};
use crate::revised::RevisedSimplex;
use crate::stats::SolveStats;
use crate::trace::{NoopRecorder, Recorder};

/// Which backend the pipeline should run on.
#[derive(Clone)]
pub enum BackendKind {
    /// Serial dense CPU (the paper's baseline).
    CpuDense,
    /// Sparse-pricing CPU (extension).
    CpuSparse,
    /// Simulated GPU with the given device (a fresh device per solve).
    GpuDense(DeviceSpec),
    /// A shared simulated GPU: each solve runs on its own
    /// [`gpu_sim::Stream`] of this device, so many solves can interleave
    /// (e.g. from batch-scheduler workers) with per-solve counters intact
    /// and device-wide memory capacity enforced.
    GpuShared(Arc<Gpu>),
}

impl BackendKind {
    /// Short stable tag for stats keys and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::CpuDense => "cpu-dense",
            BackendKind::CpuSparse => "cpu-sparse",
            BackendKind::GpuDense(_) => "gpu-dense",
            BackendKind::GpuShared(_) => "gpu-shared",
        }
    }
}

impl std::fmt::Debug for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::CpuDense => write!(f, "CpuDense"),
            BackendKind::CpuSparse => write!(f, "CpuSparse"),
            BackendKind::GpuDense(spec) => write!(f, "GpuDense({})", spec.name),
            BackendKind::GpuShared(gpu) => write!(f, "GpuShared({})", gpu.spec().name),
        }
    }
}

/// Shared warm-start state for a run of related solves: the basis cache
/// plus the policy that keys instances into it. Threaded by reference, so
/// one cache serves many concurrent solves (the batch workers all borrow
/// the scheduler's cache).
#[derive(Debug, Clone, Copy)]
pub struct WarmContext<'a> {
    /// The shared basis cache consulted before, and fed after, each solve.
    pub cache: &'a BasisCache,
    /// How instances are keyed (see [`WarmStartPolicy`]).
    pub policy: WarmStartPolicy,
}

/// Where a simplex solve starts.
#[derive(Debug, Clone, Default)]
pub enum Start {
    /// The two-phase start from the slack/artificial basis (or, for a model
    /// request with a [`WarmContext`], from the cache's family basis).
    #[default]
    Cold,
    /// Phase 2 straight from a basis in the solved standard form's column
    /// space, one non-artificial column per row (e.g. the final basis of a
    /// solve of a perturbed model). A singular or primal-infeasible basis
    /// falls back to the cold start: a warm start is an optimization, never
    /// a correctness risk.
    Warm(Vec<usize>),
    /// Mid-flight from a checkpoint, taken on any backend kind: the basis
    /// is reinstalled through the host reinversion a periodic refactorize
    /// uses, so the continued pivot walk is bitwise-identical to the
    /// uninterrupted solve from that boundary onward.
    Resume(Box<SolveCheckpoint>),
}

/// The algorithm family a model request runs, with its options.
#[derive(Debug, Clone, Copy)]
pub enum Algorithm<'a> {
    /// The two-phase revised simplex.
    Simplex(&'a SolverOptions),
    /// Restarted PDHG (see [`crate::pdhg`]). It always starts from the
    /// origin: the [`Start`], the warm context and the checkpoint slot of a
    /// request are simplex settings it ignores.
    Pdhg(&'a PdhgOptions),
}

impl<'a> From<&'a SolverOptions> for Algorithm<'a> {
    fn from(opts: &'a SolverOptions) -> Self {
        Algorithm::Simplex(opts)
    }
}

impl<'a> From<&'a PdhgOptions> for Algorithm<'a> {
    fn from(opts: &'a PdhgOptions) -> Self {
        Algorithm::Pdhg(opts)
    }
}

impl Algorithm<'_> {
    /// Simplex options for this job: its own, or the PDHG options' pipeline
    /// settings (presolve, scaling, launch fusion, deadline, faults) over
    /// the simplex defaults.
    pub(crate) fn simplex(&self) -> SolverOptions {
        match *self {
            Algorithm::Simplex(o) => o.clone(),
            Algorithm::Pdhg(p) => SolverOptions {
                presolve: p.presolve,
                scale: p.scale,
                fuse_launches: p.fuse_launches,
                time_limit: p.time_limit,
                faults: p.faults.clone(),
                ..SolverOptions::default()
            },
        }
    }

    /// PDHG options for this job: its own, or the simplex options' pipeline
    /// settings over the PDHG defaults.
    pub(crate) fn pdhg(&self) -> PdhgOptions {
        match *self {
            Algorithm::Pdhg(p) => p.clone(),
            Algorithm::Simplex(o) => PdhgOptions {
                presolve: o.presolve,
                scale: o.scale,
                fuse_launches: o.fuse_launches,
                time_limit: o.time_limit,
                faults: o.faults.clone(),
                ..PdhgOptions::default()
            },
        }
    }
}

/// A model request's input: the whole pipeline, either algorithm family.
#[derive(Debug, Clone, Copy)]
pub struct ModelInput<'a> {
    pub(crate) model: &'a LinearProgram,
    pub(crate) algorithm: Algorithm<'a>,
}

/// A standard-form request's input: the simplex alone, with no presolve,
/// scaling or recovery around it.
#[derive(Debug, Clone, Copy)]
pub struct StandardInput<'a, T: Scalar> {
    sf: &'a StandardForm<T>,
    opts: &'a SolverOptions,
}

static CPU_DENSE: BackendKind = BackendKind::CpuDense;

/// One solve: an input, an algorithm, a backend and where to start, run by
/// one fallible `run`. Built with [`SolveRequest::model`] or
/// [`SolveRequest::standard`]; every setting but the input defaults (dense
/// CPU, cold start, no cache, no checkpoints, no recorder).
pub struct SolveRequest<'a, I, R: Recorder = NoopRecorder> {
    pub(crate) input: I,
    pub(crate) backend: &'a BackendKind,
    pub(crate) start: Start,
    pub(crate) warm: Option<&'a WarmContext<'a>>,
    pub(crate) slot: Option<&'a CheckpointSlot>,
    rec: Option<&'a mut R>,
}

impl<'a> SolveRequest<'a, ModelInput<'a>> {
    /// Solve `model` through the whole pipeline with `algorithm` — a
    /// `&SolverOptions` for the simplex or a `&PdhgOptions` for PDHG.
    /// [`SolveRequest::run`] returns an [`LpSolution`].
    ///
    /// # Panics
    /// On models that cannot be standardized (infinite coefficients): those
    /// are modeling errors, not solver outcomes.
    pub fn model(model: &'a LinearProgram, algorithm: impl Into<Algorithm<'a>>) -> Self {
        Self::with_input(ModelInput {
            model,
            algorithm: algorithm.into(),
        })
    }
}

impl<'a, T: Scalar> SolveRequest<'a, StandardInput<'a, T>> {
    /// Run the simplex on a prepared standard form, with no presolve,
    /// scaling or recovery: the experiment entry point, where the caller
    /// controls everything. `run` returns a [`StdResult`].
    pub fn standard(sf: &'a StandardForm<T>, opts: &'a SolverOptions) -> Self {
        Self::with_input(StandardInput { sf, opts })
    }
}

impl<'a, I> SolveRequest<'a, I> {
    fn with_input(input: I) -> Self {
        SolveRequest {
            input,
            backend: &CPU_DENSE,
            start: Start::Cold,
            warm: None,
            slot: None,
            rec: None,
        }
    }
}

impl<'a, I, R: Recorder> SolveRequest<'a, I, R> {
    /// Run on `kind` instead of the dense CPU backend.
    pub fn on(mut self, kind: &'a BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Start the simplex from `start` instead of cold.
    pub fn start(mut self, start: Start) -> Self {
        self.start = start;
        self
    }

    /// Snapshot into `slot` every [`SolverOptions::checkpoint_interval`]
    /// iterations (at reinversion boundaries) and report per-iteration
    /// progress to it. The checkpoint basis lives in the post-presolve,
    /// post-scale standard-form space, which is deterministic per model, so
    /// a later request — on any backend — can [`Start::Resume`] from it.
    pub fn checkpoint(mut self, slot: &'a CheckpointSlot) -> Self {
        self.slot = Some(slot);
        self
    }

    /// Report step spans to `rec` (see [`crate::trace`]). The caller keeps
    /// the recorder, so a solve that errors out leaves its partial trace
    /// available for post-mortem.
    pub fn recorder<R2: Recorder>(self, rec: &'a mut R2) -> SolveRequest<'a, I, R2> {
        SolveRequest {
            input: self.input,
            backend: self.backend,
            start: self.start,
            warm: self.warm,
            slot: self.slot,
            rec: Some(rec),
        }
    }
}

impl<'a, R: Recorder> SolveRequest<'a, ModelInput<'a>, R> {
    /// Consult (and feed) a shared [`BasisCache`]. The standardized
    /// instance is keyed under the context's [`WarmStartPolicy`]; on a
    /// [`Start::Cold`] request a cached family basis seeds the simplex, and
    /// an `Optimal` terminal basis is written back for later family
    /// members. A candidate that fails the solver-side validation is a
    /// recorded cold fallback ([`crate::SolveStats::warm_start_rejected`]),
    /// never a wrong answer.
    pub fn warm(mut self, warm: Option<&'a WarmContext<'a>>) -> Self {
        self.warm = warm;
        self
    }

    /// Presolve, standardize and scale the model, solve it, and recover the
    /// answer in the model's own variables, with duals on `Optimal`.
    pub fn run<T: Scalar>(self) -> Result<LpSolution, SolveError> {
        let ModelInput { model, algorithm } = self.input;
        let (presolve_on, scale_on) = match algorithm {
            Algorithm::Simplex(o) => (o.presolve, o.scale),
            Algorithm::Pdhg(p) => (p.presolve, p.scale),
        };
        let (sf, restore) = match prepare::<T>(model, presolve_on, scale_on) {
            Prepared::Early(sol) => return Ok(*sol),
            Prepared::Ready { sf, restore } => (sf, restore),
        };
        let opts = match algorithm {
            Algorithm::Simplex(opts) => opts,
            Algorithm::Pdhg(opts) => {
                let res = pdhg::solve_standard(&sf, opts, self.backend, self.rec)?;
                // PDHG's dual iterate lives in exactly the space
                // `recover_duals` expects (scaled standard rows).
                let y_std = (res.status == Status::Optimal).then_some(res.y_std);
                return Ok(finalize(
                    model, &sf, &restore, res.status, &res.x_std, res.stats, y_std,
                ));
            }
        };

        // The cache key is computed on the *post-presolve, post-scale* form:
        // that is the space the stored basis lives in, and geometric-mean
        // scale factors derive from `A` alone, so family members (same `A`,
        // perturbed `b`/`c`) still collapse onto one key after scaling.
        let key = self.warm.and_then(|w| cache_key(&sf, &w.policy));
        let cached = match (self.warm, key) {
            (Some(w), Some(k)) => {
                let n_active = sf.num_cols() - sf.num_artificials;
                w.cache.lookup(k, sf.num_rows(), n_active)
            }
            _ => None,
        };
        let baseline = cached.as_ref().map(|c| c.cold_iterations);
        // Only a cold request takes the cache's candidate: a checkpoint
        // already encodes more progress than any family basis.
        let start = match (self.start, cached) {
            (Start::Cold, Some(c)) => Start::Warm(c.basis),
            (start, _) => start,
        };
        let mut res = SolveRequest {
            input: StandardInput { sf: &sf, opts },
            backend: self.backend,
            start,
            warm: None,
            slot: self.slot,
            rec: self.rec,
        }
        .run()?;
        settle_warm(self.warm, key, baseline, &mut res);
        Ok(finalize_simplex(model, opts, &sf, &restore, res))
    }
}

impl<'a, T: Scalar, R: Recorder> SolveRequest<'a, StandardInput<'a, T>, R> {
    /// Run the revised simplex on the standard form.
    pub fn run(self) -> Result<StdResult<T>, SolveError> {
        let StandardInput { sf, opts } = self.input;
        let (start, slot, rec) = (self.start, self.slot, self.rec);
        let n_active = sf.num_cols() - sf.num_artificials;
        on_target(
            self.backend,
            opts.faults.as_ref(),
            |target| match target {
                Target::CpuDense => {
                    let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
                    RevisedSimplex::new(&mut be, sf, opts, start, slot, rec).try_solve()
                }
                Target::CpuSparse => {
                    let csr = CsrMatrix::from_dense(&sf.a, T::ZERO);
                    let mut be = CpuSparseBackend::new(&csr, &sf.b, n_active, &sf.basis0);
                    RevisedSimplex::new(&mut be, sf, opts, start, slot, rec).try_solve()
                }
                Target::Gpu(gpu) => {
                    // Fallible construction: a device fault during the
                    // initial uploads is a reportable device error.
                    let mut be = GpuDenseBackend::try_new(gpu, &sf.a, &sf.b, n_active, &sf.basis0)?;
                    be.set_fuse_launches(opts.fuse_launches);
                    RevisedSimplex::new(&mut be, sf, opts, start, slot, rec).try_solve()
                }
            },
            |res| &mut res.stats,
        )
    }
}

/// Where one standard-form solve runs, resolved from a [`BackendKind`].
pub(crate) enum Target<'g> {
    CpuDense,
    CpuSparse,
    Gpu(&'g Gpu),
}

/// The simulated device of one GPU solve: a fresh device of the spec, or a
/// fresh stream of the shared device — the backend runs unchanged on either
/// (`Stream` derefs to `Gpu`), and a stream's counters and fault plan stay
/// per-solve, folding into the device when it drops.
pub(crate) enum SimDevice {
    Fresh(Gpu),
    Stream(Stream),
}

impl SimDevice {
    /// The device for a GPU `kind`; `None` for the CPU kinds.
    pub(crate) fn open(kind: &BackendKind) -> Option<Self> {
        match kind {
            BackendKind::GpuDense(spec) => Some(SimDevice::Fresh(Gpu::new(spec.clone()))),
            BackendKind::GpuShared(device) => Some(SimDevice::Stream(Stream::on(device))),
            BackendKind::CpuDense | BackendKind::CpuSparse => None,
        }
    }
}

impl Deref for SimDevice {
    type Target = Gpu;
    fn deref(&self) -> &Gpu {
        match self {
            SimDevice::Fresh(gpu) => gpu,
            SimDevice::Stream(stream) => stream,
        }
    }
}

/// Run `solve` on the target `kind` names. A GPU kind opens its own
/// [`SimDevice`], arms it with `faults` before `solve` builds a backend,
/// and folds the plan's fault count into the result's `stats`.
pub(crate) fn on_target<X>(
    kind: &BackendKind,
    faults: Option<&FaultConfig>,
    solve: impl FnOnce(Target<'_>) -> Result<X, SolveError>,
    stats: impl FnOnce(&mut X) -> &mut SolveStats,
) -> Result<X, SolveError> {
    let Some(gpu) = SimDevice::open(kind) else {
        return solve(match kind {
            BackendKind::CpuSparse => Target::CpuSparse,
            _ => Target::CpuDense,
        });
    };
    if let Some(cfg) = faults {
        gpu.set_fault_plan(FaultPlan::new(cfg.clone()));
    }
    let mut res = solve(Target::Gpu(&gpu))?;
    stats(&mut res).device_faults = gpu.fault_counts().total();
    Ok(res)
}

/// Outcome of the pre-solve pipeline stages (presolve → standardize →
/// scale), factored out so the batch mega path can run them per member
/// *before* shape-grouping same-shape jobs into one SoA super-job.
pub(crate) enum Prepared<T: Scalar> {
    /// Presolve fully decided the model — no solve needed.
    Early(Box<LpSolution>),
    /// Standardized (and scaled, if asked) form ready for a solver, plus
    /// the presolve restore context when presolve reduced the model.
    Ready {
        sf: Box<StandardForm<T>>,
        restore: Option<Presolved>,
    },
}

/// Presolve (if `presolve_on`), standardize and scale (if `scale_on`)
/// `model`.
///
/// # Panics
/// On models that cannot be standardized (infinite coefficients).
pub(crate) fn prepare<T: Scalar>(
    model: &LinearProgram,
    presolve_on: bool,
    scale_on: bool,
) -> Prepared<T> {
    let decided = |status, reason| {
        Prepared::Early(Box::new(LpSolution {
            status,
            x: vec![0.0; model.num_vars()],
            objective: f64::NAN,
            stats: SolveStats::default(),
            duals: None,
            reason: Some(reason),
        }))
    };
    let (work, restore) = if presolve_on {
        match presolve(model) {
            PresolveResult::Infeasible(reason) => return decided(Status::Infeasible, reason),
            PresolveResult::Unbounded(reason) => return decided(Status::Unbounded, reason),
            PresolveResult::Reduced(p) => (p.lp.clone(), Some(p)),
        }
    } else {
        (model.clone(), None)
    };
    let mut sf = StandardForm::<T>::from_lp(&work).expect("model must standardize");
    if scale_on {
        let _ = scale(&mut sf, ScalingKind::GeometricMean);
    }
    Prepared::Ready {
        sf: Box::new(sf),
        restore,
    }
}

/// Fold warm-start accounting into `res` and write an `Optimal` terminal
/// basis back to the cache. `key` is the family key computed on the solved
/// form; `baseline` is the cached cold iteration count (if a candidate was
/// offered).
pub(crate) fn settle_warm<T: Scalar>(
    warm: Option<&WarmContext<'_>>,
    key: Option<u64>,
    baseline: Option<u64>,
    res: &mut StdResult<T>,
) {
    let warm_accepted = res.stats.warm_start_attempted > res.stats.warm_start_rejected;
    if warm_accepted {
        if let Some(cold) = baseline {
            res.stats.warm_iterations_saved = cold.saturating_sub(res.stats.iterations as u64);
        }
    }
    if let (Some(w), Some(k)) = (warm, key) {
        if res.status == Status::Optimal {
            // Carry the family's original cold cost forward through warm
            // inserts, so savings are always measured against a cold solve
            // rather than against the previous (already cheap) warm one.
            let cold_cost = match (warm_accepted, baseline) {
                (true, Some(cold)) => cold,
                _ => res.stats.iterations as u64,
            };
            w.cache.insert(k, res.basis.clone(), cold_cost);
        }
    }
}

/// The simplex's post-solve stages on an optimal result: one fresh f64
/// factorization of the terminal basis polishes the point (when asked)
/// and gives the duals, so both are backend-independent; then
/// [`finalize`].
pub(crate) fn finalize_simplex<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
    sf: &StandardForm<T>,
    restore: &Option<Presolved>,
    mut res: StdResult<T>,
) -> LpSolution {
    let lu = (res.status == Status::Optimal)
        .then(|| basis_lu(&sf.a, &res.basis))
        .flatten();
    if let (true, Some(lu)) = (opts.polish, &lu) {
        polish_x_std(sf, lu, &res.basis, &mut res.x_std);
    }
    // Standard-space duals: `yᵀB = c_Bᵀ`.
    let y_std = lu.map(|lu| {
        let cb: Vec<f64> = res.basis.iter().map(|&j| sf.c[j].to_f64()).collect();
        lu.solve_t(&cb)
    });
    finalize(model, sf, restore, res.status, &res.x_std, res.stats, y_std)
}

/// Post-solve pipeline stages shared by both families: recover `x` through
/// scaling and presolve, evaluate the objective on the original model, and
/// map the standard-space duals `y_std` (if any) back onto the original
/// rows — rows presolve removed recover the multiplier their bound earned.
fn finalize<T: Scalar>(
    model: &LinearProgram,
    sf: &StandardForm<T>,
    restore: &Option<Presolved>,
    status: Status,
    x_std: &[T],
    stats: SolveStats,
    y_std: Option<Vec<f64>>,
) -> LpSolution {
    let x_red = sf.recover_x(x_std);
    let x = match restore {
        Some(p) => p.restore(&x_red),
        None => x_red,
    };
    let objective = match status {
        Status::Optimal | Status::IterationLimit => model.objective_value(&x),
        _ => f64::NAN,
    };
    let duals = y_std.map(|y| {
        let y_red = sf.recover_duals(&y);
        match restore {
            Some(p) => p.restore_duals(model, &x, &y_red),
            None => y_red,
        }
    });
    LpSolution {
        status,
        x,
        objective,
        stats,
        duals,
        reason: None,
    }
}

/// Recompute the basic variables of an optimal point from `lu`, the f64
/// factorization of its terminal basis (`B x_B = b`), zeroing every
/// nonbasic entry. The result depends only on the terminal basis — not on
/// the pivot path, the backend's accumulated update error, or whether the
/// solve started warm — which is what makes warm-vs-cold objectives
/// bitwise-comparable. Left untouched when the solve produces non-finite
/// values (the iterate's own β is then the best available answer).
fn polish_x_std<T: Scalar>(
    sf: &StandardForm<T>,
    lu: &DenseLu<f64>,
    basis: &[usize],
    x_std: &mut [T],
) {
    let rhs: Vec<f64> = sf.b.iter().map(|v| v.to_f64()).collect();
    let xb = lu.solve(&rhs);
    if xb.iter().any(|v| !v.is_finite()) {
        return;
    }
    for v in x_std.iter_mut() {
        *v = T::ZERO;
    }
    for (col, &j) in basis.iter().enumerate() {
        x_std[j] = T::from_f64(xb[col]);
    }
}

// Named entry points kept for callers outside this workspace that call them
// by name; each is one request.

/// A model solve on `kind`: `SolveRequest::model(model, opts).on(kind)`.
pub fn try_solve_on<T: Scalar>(
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
) -> Result<LpSolution, SolveError> {
    SolveRequest::model(model, opts).on(kind).run::<T>()
}

/// [`try_solve_on`] with step spans reported to `rec`.
pub fn try_solve_on_recorded<T: Scalar, R: Recorder>(
    model: &LinearProgram,
    opts: &SolverOptions,
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
    use crate::options::PivotRule;
    use lp::generator::{self, fixtures};

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
            let sol = SolveRequest::model(&model, &SolverOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{kind:?}: {}",
                sol.objective
            );
            assert!((sol.x[0] - 2.0).abs() < 1e-8);
            assert!((sol.x[1] - 6.0).abs() < 1e-8);
        }
    }

    #[test]
    fn two_phase_on_every_backend() {
        let (model, expected) = fixtures::two_phase();
        for kind in all_kinds() {
            let sol = SolveRequest::model(&model, &SolverOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{kind:?}: {}",
                sol.objective
            );
            assert!(model.check_feasible(&sol.x, 1e-7).is_none());
            assert!(sol.stats.phase1_iterations > 0);
        }
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let sol = SolveRequest::model(&fixtures::infeasible(), &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Infeasible);
        // Presolve caught it; reason recorded.
        assert!(sol.reason.is_some());

        // With presolve off, the simplex itself must catch both.
        let raw = SolverOptions {
            presolve: false,
            ..Default::default()
        };
        let sol = SolveRequest::model(&fixtures::infeasible(), &raw)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Infeasible);
        let sol = SolveRequest::model(&fixtures::unbounded(), &raw)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Unbounded);
    }

    #[test]
    fn diet_and_production_fixtures() {
        for (model, expected) in [
            fixtures::diet(),
            fixtures::production(),
            fixtures::degenerate(),
        ] {
            let sol = SolveRequest::model(&model, &SolverOptions::default())
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{}", model.name);
            assert!(
                (sol.objective - expected).abs() < 1e-7,
                "{}: {} vs {}",
                model.name,
                sol.objective,
                expected
            );
            assert!(model.check_feasible(&sol.x, 1e-7).is_none());
        }
    }

    #[test]
    fn beale_cycling_fixture_terminates() {
        let (model, expected) = fixtures::beale_cycling();
        for rule in [PivotRule::Bland, PivotRule::Hybrid] {
            let opts = SolverOptions {
                pivot_rule: rule,
                ..Default::default()
            };
            let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
            assert_eq!(sol.status, Status::Optimal, "{rule:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-8,
                "{rule:?}: {}",
                sol.objective
            );
        }
    }

    #[test]
    fn transportation_on_cpu_and_gpu() {
        // Equality rows + redundancy: the hard two-phase path.
        let model = generator::transportation(&[30.0, 70.0], &[40.0, 60.0], 3);
        let cpu = SolveRequest::model(&model, &SolverOptions::default())
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        let gpu = SolveRequest::model(&model, &SolverOptions::default())
            .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
            .run::<f64>()
            .unwrap();
        assert_eq!(cpu.status, Status::Optimal);
        assert_eq!(gpu.status, Status::Optimal);
        assert!((cpu.objective - gpu.objective).abs() < 1e-6);
        assert!(model.check_feasible(&cpu.x, 1e-6).is_none());
    }

    #[test]
    fn dense_random_cpu_gpu_agree_with_tableau() {
        let model = generator::dense_random(12, 16, 9);
        let opts = SolverOptions::default();
        let (tstatus, _, tobj, _) = crate::tableau::solve_lp::<f64>(
            &model,
            &SolverOptions {
                presolve: false,
                scale: false,
                ..Default::default()
            },
        );
        assert_eq!(tstatus, Status::Optimal);
        for kind in all_kinds() {
            let sol = SolveRequest::model(&model, &opts)
                .on(&kind)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{kind:?}");
            assert!(
                (sol.objective - tobj).abs() / tobj.abs().max(1.0) < 1e-7,
                "{kind:?}: {} vs tableau {}",
                sol.objective,
                tobj
            );
        }
    }

    #[test]
    fn f32_pipeline_matches_f64_loosely() {
        let model = generator::dense_random(10, 12, 4);
        let s64 = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        let s32 = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f32>()
            .unwrap();
        assert_eq!(s64.status, Status::Optimal);
        assert_eq!(s32.status, Status::Optimal);
        assert!(
            (s64.objective - s32.objective).abs() / s64.objective.abs().max(1.0) < 1e-3,
            "{} vs {}",
            s64.objective,
            s32.objective
        );
    }

    #[test]
    fn max_flow_lp_solves() {
        let model = generator::max_flow(7, 2, 11);
        let sol = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal);
        // Flow is positive (source always has a forward path).
        assert!(sol.objective > 0.0);
        assert!(model.check_feasible(&sol.x, 1e-7).is_none());
    }

    #[test]
    fn iteration_limit_reported() {
        let model = generator::dense_random(16, 20, 1);
        let opts = SolverOptions {
            max_iterations: Some(1),
            ..Default::default()
        };
        let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
        assert_eq!(sol.status, Status::IterationLimit);
    }
}
