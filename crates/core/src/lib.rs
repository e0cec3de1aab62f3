//! # gplex — the revised simplex method on a (simulated) GPU
//!
//! Core of the reproduction of *"Linear optimization on modern GPUs"*
//! (IPDPS 2009): a two-phase revised simplex solver whose per-iteration
//! linear algebra is delegated to a [`backend::Backend`] —
//!
//! * [`backends::CpuBackend`] — the serial CPU baseline (ATLAS role), with
//!   modeled single-core time from `linalg::CpuModel`, over a dense column
//!   store ([`backends::CpuDenseBackend`]) or a CSC one
//!   ([`backends::CpuSparseBackend`], the sparse-extension experiment);
//! * [`backends::GpuDenseBackend`] — the paper's implementation: the
//!   constraint matrix and the explicit basis inverse `B⁻¹` live in
//!   simulated device memory, every step is a kernel/reduction on
//!   [`gpu_sim`], and `B⁻¹` is updated in place with the eta
//!   (Gauss–Jordan column) kernel;
//! * [`backends::BatchKernelBackend`] — the mega-batch backend: a family of
//!   same-shape LPs advanced in lockstep by batched kernels.
//!
//! Every host reinversion of every backend runs through the one basis
//! factor in [`basis`]: one gather, one f64 factorization, one modeled
//! charge.
//!
//! [`tableau`] holds the dense full-tableau simplex: the correctness oracle
//! and the "why revised?" baseline (CPU and GPU variants).
//!
//! ## Quick start
//!
//! Every solve is one [`SolveRequest`]: a model (or a prepared standard
//! form), an algorithm, a backend and where to start, run by one fallible
//! `run`.
//!
//! ```
//! use lp::generator;
//! use gplex::{BackendKind, SolveRequest, SolverOptions};
//!
//! let (model, expected) = generator::fixtures::wyndor();
//! let sol = SolveRequest::model(&model, &SolverOptions::default())
//!     .on(&BackendKind::CpuDense)
//!     .run::<f64>()
//!     .expect("fault-free solves never fail");
//! assert_eq!(sol.status, gplex::Status::Optimal);
//! assert!((sol.objective - expected).abs() < 1e-9);
//! assert!((sol.x[0] - 2.0).abs() < 1e-9 && (sol.x[1] - 6.0).abs() < 1e-9);
//! ```

// Simplex pivoting idioms: `!(a < b)` keeps NaN on the "no improvement"
// side of ratio tests (rewriting to `a >= b` flips NaN behavior), and
// indexed loops walk multiple co-indexed solver arrays.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod backends;
pub mod basis;
pub mod batch;
pub mod checkpoint;
pub mod error;
pub mod metrics;
pub mod options;
pub mod pdhg;
pub mod resilient;
pub mod result;
pub mod revised;
mod simplex_lane;
pub mod solver;
pub mod stats;
pub mod tableau;
pub mod tableau_gpu;
pub mod trace;
pub mod verify;

pub use backend::{Backend, RatioOutcome};
pub use backends::{BatchKernelBackend, BatchMember, LaneView};
pub use basis::{Eta, EtaFile};
pub use batch::mega::{mega_compatible, try_solve_family_mega, LaneOutcome, MegaFamilyRun};
pub use batch::{
    BasisCache, BatchOptions, BatchReport, BatchSolver, BatchStats, CacheStats, JobOutcome,
    JobResult, PlacementPolicy, WarmStartPolicy,
};
pub use checkpoint::{CheckpointSlot, SolveCheckpoint};
pub use error::{BackendError, SolveError};
pub use metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};
pub use options::{BasisRepresentation, DegeneracyPolicy, PivotRule, SolverOptions};
pub use pdhg::{crossover_prefers_pdhg, model_density, PdhgOptions};
pub use resilient::{AlgorithmChoice, ResilienceOptions, ResilientOutcome, ResilientSolver};
pub use result::{LpSolution, Status, StdResult};
pub use revised::RevisedSimplex;
pub use solver::{
    try_solve_on, try_solve_on_recorded, Algorithm, BackendKind, ModelInput, SolveRequest,
    StandardInput, Start, WarmContext,
};
pub use stats::{PhaseCounters, SolveStats, Step};
pub use trace::{
    EventTrace, NoopRecorder, Recorder, StepKind, StepStat, StepTimings, TraceEvent, TraceRecorder,
};
pub use verify::VerifyError;
