//! # gplex — the revised simplex method on a (simulated) GPU
//!
//! Core of the reproduction of *"Linear optimization on modern GPUs"*
//! (IPDPS 2009): a two-phase revised simplex solver whose per-iteration
//! linear algebra is delegated to a [`backend::Backend`] —
//!
//! * [`backends::CpuDenseBackend`] — the serial CPU baseline (ATLAS role),
//!   with modeled single-core time from `linalg::CpuModel`;
//! * [`backends::GpuDenseBackend`] — the paper's implementation: the
//!   constraint matrix and the explicit basis inverse `B⁻¹` live in
//!   simulated device memory, every step is a kernel/reduction on
//!   [`gpu_sim`], and `B⁻¹` is updated in place with the eta
//!   (Gauss–Jordan column) kernel;
//! * [`backends::CpuSparseBackend`] — a CSC-pricing CPU variant backing the
//!   sparse-extension experiment.
//!
//! [`tableau`] holds the dense full-tableau simplex: the correctness oracle
//! and the "why revised?" baseline (CPU and GPU variants).
//!
//! ## Quick start
//!
//! ```
//! use lp::generator;
//! use gplex::{solve, SolverOptions};
//!
//! let (model, expected) = generator::fixtures::wyndor();
//! let sol = solve::<f64>(&model, &SolverOptions::default());
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
pub use pdhg::{crossover_prefers_pdhg, model_density, PdhgOptions, PdhgStdResult};
pub use resilient::{
    AlgorithmChoice, ResilienceOptions, ResilientOutcome, ResilientSolver, RetryPolicy,
};
pub use result::{LpSolution, Status, StdResult};
pub use revised::RevisedSimplex;
pub use solver::{
    solve, solve_on, solve_on_warm, solve_standard, solve_standard_with_basis, try_solve,
    try_solve_on, try_solve_on_recorded, try_solve_on_warm, try_solve_on_warm_ckpt,
    try_solve_standard, try_solve_standard_ckpt, try_solve_standard_recorded,
    try_solve_standard_with_basis, BackendKind, RecoveryContext, WarmContext,
};
pub use stats::{PhaseCounters, SolveStats, Step};
pub use trace::{
    EventTrace, NoopRecorder, Recorder, StepKind, StepStat, StepTimings, TraceEvent, TraceRecorder,
};
pub use verify::VerifyError;
