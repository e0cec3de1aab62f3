//! Retry, backoff and graceful degradation around the solve pipeline.
//!
//! [`ResilientSolver`] wraps a [`SolveRequest`] with a *degradation ladder*:
//! each requested backend maps to an ordered list of rungs, from the backend
//! itself down to the always-available dense CPU path
//! (`GpuShared → GpuDense → CpuDense`). Every rung gets a bounded number of
//! retries with exponential backoff (recorded, not slept — the batch
//! scheduler owns real pacing); when a rung's budget is exhausted the solver
//! descends one rung and tries again. CPU rungs always run fault-free, so a
//! job that degrades all the way down reproduces the CPU-only golden result
//! bit for bit.
//!
//! Fault injection is re-seeded per `(job salt, rung, attempt)` with a
//! splitmix-style mixer, so a batch run is fully deterministic from its seed:
//! the same jobs fault at the same operations, retry the same number of
//! times, and land on the same rungs every run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::FaultConfig;
use linalg::Scalar;
use lp::LinearProgram;

use crate::batch::panic_message;
use crate::checkpoint::CheckpointSlot;
use crate::error::SolveError;
use crate::options::SolverOptions;
use crate::pdhg::{self, PdhgOptions};
use crate::result::LpSolution;
use crate::solver::{BackendKind, ModelInput, SolveRequest, Start};

/// Which solver family the resilient ladder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgorithmChoice {
    /// Revised simplex on every backend rung, with a terminal first-order
    /// (PDHG) safety net after the dense CPU rung — an *algorithm* switch
    /// rather than a backend switch, reached only when every simplex rung
    /// has failed (e.g. persistent numerical trouble).
    #[default]
    Simplex,
    /// Restarted PDHG on every backend rung, with a terminal dense-CPU
    /// simplex safety net for models where the first-order method stalls.
    Pdhg,
    /// Pick per job with [`crate::crossover_prefers_pdhg`]: first-order for
    /// large/sparse models, simplex for small/dense ones.
    Auto,
}

/// Retries per rung after the first attempt (2 ⇒ up to 3 attempts).
const MAX_RETRIES: usize = 2;

/// Backoff recorded before the first retry on a rung, in seconds.
const BACKOFF_BASE: f64 = 0.01;

/// Multiplier applied to the recorded backoff after each retry.
const BACKOFF_FACTOR: f64 = 2.0;

/// Configuration for [`ResilientSolver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceOptions {
    /// Fault-injection plan template for GPU rungs; re-seeded per
    /// `(salt, rung, attempt)`. `None` runs fault-free (retries then only
    /// cover genuine numerical failures and panics).
    pub faults: Option<FaultConfig>,
    /// Batch-scheduler knob: quarantine a backend after this many
    /// *consecutive* jobs with device faults (0 disables quarantine). Not
    /// consulted by [`ResilientSolver::solve_job`] itself.
    pub quarantine_after: usize,
    /// Wall-clock budget per attempt, in seconds; enforced inside the
    /// simplex loop as [`SolveError::Timeout`]. A timeout is terminal — it
    /// is not retried, because the deadline has already passed.
    pub deadline_seconds: Option<f64>,
    /// Which algorithm family the ladder runs (simplex, PDHG, or a per-job
    /// size/density crossover pick).
    pub algorithm: AlgorithmChoice,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            faults: None,
            quarantine_after: 3,
            deadline_seconds: None,
            algorithm: AlgorithmChoice::Simplex,
        }
    }
}

/// What one resilient solve did, successful or not.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The final result: the first successful solve, or the error from the
    /// last attempt of the last rung tried.
    pub result: Result<LpSolution, SolveError>,
    /// Total attempts across all rungs (≥ 1).
    pub attempts: usize,
    /// Attempts beyond the first on some rung (= attempts − rungs tried).
    pub retries: usize,
    /// Rungs descended below the requested backend (0 = solved as placed).
    pub degradations: usize,
    /// Device faults observed across all attempts: exact counts from the
    /// fault plan of the successful attempt, plus one per attempt that died
    /// with [`SolveError::Device`] before its counters could be read.
    pub faults: u64,
    /// Total backoff scheduled between attempts, in seconds (recorded, not
    /// slept).
    pub backoff_seconds: f64,
    /// Label of the backend that produced `result`.
    pub final_backend: &'static str,
    /// Attempts that resumed from a stored checkpoint instead of starting
    /// from scratch (0 when `checkpoint_interval` is 0 or no checkpoint
    /// had been taken yet when the fault struck).
    pub checkpoint_resumes: usize,
    /// Iterations completed by failed attempts beyond their latest
    /// checkpoint — the work that actually had to be re-done. With
    /// checkpointing disabled this is every iteration of every failed
    /// attempt.
    pub wasted_iterations: u64,
}

/// Retry/degrade wrapper around the solve pipeline. Stateless and cheap to
/// clone; one instance can serve many jobs.
#[derive(Debug, Clone, Default)]
pub struct ResilientSolver {
    /// The policy this solver applies to every job.
    pub options: ResilienceOptions,
}

/// Splitmix64-style finalizer: decorrelates the per-attempt fault seeds so
/// a retry does not replay the exact fault schedule that killed the
/// previous attempt.
pub(crate) fn mix(salt: u64, rung: u64, attempt: u64) -> u64 {
    let mut z = salt
        ^ rung.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ attempt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The degradation ladder for a requested backend: the backend itself first,
/// then progressively more conservative fallbacks, ending on dense CPU.
fn ladder(placed: &BackendKind) -> Vec<BackendKind> {
    match placed {
        BackendKind::GpuShared(gpu) => vec![
            BackendKind::GpuShared(gpu.clone()),
            BackendKind::GpuDense(gpu.spec().clone()),
            BackendKind::CpuDense,
        ],
        BackendKind::GpuDense(spec) => {
            vec![BackendKind::GpuDense(spec.clone()), BackendKind::CpuDense]
        }
        BackendKind::CpuSparse => vec![BackendKind::CpuSparse, BackendKind::CpuDense],
        BackendKind::CpuDense => vec![BackendKind::CpuDense],
    }
}

/// One rung of the degradation ladder: which algorithm runs, and where.
#[derive(Debug, Clone)]
enum Rung {
    Simplex(BackendKind),
    Pdhg(BackendKind),
}

impl Rung {
    fn backend(&self) -> &BackendKind {
        match self {
            Rung::Simplex(b) | Rung::Pdhg(b) => b,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Rung::Simplex(b) => b.label(),
            Rung::Pdhg(b) => match b {
                BackendKind::CpuDense => "pdhg-cpu-dense",
                BackendKind::CpuSparse => "pdhg-cpu-sparse",
                BackendKind::GpuDense(_) => "pdhg-gpu-dense",
                BackendKind::GpuShared(_) => "pdhg-gpu-shared",
            },
        }
    }
}

/// The full algorithm-aware ladder for one job. Both families end on a rung
/// of the *other* family: a terminal algorithm switch survives failure modes
/// that are intrinsic to the method rather than the hardware (a simplex
/// basis going singular, or a first-order method stalling).
fn rungs_for(algorithm: AlgorithmChoice, placed: &BackendKind, model: &LinearProgram) -> Vec<Rung> {
    let algo = match algorithm {
        AlgorithmChoice::Auto => {
            if pdhg::crossover_prefers_pdhg(
                model.num_constraints(),
                model.num_vars(),
                pdhg::model_density(model),
            ) {
                AlgorithmChoice::Pdhg
            } else {
                AlgorithmChoice::Simplex
            }
        }
        fixed => fixed,
    };
    match algo {
        AlgorithmChoice::Simplex => {
            let mut rungs: Vec<Rung> = ladder(placed).into_iter().map(Rung::Simplex).collect();
            rungs.push(Rung::Pdhg(BackendKind::CpuSparse));
            rungs
        }
        AlgorithmChoice::Pdhg => {
            let mut rungs: Vec<Rung> = ladder(placed).into_iter().map(Rung::Pdhg).collect();
            rungs.push(Rung::Simplex(BackendKind::CpuDense));
            rungs
        }
        AlgorithmChoice::Auto => unreachable!("Auto resolved above"),
    }
}

impl ResilientSolver {
    /// Build a solver with the given policy.
    pub fn new(options: ResilienceOptions) -> Self {
        ResilientSolver { options }
    }

    /// Solve `model` on `placed` with retries and degradation:
    /// `self.run(salt, SolveRequest::model(model, solver_opts).on(placed))`.
    pub fn solve_job<T: Scalar>(
        &self,
        salt: u64,
        model: &LinearProgram,
        solver_opts: &SolverOptions,
        placed: &BackendKind,
    ) -> ResilientOutcome {
        self.run::<T>(salt, SolveRequest::model(model, solver_opts).on(placed))
    }

    /// Run `job` with retries and degradation, its backend the top rung.
    /// `salt` individualizes the fault schedule per job (the batch layer
    /// passes the job index) so jobs sharing one [`FaultConfig`] template
    /// still fault independently.
    ///
    /// Each attempt is a request of its own. A rung of the job's algorithm
    /// family runs with the job's options, a rung of the other family with
    /// the job's pipeline settings over that family's defaults. Simplex
    /// attempts re-consult the job's warm context on every rung, so a warm
    /// start offered to the placed GPU backend is re-supplied — not silently
    /// dropped — when the job degrades to the dense CPU rung. They resume
    /// from the latest checkpoint in the job's slot (a private one when the
    /// job has none) and otherwise begin at the job's start; PDHG attempts
    /// always start from scratch.
    ///
    /// Panics inside an attempt (poisoned models, backend construction
    /// failures) are caught and treated like any other attempt failure, so
    /// no panic escapes to the caller.
    pub fn run<T: Scalar>(
        &self,
        salt: u64,
        job: SolveRequest<'_, ModelInput<'_>>,
    ) -> ResilientOutcome {
        let ModelInput { model, algorithm } = job.input;
        let (simplex_opts, pdhg_opts) = (algorithm.simplex(), algorithm.pdhg());
        let rungs = rungs_for(self.options.algorithm, job.backend, model);
        let mut attempts = 0usize;
        let mut retries = 0usize;
        let mut faults = 0u64;
        let mut backoff_seconds = 0.0f64;
        let mut last_err: Option<SolveError> = None;
        let mut final_backend = rungs[0].label();
        let mut rungs_descended = 0usize;
        // Checkpoint mailbox shared across every rung and attempt of this
        // job: a snapshot taken on the GPU rung resumes on the CPU rung —
        // the checkpoint basis lives in standard-form space, which is
        // identical across backends.
        let own_slot = CheckpointSlot::new();
        let slot = job.slot.unwrap_or(&own_slot);
        let ckpt_enabled = simplex_opts.checkpoint_interval > 0;
        let mut checkpoint_resumes = 0usize;
        let mut wasted_iterations = 0u64;

        for (rung_idx, rung) in rungs.iter().enumerate() {
            rungs_descended = rung_idx;
            let on_gpu = matches!(
                rung.backend(),
                BackendKind::GpuDense(_) | BackendKind::GpuShared(_)
            );
            for attempt in 0..=MAX_RETRIES {
                attempts += 1;
                if attempt > 0 {
                    retries += 1;
                    backoff_seconds += BACKOFF_BASE * BACKOFF_FACTOR.powi(attempt as i32 - 1);
                }
                // CPU rungs run fault-free: a fully degraded job must match
                // the CPU-only golden result bit for bit.
                let attempt_faults = if on_gpu {
                    self.options
                        .faults
                        .as_ref()
                        .map(|cfg| cfg.reseed(mix(salt, rung_idx as u64, attempt as u64)))
                } else {
                    None
                };
                let fault_armed = attempt_faults.is_some();
                let deadline = self.options.deadline_seconds;

                let outcome = match rung {
                    Rung::Simplex(backend) => {
                        // Resume from the latest checkpoint instead of
                        // restarting: recovery cost stops scaling with
                        // iterations-completed.
                        let resume = if ckpt_enabled {
                            slot.checkpoint()
                        } else {
                            None
                        };
                        if resume.is_some() {
                            checkpoint_resumes += 1;
                        }
                        slot.begin_attempt(resume.as_ref().map_or(0, |cp| cp.stats.iterations));
                        let start = resume
                            .map_or_else(|| job.start.clone(), |cp| Start::Resume(Box::new(cp)));
                        let opts = SolverOptions {
                            faults: attempt_faults,
                            time_limit: simplex_opts.time_limit.or(deadline),
                            ..simplex_opts.clone()
                        };
                        catch_unwind(AssertUnwindSafe(|| {
                            SolveRequest::model(model, &opts)
                                .on(backend)
                                .start(start)
                                .warm(job.warm)
                                .checkpoint(slot)
                                .run::<T>()
                        }))
                    }
                    Rung::Pdhg(backend) => {
                        // Warm bases and simplex checkpoints don't transfer
                        // to a first-order method; PDHG attempts start from
                        // scratch. Re-baseline the slot so a failed PDHG
                        // attempt doesn't re-bill the previous simplex
                        // attempt's lost iterations.
                        slot.begin_attempt(slot.checkpoint().map_or(0, |cp| cp.stats.iterations));
                        let opts = PdhgOptions {
                            faults: attempt_faults,
                            time_limit: pdhg_opts.time_limit.or(deadline),
                            ..pdhg_opts.clone()
                        };
                        catch_unwind(AssertUnwindSafe(|| {
                            SolveRequest::model(model, &opts).on(backend).run::<T>()
                        }))
                    }
                }
                .unwrap_or_else(|payload| Err(SolveError::Panicked(panic_message(&*payload))));

                match outcome {
                    Ok(mut sol) => {
                        faults += sol.stats.device_faults;
                        sol.stats.retries = retries;
                        sol.stats.degradations = rung_idx;
                        sol.stats.backoff_seconds = backoff_seconds;
                        sol.stats.device_faults = faults;
                        // The layer-level counters are authoritative: the
                        // driver's per-install bump undercounts when an
                        // attempt dies before storing a fresh checkpoint.
                        sol.stats.checkpoint_resumes = checkpoint_resumes;
                        sol.stats.wasted_iterations = wasted_iterations;
                        return ResilientOutcome {
                            result: Ok(sol),
                            attempts,
                            retries,
                            degradations: rung_idx,
                            faults,
                            backoff_seconds,
                            final_backend: rung.label(),
                            checkpoint_resumes,
                            wasted_iterations,
                        };
                    }
                    Err(e) => {
                        wasted_iterations += slot.wasted_on_failure();
                        if matches!(e, SolveError::Device(_))
                            || (fault_armed && matches!(e, SolveError::Panicked(_)))
                        {
                            // The plan died with its stream; count at least
                            // the fault that surfaced (a panic on a
                            // fault-armed GPU rung is fault-induced too —
                            // construction-time faults unwind rather than
                            // return).
                            faults += 1;
                        }
                        final_backend = rung.label();
                        let terminal = matches!(e, SolveError::Timeout { .. });
                        last_err = Some(e);
                        if terminal {
                            return ResilientOutcome {
                                result: Err(last_err.unwrap()),
                                attempts,
                                retries,
                                degradations: rung_idx,
                                faults,
                                backoff_seconds,
                                final_backend,
                                checkpoint_resumes,
                                wasted_iterations,
                            };
                        }
                    }
                }
            }
        }

        ResilientOutcome {
            result: Err(last_err.expect("at least one attempt ran")),
            attempts,
            retries,
            degradations: rungs_descended,
            faults,
            backoff_seconds,
            final_backend,
            checkpoint_resumes,
            wasted_iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Status;
    use gpu_sim::DeviceSpec;
    use lp::generator::fixtures;

    #[test]
    fn fault_free_job_solves_without_retries() {
        let (model, expected) = fixtures::wyndor();
        let solver = ResilientSolver::default();
        let out = solver.run::<f64>(
            0,
            SolveRequest::model(&model, &SolverOptions::default())
                .on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
        );
        let sol = out.result.expect("fault-free solve succeeds");
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - expected).abs() < 1e-8);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.retries, 0);
        assert_eq!(out.degradations, 0);
        assert_eq!(out.final_backend, "gpu-dense");
    }

    #[test]
    fn certain_faults_degrade_to_cpu_and_match_golden() {
        let (model, _) = fixtures::wyndor();
        let golden = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        let solver = ResilientSolver::new(ResilienceOptions {
            // p = 1: every checked op faults, so the GPU rung can never
            // finish and the job must walk the whole ladder down to CPU.
            faults: Some(FaultConfig::uniform(7, 1.0)),
            ..Default::default()
        });
        let out = solver.run::<f64>(
            3,
            SolveRequest::model(&model, &SolverOptions::default())
                .on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
        );
        let sol = out.result.expect("CPU rung always succeeds");
        assert_eq!(out.final_backend, "cpu-dense");
        assert_eq!(out.degradations, 1);
        assert!(out.retries > 0);
        assert!(out.faults > 0);
        assert!(out.backoff_seconds > 0.0);
        // Bit-for-bit: the degraded job IS the CPU solve.
        assert_eq!(sol.status, golden.status);
        assert_eq!(sol.objective.to_bits(), golden.objective.to_bits());
        assert_eq!(sol.stats.degradations, 1);
    }

    #[test]
    fn outcomes_are_deterministic_from_seed() {
        let (model, _) = fixtures::wyndor();
        let mk = || {
            ResilientSolver::new(ResilienceOptions {
                faults: Some(FaultConfig::uniform(42, 0.25)),
                ..Default::default()
            })
        };
        let run = |solver: &ResilientSolver| {
            let out = solver.run::<f64>(
                11,
                SolveRequest::model(&model, &SolverOptions::default())
                    .on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
            );
            (
                out.attempts,
                out.retries,
                out.degradations,
                out.faults,
                out.result.is_ok(),
            )
        };
        assert_eq!(run(&mk()), run(&mk()));
    }

    #[test]
    fn panics_are_contained() {
        // poisoned(): standardization rejects the infinite coefficient and
        // panics; the resilient layer must convert that into an error on
        // every rung instead of unwinding into the caller.
        let model = fixtures::poisoned();
        let solver = ResilientSolver::default();
        let out = solver.run::<f64>(
            0,
            SolveRequest::model(&model, &SolverOptions::default()).on(&BackendKind::CpuDense),
        );
        match out.result {
            Err(SolveError::Panicked(_)) => {}
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn pdhg_ladder_degrades_to_cpu_pdhg_under_certain_faults() {
        let (model, expected) = fixtures::wyndor();
        let solver = ResilientSolver::new(ResilienceOptions {
            faults: Some(FaultConfig::uniform(7, 1.0)),
            algorithm: AlgorithmChoice::Pdhg,
            ..Default::default()
        });
        let out = solver.run::<f64>(
            3,
            SolveRequest::model(&model, &SolverOptions::default())
                .on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
        );
        let sol = out.result.expect("CPU PDHG rung runs fault-free");
        assert_eq!(out.final_backend, "pdhg-cpu-dense");
        assert_eq!(out.degradations, 1);
        assert!(out.retries > 0);
        assert!(out.faults > 0);
        assert_eq!(sol.status, Status::Optimal);
        assert!((sol.objective - expected).abs() < 1e-5);
        assert!(sol.stats.pdhg_iterations > 0);
        assert_eq!(sol.stats.iterations, 0);
    }

    #[test]
    fn auto_crossover_picks_by_size_and_density() {
        // Small and dense: Auto runs the simplex ladder.
        let (small, _) = fixtures::wyndor();
        let solver = ResilientSolver::new(ResilienceOptions {
            algorithm: AlgorithmChoice::Auto,
            ..Default::default()
        });
        let out = solver.run::<f64>(
            0,
            SolveRequest::model(&small, &SolverOptions::default()).on(&BackendKind::CpuSparse),
        );
        assert_eq!(out.final_backend, "cpu-sparse");
        assert!(out.result.unwrap().stats.iterations > 0);

        // Large and sparse: Auto runs the PDHG ladder.
        let big = lp::generator::sparse_random(300, 360, 0.01, 17);
        let out = solver.run::<f64>(
            0,
            SolveRequest::model(&big, &SolverOptions::default()).on(&BackendKind::CpuSparse),
        );
        assert_eq!(out.final_backend, "pdhg-cpu-sparse");
        assert!(out.result.unwrap().stats.pdhg_iterations > 0);
    }

    #[test]
    fn pdhg_job_runs_its_own_options_on_pdhg_rungs() {
        let (model, _) = fixtures::wyndor();
        let solver = ResilientSolver::new(ResilienceOptions {
            algorithm: AlgorithmChoice::Pdhg,
            ..Default::default()
        });
        let popts = PdhgOptions {
            max_iterations: Some(8),
            ..Default::default()
        };
        let out = solver.run::<f64>(0, SolveRequest::model(&model, &popts));
        assert_eq!(out.final_backend, "pdhg-cpu-dense");
        let sol = out.result.expect("a capped PDHG solve is an answer");
        assert_eq!(sol.status, Status::IterationLimit);
        assert_eq!(sol.stats.pdhg_iterations, 8);
    }

    #[test]
    fn job_slot_and_start_reach_the_attempts() {
        let model = lp::generator::dense_random(16, 20, 3);
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            refactor_period: 3,
            checkpoint_interval: 3,
            ..Default::default()
        };
        let solver = ResilientSolver::default();
        let slot = CheckpointSlot::new();
        let cold = solver.run::<f64>(0, SolveRequest::model(&model, &opts).checkpoint(&slot));
        let cp = slot
            .checkpoint()
            .expect("the job's own slot took the snapshot");
        let warm = solver.run::<f64>(
            0,
            SolveRequest::model(&model, &opts).start(Start::Warm(cp.basis)),
        );
        let (cold, warm) = (cold.result.unwrap(), warm.result.unwrap());
        assert_eq!(warm.stats.warm_start_attempted, 1);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    }

    /// Names every field with no `..`: a new option fails to compile here
    /// until the DESIGN.md option table is updated with it.
    #[test]
    fn option_list_is_reviewed() {
        let ResilienceOptions {
            faults,
            quarantine_after,
            deadline_seconds,
            algorithm,
        } = ResilienceOptions::default();
        assert!(faults.is_none());
        assert_eq!(quarantine_after, 3);
        assert_eq!(deadline_seconds, None);
        assert_eq!(algorithm, AlgorithmChoice::Simplex);
    }

    #[test]
    fn mix_decorrelates_attempts() {
        let a = mix(1, 0, 0);
        let b = mix(1, 0, 1);
        let c = mix(1, 1, 0);
        let d = mix(2, 0, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
