//! Fault-injection acceptance tests: a heavily-faulted batch must drain
//! with zero escaped panics, every job terminal, bit-for-bit CPU answers
//! for degraded jobs, and counters that are a pure function of the seed.

use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{
    verify, BackendKind, BatchOptions, BatchSolver, ResilienceOptions, SolveError, SolveRequest,
    SolverOptions, Status,
};
use gpu_sim::{DeviceSpec, FaultConfig, Gpu};
use lp::generator::{self, fixtures};
use lp::{LinearProgram, StandardForm};

/// The acceptance batch: three shape families interleaved, 64 jobs.
fn mixed_batch(count: usize) -> Vec<LinearProgram> {
    (0..count)
        .map(|i| match i % 3 {
            0 => generator::dense_random(10, 14, i as u64),
            1 => generator::dense_random(16, 12, 4000 + i as u64),
            _ => generator::transportation(&[30.0, 70.0], &[40.0, 60.0], i as u64),
        })
        .collect()
}

fn faulted_options(gpu: Arc<Gpu>, fault_p: f64, quarantine_after: usize) -> BatchOptions {
    BatchOptions {
        workers: 4,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
        resilience: Some(ResilienceOptions {
            faults: Some(FaultConfig::uniform(777, fault_p)),
            quarantine_after,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// Headline acceptance: 64 mixed LPs with faults injected into 25% of GPU
/// ops. The batch drains, no panic escapes the scheduler, every job is
/// terminal, and each job that degraded to the CPU rung reproduces the
/// CPU-only golden objective *bit for bit*.
#[test]
fn faulted_batch_drains_with_terminal_jobs_and_bitwise_cpu_answers() {
    let jobs = mixed_batch(64);
    let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    // Quarantine off so every job walks its own retry/degradation ladder.
    let report = BatchSolver::new(faulted_options(gpu, 0.25, 0)).solve::<f64>(&jobs);

    assert_eq!(report.results.len(), 64);
    assert_eq!(
        report.stats.panicked, 0,
        "no panic may escape the scheduler"
    );
    assert_eq!(report.stats.failed, 0, "CPU rung always completes");
    assert_eq!(report.stats.solved, 64, "every job is terminal");
    assert!(report.all_solved());
    assert!(
        report.stats.device_faults > 0,
        "25% fault rate must actually fire"
    );
    assert!(
        report.stats.degradations > 0,
        "at this rate jobs must degrade"
    );

    for (i, r) in report.results.iter().enumerate() {
        let sol = r.outcome.solution().expect("terminal solution");
        if r.backend == "cpu-dense" {
            let golden = SolveRequest::model(&jobs[i], &SolverOptions::default())
                .on(&BackendKind::CpuDense)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, golden.status, "job {i}");
            assert_eq!(
                sol.objective.to_bits(),
                golden.objective.to_bits(),
                "job {i}: degraded objective must be bitwise the CPU answer"
            );
            for (a, b) in sol.x.iter().zip(&golden.x) {
                assert_eq!(a.to_bits(), b.to_bits(), "job {i}: x mismatch");
            }
        }
    }
}

/// Fault injection is a pure function of the seed: two fresh runs agree on
/// every aggregate and per-job fault/retry/degradation counter.
#[test]
fn fault_counters_are_deterministic_from_seed() {
    let run = || {
        let jobs = mixed_batch(24);
        let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let report = BatchSolver::new(faulted_options(gpu, 0.25, 0)).solve::<f64>(&jobs);
        let per_job: Vec<_> = report
            .results
            .iter()
            .map(|r| {
                (
                    r.faults,
                    r.retries,
                    r.degradations,
                    r.backend,
                    r.outcome.status_label().to_string(),
                )
            })
            .collect();
        (
            report.stats.device_faults,
            report.stats.retries,
            report.stats.degradations,
            report.stats.solved,
            per_job,
        )
    };
    assert_eq!(run(), run());
}

/// A per-attempt deadline surfaces as `SolveError::Timeout` with the stable
/// `timeout` tag rather than as a panic or a bogus status.
#[test]
fn deadline_is_enforced_as_timeout_error() {
    let model = generator::dense_random(16, 20, 3);
    let opts = SolverOptions {
        time_limit: Some(0.0),
        ..Default::default()
    };
    match SolveRequest::model(&model, &opts).run::<f64>() {
        Err(e @ SolveError::Timeout { .. }) => assert_eq!(e.tag(), "timeout"),
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// An `IterationLimit` best-effort point is never treated as optimal: the
/// honest status sails through `check_solution` uncertified, and forging
/// `Optimal` onto the same point gets rejected — at the model level (the
/// half-finished phase-1 point is infeasible) and at the standard-form
/// level (reduced costs betray suboptimality even for feasible points).
#[test]
fn iteration_limit_best_effort_never_passes_as_optimal() {
    // Phase-1-requiring model stopped after one iteration: the best-effort
    // point still carries artificial infeasibility.
    let (model, _) = fixtures::two_phase();
    let opts = SolverOptions {
        max_iterations: Some(1),
        ..Default::default()
    };
    let mut sol = SolveRequest::model(&model, &opts)
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::IterationLimit);
    // Honest status: nothing is certified, nothing errors.
    verify::check_solution(&model, &sol, 1e-8).expect("IterationLimit is not certified");
    // Forged status: the same point must not verify as optimal.
    sol.status = Status::Optimal;
    assert!(
        verify::check_solution(&model, &sol, 1e-8).is_err(),
        "forged Optimal on a best-effort point must be rejected"
    );

    // Feasible-but-suboptimal variant (slack start, no phase 1): feasibility
    // alone cannot launder the forged status past the reduced-cost check.
    let model = generator::dense_random(12, 16, 5);
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    let raw = SolverOptions {
        presolve: false,
        scale: false,
        max_iterations: Some(1),
        ..Default::default()
    };
    let mut res = SolveRequest::standard(&sf, &raw)
        .on(&BackendKind::CpuDense)
        .run()
        .unwrap();
    assert_eq!(res.status, Status::IterationLimit);
    assert_eq!(
        verify::certify_optimal(&sf, &res, 1e-8),
        Err(verify::VerifyError::NotOptimal {
            status: Status::IterationLimit
        })
    );
    res.status = Status::Optimal;
    assert!(
        verify::certify_optimal(&sf, &res, 1e-8).is_err(),
        "one pivot cannot be optimal for this instance"
    );
}

/// `SingularBasis` (and every other status) round-trips through the stable
/// tag used by the batch/bench CSV output.
#[test]
fn singular_basis_round_trips_through_batch_csv_tags() {
    let statuses = [
        Status::Optimal,
        Status::Infeasible,
        Status::Unbounded,
        Status::IterationLimit,
        Status::SingularBasis,
    ];
    // Render a CSV column exactly the way the bench tables do…
    let csv: Vec<String> = statuses.iter().map(|s| s.tag().to_string()).collect();
    assert_eq!(csv[4], "singular");
    // …and parse it back.
    for (s, cell) in statuses.iter().zip(&csv) {
        assert_eq!(
            Status::from_tag(cell),
            Some(*s),
            "tag {cell} must round-trip"
        );
    }
    // Unknown tags (e.g. the batch-only `panicked` label) do not alias.
    assert_eq!(Status::from_tag("panicked"), None);
    assert_eq!(Status::from_tag("failed"), None);
}

/// Degradation preserves answer quality under verification: every solved
/// job of a faulted batch passes the independent checker.
#[test]
fn faulted_batch_solutions_still_verify() {
    let jobs = mixed_batch(12);
    let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let report = BatchSolver::new(faulted_options(gpu, 0.25, 0)).solve::<f64>(&jobs);
    assert!(report.all_solved());
    for (i, r) in report.results.iter().enumerate() {
        let sol = r.outcome.solution().unwrap();
        verify::check_solution(&jobs[i], sol, 1e-6).unwrap_or_else(|e| panic!("job {i}: {e}"));
    }
}

/// Regression (setup-fault routing): a device fault injected during the
/// *initial* uploads — warmup 0, every transfer times out, so the very
/// first H2D of `A` fails before any iterate exists — must surface as a
/// reportable [`SolveError::Device`]. The backend constructor used to
/// unwrap that upload, so the solve died as `Panicked` instead.
#[test]
fn setup_fault_surfaces_as_device_error_not_panic() {
    let (model, _) = fixtures::wyndor();
    let opts = SolverOptions {
        faults: Some(FaultConfig {
            transfer_timeout: 1.0,
            ..FaultConfig::off(11)
        }),
        ..Default::default()
    };
    let err = SolveRequest::model(&model, &opts)
        .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
        .run::<f64>()
        .expect_err("a certain transfer fault cannot produce a solution");
    assert!(
        matches!(err, SolveError::Device(_)),
        "setup fault must be a device error, got: {err}"
    );
}

/// Regression (warm starts × the degradation ladder): a cached basis
/// offered to the placed GPU backend must be *re-supplied* on every rung,
/// not silently dropped when retries exhaust and the job degrades to the
/// dense CPU path. With certain GPU faults, the job lands on `cpu-dense`
/// and still warm-starts — zero iterations from the family's optimal basis.
#[test]
fn degraded_job_keeps_its_warm_start() {
    use gplex::{BasisCache, ResilientSolver, WarmContext, WarmStartPolicy};

    let model = generator::dense_random(10, 14, 5);
    let opts = SolverOptions::default();
    let cache = BasisCache::new(4);
    let ctx = WarmContext {
        cache: &cache,
        policy: WarmStartPolicy::Family { tol: 1e-6 },
    };
    // Seed the cache with the model's optimal basis via a cold CPU solve.
    let seed = SolveRequest::model(&model, &opts)
        .on(&BackendKind::CpuDense)
        .warm(Some(&ctx))
        .run::<f64>()
        .unwrap();
    assert_eq!(seed.status, Status::Optimal);
    assert_eq!(cache.stats().insertions, 1);

    // p = 1: the GPU rung can never finish; the ladder bottoms out on CPU.
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(FaultConfig::uniform(7, 1.0)),
        ..Default::default()
    });
    let out = solver.run::<f64>(
        3,
        SolveRequest::model(&model, &opts)
            .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
            .warm(Some(&ctx)),
    );
    let sol = out.result.expect("CPU rung always succeeds");
    assert_eq!(out.final_backend, "cpu-dense");
    assert_eq!(out.degradations, 1);
    assert_eq!(sol.status, Status::Optimal);
    // The fix under test: the CPU rung still saw the cached basis.
    assert_eq!(
        sol.stats.warm_start_attempted, 1,
        "warm start dropped on degradation"
    );
    assert_eq!(sol.stats.warm_start_rejected, 0);
    assert_eq!(
        sol.stats.iterations, 0,
        "optimal family basis needs no pivots"
    );
    assert!(sol.stats.warm_iterations_saved > 0);
    assert_eq!(sol.objective.to_bits(), seed.objective.to_bits());

    // And a job without a context still cold-starts — the warm path is
    // strictly opt-in.
    let cold = solver
        .run::<f64>(
            3,
            SolveRequest::model(&model, &opts).on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
        )
        .result
        .expect("CPU rung always succeeds");
    assert_eq!(cold.stats.warm_start_attempted, 0);
    assert!(cold.stats.iterations > 0);
}

/// Tentpole acceptance (checkpointed recovery): an attempt that dies
/// mid-solve on the GPU rung leaves its latest checkpoint in the slot, and
/// the *next* attempt resumes from it instead of restarting — on the same
/// rung when retries remain.
#[test]
fn resilient_solver_resumes_from_checkpoint_on_retry() {
    use gplex::ResilientSolver;

    let model = generator::dense_random(16, 24, 42);
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        refactor_period: 4,
        checkpoint_interval: 4,
        ..Default::default()
    };
    // Golden is the fault-free solve on the *same* rung: GPU and CPU agree
    // on every pivot and on the final answer bitwise, but the fingerprint
    // folds theta bits, which can differ in reduction order across
    // backends mid-path.
    let golden = SolveRequest::model(&model, &opts)
        .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
        .run::<f64>()
        .unwrap();
    assert_eq!(golden.status, Status::Optimal);

    // A certain kernel fault past a 125-op warmup: the scratch attempt dies
    // at iteration 5 with a checkpoint at 4; the resumed attempt has only
    // ~2 iterations of device work left and finishes inside the warmup.
    // (Warmups 117–134 all land there.)
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(FaultConfig {
            kernel_fault: 1.0,
            warmup_ops: 125,
            ..FaultConfig::off(9)
        }),
        ..Default::default()
    });
    let out = solver.run::<f64>(
        0,
        SolveRequest::model(&model, &opts).on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
    );
    let sol = out.result.expect("resumed attempt finishes");
    assert_eq!(out.final_backend, "gpu-dense", "no degradation needed");
    assert_eq!(out.degradations, 0);
    assert!(out.faults > 0, "the fault must fire");
    assert!(out.retries >= 1, "the first attempt must die");
    assert_eq!(
        sol.stats.checkpoint_resumes, 1,
        "the retry must resume, not restart"
    );
    assert!(
        sol.stats.wasted_iterations < 4,
        "resume re-does less than one checkpoint interval, got {}",
        sol.stats.wasted_iterations
    );
    assert_eq!(
        sol.stats.wasted_iterations, 1,
        "the fault lands at iteration 5, one past the checkpoint at 4"
    );
    // Zero lost work: the resumed solve is bitwise the uninterrupted one.
    assert_eq!(sol.status, golden.status);
    assert_eq!(sol.objective.to_bits(), golden.objective.to_bits());
    assert_eq!(sol.stats.iterations, golden.stats.iterations);
    assert_eq!(sol.stats.pivot_fingerprint, golden.stats.pivot_fingerprint);
    for (a, b) in sol.x.iter().zip(&golden.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Cross-rung resume: once the GPU rung's retries are spent, the checkpoint
/// taken on the *GPU* rung resumes on the fault-free *CPU* rung mid-solve —
/// the snapshot basis lives in standard-form space, which is identical
/// across backends.
#[test]
fn gpu_checkpoint_resumes_on_cpu_rung_after_degradation() {
    use gplex::ResilientSolver;

    let model = generator::dense_random(16, 24, 11);
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        refactor_period: 4,
        checkpoint_interval: 4,
        ..Default::default()
    };
    let golden = SolveRequest::model(&model, &opts)
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();

    // A certain kernel fault past a 98-op warmup: the scratch attempt dies
    // at iteration 6, two past its checkpoint at 4, and each of the two
    // retries resumes from that checkpoint and dies two iterations later
    // again, so the ladder degrades with the GPU-taken checkpoint in the
    // slot. (Warmups 96–99 all land there.)
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(FaultConfig {
            kernel_fault: 1.0,
            warmup_ops: 98,
            ..FaultConfig::off(9)
        }),
        ..Default::default()
    });
    let out = solver.run::<f64>(
        1,
        SolveRequest::model(&model, &opts).on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
    );
    let sol = out.result.expect("CPU rung always completes");
    assert_eq!(out.final_backend, "cpu-dense");
    assert_eq!(out.degradations, 1, "three GPU attempts, then the ladder");
    assert_eq!(out.retries, 2);
    assert_eq!(out.faults, 3, "every GPU attempt dies");
    assert_eq!(
        sol.stats.checkpoint_resumes, 3,
        "both GPU retries and the CPU rung resume the GPU-taken checkpoint"
    );
    assert!(sol.stats.checkpoints_taken >= 1);
    assert_eq!(
        sol.stats.wasted_iterations, 6,
        "each GPU attempt dies two iterations past its checkpoint at 4"
    );
    // The cross-rung resume still lands bitwise on the uninterrupted CPU
    // answer: the checkpoint boundary state is backend-independent.
    assert_eq!(sol.status, golden.status);
    assert_eq!(sol.objective.to_bits(), golden.objective.to_bits());
    assert_eq!(sol.stats.iterations, golden.stats.iterations);
    assert_eq!(sol.stats.pivot_fingerprint, golden.stats.pivot_fingerprint);
    for (a, b) in sol.x.iter().zip(&golden.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Bugfix regression (wasted-work accounting under repeated faults): when a
/// *resumed* attempt dies again before reaching a fresh checkpoint, only
/// the iterations past the checkpoint it resumed from are wasted — the
/// pre-checkpoint prefix must not be re-counted on every subsequent
/// failure. Three consecutive GPU attempts each die two iterations past
/// their latest boundary here; a double-count would fold the resumed
/// prefix (4, then 8 iterations) back in and report ≥ 16.
#[test]
fn repeated_faults_do_not_double_count_wasted_iterations() {
    use gplex::ResilientSolver;

    let model = generator::dense_random(24, 40, 7);
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        refactor_period: 2,
        checkpoint_interval: 2,
        ..Default::default()
    };
    let golden = SolveRequest::model(&model, &opts)
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
    assert_eq!(golden.status, Status::Optimal);

    // The fault is aimed at the reinversion group, so it strikes exactly
    // at a checkpoint boundary, before that boundary's snapshot is stored.
    // A 64-op warmup is past the first boundary (iteration 2) of the
    // scratch attempt and short of the boundary at iteration 4 on every GPU
    // attempt: each one dies two iterations past the checkpoint at 2, so
    // each retry genuinely resumes mid-solve before faulting again, and the
    // CPU rung resumes from a snapshot whose two pivots the GPU took before
    // any reinversion — bitwise the CPU's. (Warmups 60–67 all land there.)
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(
            FaultConfig {
                kernel_fault: 1.0,
                warmup_ops: 64,
                ..FaultConfig::off(9)
            }
            .only(&["refactor_fused"]),
        ),
        ..Default::default()
    });
    let out = solver.run::<f64>(
        5,
        SolveRequest::model(&model, &opts).on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
    );
    let sol = out.result.expect("CPU rung finishes after the ladder");
    assert_eq!(out.final_backend, "cpu-dense");
    assert_eq!(out.retries, 2, "both same-rung retries must burn");
    assert_eq!(out.degradations, 1);
    assert_eq!(out.faults, 3, "every GPU attempt dies");
    assert_eq!(
        sol.stats.checkpoint_resumes, 3,
        "attempts 2, 3, and the CPU rung all resume from a checkpoint"
    );
    // Each of the three failed attempts overran its latest checkpoint by
    // exactly two iterations. The sum is 6; any double-counting of the
    // resumed prefix would push this to 10+.
    assert_eq!(sol.stats.wasted_iterations, 6);
    // And the recovered answer is still bitwise the uninterrupted one.
    assert_eq!(sol.status, golden.status);
    assert_eq!(sol.objective.to_bits(), golden.objective.to_bits());
    assert_eq!(sol.stats.iterations, golden.stats.iterations);
    assert_eq!(sol.stats.pivot_fingerprint, golden.stats.pivot_fingerprint);
}

/// Regression: the ladder's PDHG rungs take launch fusion from the job's
/// options. Unfused, the job's device shows one launch per kernel — four
/// per PDHG iteration plus one anchor copy per restart — and no fused
/// group, the count a direct unfused PDHG solve shows.
#[test]
fn pdhg_rungs_keep_the_jobs_launch_fusion_setting() {
    use gplex::{AlgorithmChoice, ResilientSolver};

    let (model, _) = fixtures::wyndor();
    let device = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let solver = ResilientSolver::new(ResilienceOptions {
        algorithm: AlgorithmChoice::Pdhg,
        ..Default::default()
    });
    let opts = SolverOptions {
        fuse_launches: false,
        ..Default::default()
    };
    let out = solver.run::<f64>(
        0,
        SolveRequest::model(&model, &opts).on(&BackendKind::GpuShared(device.clone())),
    );
    assert_eq!(out.final_backend, "pdhg-gpu-shared");
    let sol = out.result.expect("fault-free PDHG solve");
    let (iters, restarts) = (sol.stats.pdhg_iterations, sol.stats.restarts);
    assert!(iters > 0);
    let c = device.counters();
    assert_eq!(c.fused_groups, 0);
    assert_eq!(c.kernels_launched, 4 * iters + restarts);
}
