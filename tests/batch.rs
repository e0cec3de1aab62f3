//! Batch scheduler integration tests: concurrency must never change
//! answers, and one bad job must never take down the pool.

use std::sync::Arc;

use gplex::batch::{BatchOptions, BatchSolver, JobOutcome, PlacementPolicy};
use gplex::{BackendKind, SolveRequest, SolverOptions, Status};
use gpu_sim::{DeviceSpec, FaultConfig, Gpu};
use lp::generator::{self, fixtures};
use lp::LinearProgram;

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

fn sequential(jobs: &[LinearProgram], kind: &BackendKind) -> Vec<(Status, f64)> {
    jobs.iter()
        .map(|lp| {
            let sol = SolveRequest::model(lp, &SolverOptions::default())
                .on(kind)
                .run::<f64>()
                .unwrap();
            (sol.status, sol.objective)
        })
        .collect()
}

/// The headline equivalence contract: 64 LPs through the pool at 1, 4, and
/// 8 workers produce identical statuses and objectives within 1e-9 of the
/// one-at-a-time `SolveRequest` baseline, on every backend.
#[test]
fn batch_matches_sequential_on_all_backends_and_worker_counts() {
    let jobs = generator::batch_dense(64, 8, 10, 2000);
    for kind in backends() {
        let baseline = sequential(&jobs, &kind);
        for workers in [1usize, 4, 8] {
            let solver = BatchSolver::new(BatchOptions {
                workers,
                policy: PlacementPolicy::Fixed(kind.clone()),
                ..Default::default()
            });
            let report = solver.solve::<f64>(&jobs);
            assert!(report.all_solved(), "{kind:?} w={workers}");
            assert_eq!(report.results.len(), 64);
            for (r, (status, objective)) in report.results.iter().zip(&baseline) {
                let sol = r.outcome.solution().expect("no panics in this batch");
                assert_eq!(sol.status, *status, "{kind:?} w={workers} job {}", r.index);
                assert!(
                    (sol.objective - objective).abs() < 1e-9,
                    "{kind:?} w={workers} job {}: batch {} vs sequential {}",
                    r.index,
                    sol.objective,
                    objective
                );
            }
        }
    }
}

/// Infeasible / unbounded / degenerate jobs are *answers*: a mixed batch
/// completes with the right per-job status on every worker count.
#[test]
fn mixed_outcome_batch_reports_per_job_statuses() {
    let jobs = vec![
        fixtures::wyndor().0,
        fixtures::infeasible(),
        fixtures::unbounded(),
        generator::klee_minty(5),
        fixtures::degenerate().0,
        fixtures::two_phase().0,
    ];
    let expected = [
        Status::Optimal,
        Status::Infeasible,
        Status::Unbounded,
        Status::Optimal,
        Status::Optimal,
        Status::Optimal,
    ];
    for workers in [1usize, 3, 8] {
        let report = BatchSolver::new(BatchOptions {
            workers,
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert!(report.all_solved(), "w={workers}");
        for (r, want) in report.results.iter().zip(&expected) {
            let sol = r.outcome.solution().unwrap();
            assert_eq!(sol.status, *want, "w={workers} job {}", r.index);
        }
        // Klee–Minty optimum is known in closed form.
        let km = report.results[3].outcome.solution().unwrap();
        assert!((km.objective - generator::klee_minty_optimum(5)).abs() < 1e-6);
    }
}

/// A job whose solve panics (malformed model) is caught and reported; every
/// other job in the batch still solves, on every backend and worker count.
#[test]
fn panicking_job_does_not_poison_the_pool() {
    for kind in backends() {
        for workers in [1usize, 4] {
            let mut jobs = generator::batch_dense(12, 6, 8, 77);
            jobs.insert(5, fixtures::poisoned());
            let solver = BatchSolver::new(BatchOptions {
                workers,
                policy: PlacementPolicy::Fixed(kind.clone()),
                ..Default::default()
            });
            let report = solver.solve::<f64>(&jobs);
            assert_eq!(report.stats.jobs, 13, "{kind:?} w={workers}");
            assert_eq!(report.stats.panicked, 1);
            assert_eq!(report.stats.solved, 12);
            assert!(!report.all_solved());
            match &report.results[5].outcome {
                JobOutcome::Panicked(msg) => {
                    assert!(msg.contains("standardize"), "unexpected payload: {msg}")
                }
                other => panic!("job 5 should panic, got {other:?}"),
            }
            for (i, r) in report.results.iter().enumerate() {
                if i != 5 {
                    assert_eq!(
                        r.outcome.solution().map(|s| s.status),
                        Some(Status::Optimal),
                        "{kind:?} w={workers} job {i}"
                    );
                }
            }
        }
    }
}

/// Streams on one shared simulated GPU give the same answers as a dedicated
/// device per solve, and the shared device's aggregate counters account for
/// every retired solve.
#[test]
fn shared_gpu_streams_match_dedicated_device() {
    let jobs = generator::batch_dense(16, 8, 10, 3000);
    let baseline = sequential(&jobs, &BackendKind::GpuDense(DeviceSpec::gtx280()));

    let device = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let solver = BatchSolver::new(BatchOptions {
        workers: 4,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(Arc::clone(&device))),
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert!(report.all_solved());
    for (r, (status, objective)) in report.results.iter().zip(&baseline) {
        let sol = r.outcome.solution().unwrap();
        assert_eq!(sol.status, *status);
        assert!((sol.objective - objective).abs() < 1e-9, "job {}", r.index);
    }
    // Every solve ran as one stream of the shared card and was folded back.
    let agg = device.counters();
    assert_eq!(agg.streams_retired, 16);
    assert!(agg.kernels_launched > 0);
}

/// Satellite regression (counter single-counting): when quarantine re-places
/// jobs off a benched backend, every job is still solved and tallied exactly
/// once — per-backend job counts sum to the batch size, and the aggregate
/// fault/retry/degradation counters equal the per-job sums (no double count
/// from the re-placement path).
#[test]
fn quarantine_replacement_counts_each_job_exactly_once() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let jobs = generator::batch_dense(8, 6, 8, 4100);
    let report = BatchSolver::new(BatchOptions {
        workers: 1,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
        resilience: Some(gplex::ResilienceOptions {
            // Certain faults: the shared device is benched after 2 jobs and
            // the remaining 6 are re-placed onto the CPU.
            faults: Some(gpu_sim::FaultConfig::uniform(5, 1.0)),
            quarantine_after: 2,
            ..Default::default()
        }),
        ..Default::default()
    })
    .solve::<f64>(&jobs);
    std::panic::set_hook(prev);

    assert!(report.all_solved());
    let per_backend_jobs: usize = report.stats.per_backend.values().map(|t| t.jobs).sum();
    assert_eq!(per_backend_jobs, report.stats.jobs, "each job tallied once");
    let fault_sum: u64 = report.results.iter().map(|r| r.faults).sum();
    let retry_sum: usize = report.results.iter().map(|r| r.retries).sum();
    let degrade_sum: usize = report.results.iter().map(|r| r.degradations).sum();
    assert_eq!(report.stats.device_faults, fault_sum);
    assert_eq!(report.stats.retries, retry_sum);
    assert_eq!(report.stats.degradations, degrade_sum);
    // The re-placed (post-quarantine) jobs solved exactly once, fault-free.
    for r in &report.results[2..] {
        assert_eq!(r.faults, 0, "job {}", r.index);
        assert_eq!(r.retries, 0, "job {}", r.index);
    }
}

/// Satellite regression (utilization denominators): a job that panics
/// contributes zero *simulated* time but real host occupancy. The sim-time
/// `utilization` reports 0 for a backend that only ran doomed jobs;
/// `active_utilization` (per-backend active wall time) must still charge
/// the time where it was spent.
#[test]
fn panicked_jobs_still_occupy_their_backend_in_active_utilization() {
    let jobs = vec![fixtures::poisoned()];
    let report = BatchSolver::new(BatchOptions::default()).solve::<f64>(&jobs);
    assert_eq!(report.stats.panicked, 1);
    let tally = report.stats.per_backend["cpu-dense"];
    assert_eq!(tally.sim_time, gpu_sim::SimTime::ZERO);
    assert!(
        tally.wall_seconds > 0.0,
        "a panicked job still occupied the backend"
    );
    // Pre-fix: no per-backend active time existed, so the only occupancy
    // signal (sim-time utilization) reads 0 despite real host occupancy.
    assert_eq!(report.stats.utilization("cpu-dense"), 0.0);
    assert!((report.stats.active_utilization("cpu-dense") - 1.0).abs() < 1e-12);
}

/// Per-backend active wall time partitions the batch across backends and is
/// consistent with the per-job records. The batch splits across two
/// backends through mega grouping: the two shape groups run as lockstep
/// `batch-kernel` lanes, the shape singleton streams on `gpu-dense`.
#[test]
fn per_backend_active_time_matches_job_records() {
    let mut jobs = generator::batch_mixed_sizes(12, &[(4, 6), (16, 20)], 500);
    jobs.push(generator::dense_random(9, 11, 3));
    let report = BatchSolver::new(BatchOptions {
        workers: 2,
        policy: PlacementPolicy::Fixed(BackendKind::GpuDense(DeviceSpec::gtx280())),
        mega_batch: true,
        ..Default::default()
    })
    .solve::<f64>(&jobs);
    assert!(report.all_solved());
    assert_eq!(report.stats.per_backend["batch-kernel"].jobs, 12);
    assert_eq!(report.stats.per_backend["gpu-dense"].jobs, 1);
    for (label, tally) in &report.stats.per_backend {
        let job_sum: f64 = report
            .results
            .iter()
            .filter(|r| r.backend == *label)
            .map(|r| r.wall_seconds)
            .sum();
        assert!(
            (tally.wall_seconds - job_sum).abs() < 1e-12,
            "{label}: tally {} vs job sum {}",
            tally.wall_seconds,
            job_sum
        );
    }
    let share_sum = report.stats.active_utilization("batch-kernel")
        + report.stats.active_utilization("gpu-dense");
    assert!((share_sum - 1.0).abs() < 1e-12);
}

/// Regression: on the direct path (no resilience), a solve that returns a
/// `SolveError` is reported as `Failed`, as on the resilient path, and is
/// not relabelled `Panicked`.
#[test]
fn direct_path_reports_solve_errors_as_failed() {
    let (model, _) = fixtures::wyndor();
    let report = BatchSolver::new(BatchOptions {
        policy: PlacementPolicy::Fixed(BackendKind::GpuDense(DeviceSpec::gtx280())),
        solver: SolverOptions {
            faults: Some(FaultConfig::uniform(3, 1.0)),
            ..Default::default()
        },
        ..Default::default()
    })
    .solve::<f64>(&[model]);
    assert_eq!(report.stats.failed, 1);
    assert_eq!(report.stats.panicked, 0);
    match &report.results[0].outcome {
        JobOutcome::Failed(msg) => assert!(msg.starts_with("device failure"), "{msg}"),
        other => panic!("expected Failed, got {other:?}"),
    }
}
