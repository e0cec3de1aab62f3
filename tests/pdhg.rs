//! Differential tests for the restarted-PDHG solver family: first-order
//! and simplex must agree on the shared fixture suite on every backend,
//! f32 must track f64 to its looser tolerance, restarts must be
//! deterministic, and the resilient ladder must degrade *across* algorithm
//! families when a backend is hosed.

use gplex::pdhg::PdhgOptions;
use std::sync::Arc;

use gplex::{
    verify, AlgorithmChoice, BackendKind, ResilienceOptions, ResilientSolver, SolveRequest,
    SolverOptions, Status,
};
use gplex_suite::rel_err;
use gpu_sim::{DeviceSpec, FaultConfig, Gpu};
use lp::generator::{self, fixtures};

fn backends() -> Vec<(&'static str, BackendKind)> {
    vec![
        ("cpu-dense", BackendKind::CpuDense),
        ("cpu-sparse", BackendKind::CpuSparse),
        ("gpu-dense", BackendKind::GpuDense(DeviceSpec::gtx280())),
    ]
}

#[test]
fn pdhg_matches_simplex_on_the_shared_suite_across_backends() {
    let cases = [
        fixtures::wyndor(),
        fixtures::two_phase(),
        fixtures::diet(),
        fixtures::production(),
        fixtures::degenerate(),
        fixtures::beale_cycling(),
    ];
    for (model, expected) in &cases {
        let golden = SolveRequest::model(model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        assert_eq!(golden.status, Status::Optimal, "{}", model.name);
        for (label, kind) in backends() {
            let sol = SolveRequest::model(model, &PdhgOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", model.name));
            assert_eq!(sol.status, Status::Optimal, "{} on {label}", model.name);
            assert!(
                rel_err(sol.objective, golden.objective) < 1e-6,
                "{} on {label}: pdhg {} vs simplex {}",
                model.name,
                sol.objective,
                golden.objective
            );
            assert!(
                rel_err(sol.objective, *expected) < 1e-6,
                "{} on {label}: pdhg {} vs textbook {}",
                model.name,
                sol.objective,
                expected
            );
            assert!(sol.stats.pdhg_iterations > 0, "{} on {label}", model.name);
            assert_eq!(sol.stats.iterations, 0, "{} on {label}", model.name);
        }
    }
}

#[test]
fn random_sparse_models_agree_on_every_backend() {
    for seed in [3u64, 11] {
        let model = generator::sparse_random(48, 64, 0.1, seed);
        let golden = SolveRequest::model(&model, &SolverOptions::default())
            .run::<f64>()
            .unwrap();
        for (label, kind) in backends() {
            let sol = SolveRequest::model(&model, &PdhgOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap_or_else(|e| panic!("seed {seed} on {label}: {e}"));
            assert_eq!(sol.status, Status::Optimal, "seed {seed} on {label}");
            assert!(
                rel_err(sol.objective, golden.objective) < 1e-6,
                "seed {seed} on {label}: {} vs {}",
                sol.objective,
                golden.objective
            );
        }
    }
}

#[test]
fn an_optimal_pdhg_point_is_projected_and_passes_the_checker() {
    // The reflected Halpern iterate `λ(2T(z) − z) + (1−λ)z₀` is neither
    // projected nor the point the residual check measured. The solver must
    // return the PDHG output `T(z)` it checked, whose primal part is a
    // projection onto `x ≥ 0`. Every variable of these models is
    // nonnegative, so each returned coordinate must be ≥ 0 exactly, and
    // the point must pass the independent checker. On the transportation
    // model, the Halpern iterate of the last check misses a row by
    // 1.1e-6, about twice what `T(z)` misses it by.
    let models = [
        generator::transportation(
            &[120.0, 80.0, 95.0, 60.0],
            &[70.0, 90.0, 65.0, 80.0, 50.0],
            33,
        ),
        fixtures::diet().0,
        generator::sparse_random(48, 64, 0.1, 3),
    ];
    let mut kinds = backends();
    kinds.push((
        "gpu-shared",
        BackendKind::GpuShared(Arc::new(Gpu::new(DeviceSpec::gtx280()))),
    ));
    for model in &models {
        assert!(model.vars().iter().all(|v| v.lower == 0.0));
        for (label, kind) in &kinds {
            let sol = SolveRequest::model(model, &PdhgOptions::default())
                .on(kind)
                .run::<f64>()
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", model.name));
            assert_eq!(sol.status, Status::Optimal, "{} on {label}", model.name);
            let negative: Vec<f64> = sol.x.iter().copied().filter(|v| *v < 0.0).collect();
            assert!(
                negative.is_empty(),
                "{} on {label}: negative coordinates {negative:?}",
                model.name
            );
            verify::check_solution(model, &sol, 1e-6)
                .unwrap_or_else(|e| panic!("{} on {label}: {e}", model.name));
        }
    }
}

#[test]
fn f32_tracks_f64_to_its_looser_tolerance() {
    let (model, _) = fixtures::wyndor();
    let s64 = SolveRequest::model(&model, &PdhgOptions::default())
        .on(&BackendKind::CpuSparse)
        .run::<f64>()
        .expect("f64 solves");
    let s32 = SolveRequest::model(&model, &PdhgOptions::default())
        .on(&BackendKind::CpuSparse)
        .run::<f32>()
        .expect("f32 solves");
    assert_eq!(s64.status, Status::Optimal);
    assert_eq!(s32.status, Status::Optimal);
    assert!(
        rel_err(s32.objective, s64.objective) < 1e-3,
        "f32 {} vs f64 {}",
        s32.objective,
        s64.objective
    );
}

#[test]
fn restarts_are_deterministic_bitwise() {
    // The restart fingerprint folds every restart's iterate; two identical
    // runs must agree bit for bit, on every backend.
    let model = generator::sparse_random(24, 32, 0.2, 5);
    for (label, kind) in backends() {
        let run = || {
            SolveRequest::model(&model, &PdhgOptions::default())
                .on(&kind)
                .run::<f64>()
                .unwrap_or_else(|e| panic!("{label}: {e}"))
        };
        let a = run();
        let b = run();
        assert!(a.stats.restarts > 0, "{label}: no restart exercised");
        assert_eq!(
            a.stats.pivot_fingerprint, b.stats.pivot_fingerprint,
            "{label}: fingerprint drift"
        );
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "{label}: objective drift"
        );
    }
}

#[test]
fn duals_match_simplex_through_the_default_pipeline() {
    // Wyndor's singleton rows presolve into bounds; PDHG's recovered duals
    // must still land on the textbook shadow prices, same as simplex.
    let (model, _) = fixtures::wyndor();
    let sol = SolveRequest::model(&model, &PdhgOptions::default())
        .on(&BackendKind::CpuSparse)
        .run::<f64>()
        .expect("pdhg solves");
    let duals = sol.duals.as_ref().expect("duals survive presolve");
    let expected = [0.0, 1.5, 1.0];
    assert_eq!(duals.len(), expected.len());
    for (d, e) in duals.iter().zip(expected) {
        assert!((d - e).abs() < 1e-5, "duals {duals:?}");
    }
}

#[test]
fn hosed_gpu_degrades_across_the_pdhg_ladder_and_verifies() {
    // Every checked op faults on the GPU, so the PDHG ladder must walk down
    // to the fault-free CPU rung and still match the simplex golden result.
    let (model, _) = fixtures::wyndor();
    let golden = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(FaultConfig::uniform(9, 1.0)),
        algorithm: AlgorithmChoice::Pdhg,
        ..Default::default()
    });
    let out = solver.run::<f64>(
        5,
        SolveRequest::model(&model, &SolverOptions::default())
            .on(&BackendKind::GpuDense(DeviceSpec::gtx280())),
    );
    let sol = out.result.expect("CPU PDHG rung succeeds");
    assert_eq!(out.final_backend, "pdhg-cpu-dense");
    assert!(out.degradations > 0);
    assert!(out.faults > 0);
    assert_eq!(sol.status, Status::Optimal);
    assert!(sol.stats.pdhg_iterations > 0);
    assert!(
        rel_err(sol.objective, golden.objective) < 1e-6,
        "degraded pdhg {} vs simplex {}",
        sol.objective,
        golden.objective
    );
}

#[test]
fn a_faulted_check_block_is_retried_on_the_same_rung() {
    // A fused group rolls its fault once, when it opens, so a whole PDHG
    // check block is one fault surface: the block aborts before any of its
    // iterations run, and a fresh attempt on the same GPU rung recovers.
    let (model, _) = fixtures::wyndor();
    let golden = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    let gpu = BackendKind::GpuDense(DeviceSpec::gtx280());
    let clean = SolveRequest::model(&model, &PdhgOptions::default())
        .on(&gpu)
        .run::<f64>()
        .expect("fault-free pdhg solves");
    let solver = ResilientSolver::new(ResilienceOptions {
        faults: Some(FaultConfig::uniform(6, 0.05).only(&["pdhg_step"])),
        algorithm: AlgorithmChoice::Pdhg,
        ..Default::default()
    });
    let out = solver.run::<f64>(
        6,
        SolveRequest::model(&model, &SolverOptions::default()).on(&gpu),
    );
    assert!(out.faults > 0, "no block faulted");
    assert!(out.retries > 0, "no retry");
    assert_eq!(out.final_backend, "pdhg-gpu-dense");
    let sol = out.result.expect("a retry on the GPU rung succeeds");
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        rel_err(sol.objective, golden.objective) < 1e-6,
        "retried pdhg {} vs simplex {}",
        sol.objective,
        golden.objective
    );
    // The successful attempt starts from scratch: same schedule, same bits.
    assert_eq!(sol.stats.pdhg_iterations, clean.stats.pdhg_iterations);
    assert_eq!(sol.objective.to_bits(), clean.objective.to_bits());
}
