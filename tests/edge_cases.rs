//! Edge cases and failure-injection tests across the stack.

use gplex::{BackendKind, SolveRequest, SolverOptions, Status};
use gpu_sim::DeviceSpec;
use lp::{LinearProgram, Rel, Sense};

fn raw_opts() -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    }
}

#[test]
fn no_constraints_nonneg_costs_is_trivially_optimal() {
    // min x + 2y, x,y ≥ 0 — optimum 0 at the origin; no rows at all.
    let mut model = LinearProgram::new("trivial");
    model.add_var_nonneg("x", 1.0);
    model.add_var_nonneg("y", 2.0);
    for kind in [
        BackendKind::CpuDense,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ] {
        let sol = SolveRequest::model(&model, &raw_opts())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal, "{kind:?}");
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.x, vec![0.0, 0.0]);
    }
}

#[test]
fn no_constraints_negative_cost_is_unbounded() {
    let mut model = LinearProgram::new("free-fall");
    model.add_var_nonneg("x", -1.0);
    for kind in [
        BackendKind::CpuDense,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ] {
        let sol = SolveRequest::model(&model, &raw_opts())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Unbounded, "{kind:?}");
    }
    // Presolve also catches it, with a reason.
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Unbounded);
    assert!(sol.reason.is_some());
}

#[test]
fn single_variable_single_constraint() {
    let mut model = LinearProgram::new("tiny").with_sense(Sense::Max);
    let x = model.add_var_nonneg("x", 1.0);
    model.add_constraint("cap", &[(x, 2.0)], Rel::Le, 10.0);
    let sol = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.objective, 5.0);
}

#[test]
fn equality_only_system_with_unique_point() {
    // x + y = 3, x − y = 1 → (2, 1); objective irrelevant to feasibility.
    let mut model = LinearProgram::new("eq-only");
    let x = model.add_var_nonneg("x", 1.0);
    let y = model.add_var_nonneg("y", 1.0);
    model.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Rel::Eq, 3.0);
    model.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Rel::Eq, 1.0);
    for kind in [
        BackendKind::CpuDense,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ] {
        let sol = SolveRequest::model(&model, &raw_opts())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal, "{kind:?}");
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 1.0).abs() < 1e-8);
        assert!((sol.objective - 3.0).abs() < 1e-8);
    }
}

#[test]
fn redundant_equalities_leave_artificial_in_basis_harmlessly() {
    // Same row twice: rank deficiency guarantees a leftover artificial.
    let mut model = LinearProgram::new("redundant");
    let x = model.add_var_nonneg("x", 1.0);
    let y = model.add_var_nonneg("y", 2.0);
    model.add_constraint("r1", &[(x, 1.0), (y, 1.0)], Rel::Eq, 4.0);
    model.add_constraint("r2", &[(x, 2.0), (y, 2.0)], Rel::Eq, 8.0);
    for kind in [
        BackendKind::CpuDense,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ] {
        let sol = SolveRequest::model(&model, &raw_opts())
            .on(&kind)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal, "{kind:?}");
        // min x + 2y on x + y = 4 → all weight on x.
        assert!(
            (sol.objective - 4.0).abs() < 1e-8,
            "{kind:?}: {}",
            sol.objective
        );
        assert!((sol.x[0] - 4.0).abs() < 1e-8);
    }
}

#[test]
fn conflicting_equalities_are_infeasible() {
    let mut model = LinearProgram::new("conflict");
    let x = model.add_var_nonneg("x", 1.0);
    let y = model.add_var_nonneg("y", 1.0);
    model.add_constraint("r1", &[(x, 1.0), (y, 1.0)], Rel::Eq, 4.0);
    model.add_constraint("r2", &[(x, 1.0), (y, 1.0)], Rel::Eq, 5.0);
    let sol = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Infeasible);
}

#[test]
fn zero_rhs_degenerate_start_still_solves() {
    // Every rhs zero: the origin is the only feasible point of the ≤ rows
    // plus an equality pinning x = y.
    let mut model = LinearProgram::new("zero-rhs").with_sense(Sense::Max);
    let x = model.add_var_nonneg("x", 1.0);
    let y = model.add_var_nonneg("y", -1.0);
    model.add_constraint("r1", &[(x, 1.0), (y, -1.0)], Rel::Le, 0.0);
    model.add_constraint("r2", &[(x, -1.0), (y, 1.0)], Rel::Le, 0.0);
    model.add_constraint("cap", &[(x, 1.0)], Rel::Le, 7.0);
    let sol = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    // x = y everywhere feasible → objective x − y = 0.
    assert!(sol.objective.abs() < 1e-9);
}

#[test]
fn iteration_limit_in_phase_one_is_reported() {
    let mut model = LinearProgram::new("limited");
    let x = model.add_var_nonneg("x", 1.0);
    let y = model.add_var_nonneg("y", 1.0);
    model.add_constraint("r", &[(x, 1.0), (y, 2.0)], Rel::Ge, 4.0);
    let opts = SolverOptions {
        max_iterations: Some(0),
        ..raw_opts()
    };
    let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
    assert_eq!(sol.status, Status::IterationLimit);
}

#[test]
fn huge_coefficient_spread_is_tamed_by_scaling() {
    // 1e8 spread: f32 without scaling struggles; with scaling it must work.
    let mut model = LinearProgram::new("spread").with_sense(Sense::Max);
    let x = model.add_var_nonneg("x", 1e6);
    let y = model.add_var_nonneg("y", 1.0);
    model.add_constraint("r1", &[(x, 1e7), (y, 1.0)], Rel::Le, 2e7);
    model.add_constraint("r2", &[(x, 1.0), (y, 1e-2)], Rel::Le, 4.0);
    let opts = SolverOptions {
        scale: true,
        presolve: false,
        ..Default::default()
    };
    let sol64 = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
    let sol32 = SolveRequest::model(&model, &opts).run::<f32>().unwrap();
    assert_eq!(sol64.status, Status::Optimal);
    assert_eq!(sol32.status, Status::Optimal);
    assert!(
        (sol32.objective - sol64.objective).abs() / sol64.objective.abs() < 1e-3,
        "f32 {} vs f64 {}",
        sol32.objective,
        sol64.objective
    );
}

#[test]
fn duals_survive_presolve_rewrites() {
    // Presolve fixes x, turns the row into a bound on y and solves the
    // whole model away; the row's dual must still come back (regression:
    // any presolve reduction used to withhold duals entirely).
    let mut model = LinearProgram::new("fixed-var");
    let x = model.add_var("x", 2.0, 2.0, 1.0);
    let y = model.add_var_nonneg("y", 1.0);
    model.add_constraint("r", &[(x, 1.0), (y, 1.0)], Rel::Ge, 5.0);
    let with = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(with.status, Status::Optimal);
    let duals = with.duals.as_ref().expect("duals survive presolve");
    // y = 3 rides the row, so the row carries y's whole reduced cost.
    assert!((duals[0] - 1.0).abs() < 1e-9, "duals {duals:?}");
    // And they agree with the untouched-pipeline duals.
    let raw = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    assert_eq!(raw.duals.as_ref().map(|d| d.len()), Some(duals.len()));
    for (a, b) in duals.iter().zip(raw.duals.as_ref().unwrap()) {
        assert!((a - b).abs() < 1e-9, "{duals:?} vs {:?}", raw.duals);
    }
}

#[test]
fn wyndor_duals_recover_through_presolve() {
    // Wyndor's two singleton rows (x₁ ≤ 4, 2x₂ ≤ 12) presolve into bounds;
    // the default pipeline must still report the textbook shadow prices
    // [0, 1.5, 1] — the slack first row earns 0, the binding second row
    // earns 3/2 even though the reduced model never saw it.
    let (model, _) = lp::generator::fixtures::wyndor();
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    let duals = sol.duals.as_ref().expect("duals survive presolve");
    let expected = [0.0, 1.5, 1.0];
    assert_eq!(duals.len(), expected.len());
    for (d, e) in duals.iter().zip(expected) {
        assert!((d - e).abs() < 1e-9, "duals {duals:?}");
    }
    // Same multipliers as the no-presolve pipeline.
    let raw = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    for (a, b) in duals.iter().zip(raw.duals.as_ref().unwrap()) {
        assert!((a - b).abs() < 1e-9, "{duals:?} vs {:?}", raw.duals);
    }
}

#[test]
fn badly_scaled_duals_recover_through_presolve_and_scaling() {
    // min 2a + 3b over a+2b ≥ 3 (×1e6), a ≤ 10, a+b = 4 (×1e-3):
    // optimum a = 4, b = 0, and only the equality row works — its written
    // dual is 2/1e-3 = 2000. The singleton row a ≤ 10 presolves away slack
    // (dual 0), and geometric-mean scaling must not leak into any of them.
    let mut model = LinearProgram::new("scaled-mixed");
    let a = model.add_var_nonneg("a", 2.0);
    let b = model.add_var_nonneg("b", 3.0);
    model.add_constraint("r1", &[(a, 1.0e6), (b, 2.0e6)], Rel::Ge, 3.0e6);
    model.add_constraint("r2", &[(a, 1.0)], Rel::Le, 10.0);
    model.add_constraint("r3", &[(a, 1.0e-3), (b, 1.0e-3)], Rel::Eq, 4.0e-3);
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 8.0).abs() < 1e-8);
    let duals = sol.duals.as_ref().expect("duals survive presolve");
    let expected = [0.0, 0.0, 2000.0];
    assert_eq!(duals.len(), expected.len());
    for (d, e) in duals.iter().zip(expected) {
        assert!((d - e).abs() < 1e-6 * (1.0 + e.abs()), "duals {duals:?}");
    }
}

#[test]
fn gpu_and_cpu_agree_on_a_wide_problem() {
    // n ≫ m — the revised method's favorite shape.
    let model = lp::generator::dense_random(8, 200, 77);
    let c = SolveRequest::model(&model, &raw_opts())
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
    let g = SolveRequest::model(&model, &raw_opts())
        .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
        .run::<f64>()
        .unwrap();
    assert_eq!(c.status, Status::Optimal);
    assert_eq!(g.status, Status::Optimal);
    assert!((c.objective - g.objective).abs() < 1e-8);
}

#[test]
fn tall_problem_more_rows_than_columns() {
    let model = lp::generator::dense_random(60, 12, 5);
    let sol = SolveRequest::model(&model, &raw_opts())
        .run::<f64>()
        .unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(model.check_feasible(&sol.x, 1e-7).is_none());
}
