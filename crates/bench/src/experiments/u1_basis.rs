//! U1 (extension): the arm-ablation matrix — every basis representation
//! and every degeneracy policy the solver offers, run on a grid of cells,
//! and each required to win at least one of them.
//!
//! Three tables:
//!
//! * **U1a — representation matrix.** Models × targets (gpu-dense f64 and
//!   f32, cpu-dense, cpu-sparse) × [`REPS`]. Full solves through the
//!   pipeline with default options; the metric is modeled solve time
//!   (`SolveStats::total_time`). Cells whose run ends short of `Optimal`
//!   keep their row and status, but neither win nor enter the objective
//!   comparison.
//! * **U1b — eta chain vs refactor period.** SparseLU keeps the pivots
//!   since the last factorization as an eta chain: its length tracks the
//!   reinversion cadence, and the device eta pool recycles buffers across
//!   refactorizations instead of re-allocating (`pool_recycles` climbs
//!   while `pool_allocs` stays at the steady-state chain length).
//! * **U1c — degeneracy matrix.** The stall and cycling suite on
//!   cpu-dense × [`POLICIES`], with a 2-iteration stall threshold so every
//!   policy engages.
//!
//! Guards: every arm of both axes is strictly fastest in at least one
//! cell, so an arm that no cell favours cannot come back unnoticed; all
//! `Optimal` runs of a model agree on its objective; the SparseLU chain
//! stays within the period and the pool recycles; and on the three
//! classic degenerate fixtures perturbation needs no more iterations than
//! the Bland fallback.

use gplex::backends::GpuDenseBackend;
use gplex::{
    BackendKind, BasisRepresentation, DegeneracyPolicy, NoopRecorder, RevisedSimplex, SolveRequest,
    SolverOptions, Start, Status,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator::{self, fixtures};
use lp::{LinearProgram, StandardForm};

use crate::measure::{run_standard_full, Target};
use crate::table::Table;

use super::{ExpReport, Guard};

/// The basis representations U1a compares.
const REPS: [(&str, BasisRepresentation); 2] = [
    ("explicit", BasisRepresentation::ExplicitInverse),
    ("sparse-lu", BasisRepresentation::SparseLU),
];

/// The degeneracy policies U1c compares.
const POLICIES: [(&str, DegeneracyPolicy); 2] = [
    ("bland", DegeneracyPolicy::BlandFallback),
    ("perturb", DegeneracyPolicy::Perturb { scale: 1e-7 }),
];

/// Fixtures on which perturbation must need no more iterations than Bland.
const PERTURB_NO_WORSE: [&str; 3] = ["degenerate", "beale-cycling", "klee-minty"];

/// Relative objective agreement required between `Optimal` runs.
const OBJ_TOL: f64 = 1e-6;

/// One arm's full solve in one cell of a matrix.
struct ArmRun {
    /// Model (U1a) or fixture (U1c) the cell solves.
    model: String,
    /// Backend and precision.
    target: &'static str,
    arm: &'static str,
    status: Status,
    iters: usize,
    /// Modeled solve time in ms.
    ms: f64,
    objective: f64,
}

/// The runs of one cell: consecutive rows with the same model and target.
fn cells(runs: &[ArmRun]) -> impl Iterator<Item = &[ArmRun]> {
    runs.chunk_by(|a, b| a.model == b.model && a.target == b.target)
}

/// The arm strictly fastest among a cell's `Optimal` runs; `None` on a tie
/// or when no run is optimal.
fn cell_winner(cell: &[ArmRun]) -> Option<&'static str> {
    let mut optimal: Vec<&ArmRun> = cell
        .iter()
        .filter(|r| r.status == Status::Optimal)
        .collect();
    optimal.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    match optimal.as_slice() {
        [best] => Some(best.arm),
        [best, next, ..] if best.ms < next.ms => Some(best.arm),
        _ => None,
    }
}

fn rel_gap(z: f64, reference: f64) -> f64 {
    (z - reference).abs() / reference.abs().max(1.0)
}

/// One `<arm> wins a cell` guard per arm, naming the cells it wins.
fn win_guards(axis: &str, arms: &[&'static str], runs: &[ArmRun]) -> Vec<Guard> {
    let won: Vec<(&'static str, String)> = cells(runs)
        .filter_map(|c| cell_winner(c).map(|a| (a, format!("{} {}", c[0].model, c[0].target))))
        .collect();
    arms.iter()
        .map(|arm| {
            let mine: Vec<&str> = won
                .iter()
                .filter(|(a, _)| a == arm)
                .map(|(_, cell)| cell.as_str())
                .collect();
            Guard::new(
                format!("{axis} {arm}: strictly fastest in >= 1 cell"),
                !mine.is_empty(),
                format!("{} cells: {}", mine.len(), mine.join("; ")),
            )
        })
        .collect()
}

/// One row per arm run, the winner of each cell marked.
fn matrix_table(runs: &[ArmRun], arm_header: &str) -> Table {
    let mut t = Table::new(vec![
        "model",
        "target",
        arm_header,
        "status",
        "iters",
        "modeled-ms",
        "objective",
        "fastest",
    ]);
    for cell in cells(runs) {
        let winner = cell_winner(cell);
        for r in cell {
            t.push(vec![
                r.model.clone(),
                r.target.to_string(),
                r.arm.to_string(),
                r.status.tag().to_string(),
                r.iters.to_string(),
                format!("{:.3}", r.ms),
                format!("{:.9e}", r.objective),
                if winner == Some(r.arm) { "yes" } else { "" }.to_string(),
            ]);
        }
    }
    t
}

/// U1a targets: label, backend, and whether the solve runs in f32.
fn targets() -> [(&'static str, BackendKind, bool); 4] {
    let gpu = BackendKind::GpuDense(DeviceSpec::gtx280());
    [
        ("gpu-dense f64", gpu.clone(), false),
        ("gpu-dense f32", gpu, true),
        ("cpu-dense", BackendKind::CpuDense, false),
        ("cpu-sparse", BackendKind::CpuSparse, false),
    ]
}

fn rep_models(quick: bool) -> Vec<(String, LinearProgram)> {
    let mut models = vec![
        (
            "dense_random(64,64,7)".into(),
            generator::dense_random(64, 64, 7),
        ),
        ("max_flow(60,4,5)".into(), generator::max_flow(60, 4, 5)),
        (
            "sparse_random(512,512,0.01,7)".into(),
            generator::sparse_random(512, 512, 0.01, 7),
        ),
    ];
    if !quick {
        models.extend([
            (
                "dense_random(256,256,7)".into(),
                generator::dense_random(256, 256, 7),
            ),
            (
                "dense_random(512,512,7)".into(),
                generator::dense_random(512, 512, 7),
            ),
            (
                "sparse_random(1024,1024,0.005,7)".into(),
                generator::sparse_random(1024, 1024, 0.005, 7),
            ),
            ("assignment(20,2)".into(), generator::assignment(20, 2)),
            (
                "multi_period_production(24,5)".into(),
                generator::multi_period_production(24, 5),
            ),
        ]);
    }
    models
}

/// U1a: every representation on every (model, target) cell.
fn representation_matrix(quick: bool) -> Vec<ArmRun> {
    let mut runs = Vec::new();
    for (name, model) in rep_models(quick) {
        for (target, kind, f32_run) in targets() {
            for (arm, rep) in REPS {
                let opts = SolverOptions {
                    basis_representation: rep,
                    ..Default::default()
                };
                let req = SolveRequest::model(&model, &opts).on(&kind);
                let sol = if f32_run {
                    req.run::<f32>()
                } else {
                    req.run::<f64>()
                }
                .expect("matrix solve runs");
                runs.push(ArmRun {
                    model: name.clone(),
                    target,
                    arm,
                    status: sol.status,
                    iters: sol.stats.iterations,
                    ms: sol.stats.total_time().as_secs_f64() * 1e3,
                    objective: sol.objective,
                });
            }
        }
    }
    runs
}

/// Fixtures of the degeneracy matrix, with their optimum when known.
fn degenerate_suite(quick: bool) -> Vec<(&'static str, LinearProgram, Option<f64>)> {
    let km_n = if quick { 5 } else { 7 };
    let (dg, z_dg) = fixtures::degenerate();
    let (bl, z_bl) = fixtures::beale_cycling();
    let mut suite = vec![
        ("degenerate", dg, Some(z_dg)),
        ("beale-cycling", bl, Some(z_bl)),
        (
            "klee-minty",
            generator::klee_minty(km_n),
            Some(generator::klee_minty_optimum(km_n)),
        ),
        ("assignment(12,1)", generator::assignment(12, 1), None),
        ("max_flow(60,4,5)", generator::max_flow(60, 4, 5), None),
    ];
    if !quick {
        suite.extend([
            ("assignment(20,2)", generator::assignment(20, 2), None),
            (
                "transportation(6x7,3)",
                generator::transportation(
                    &[20.0, 30.0, 25.0, 15.0, 35.0, 25.0],
                    &[10.0, 25.0, 20.0, 30.0, 15.0, 30.0, 20.0],
                    3,
                ),
                None,
            ),
            (
                "multi_period_production(24,5)",
                generator::multi_period_production(24, 5),
                None,
            ),
        ]);
    }
    suite
}

/// U1c: every policy on every fixture, cpu-dense, no presolve or scaling.
/// Returns the runs and each fixture's known optimum.
fn degeneracy_matrix(quick: bool) -> (Vec<ArmRun>, Vec<(&'static str, Option<f64>)>) {
    let mut runs = Vec::new();
    let mut optima = Vec::new();
    for (name, model, optimum) in degenerate_suite(quick) {
        let sf = StandardForm::<f64>::from_lp(&model).expect("fixture standardizes");
        for (arm, policy) in POLICIES {
            let opts = SolverOptions {
                presolve: false,
                scale: false,
                stall_threshold: 2,
                degeneracy: policy,
                ..Default::default()
            };
            let (m, _) = run_standard_full::<f64>(&sf, &Target::cpu(), &opts);
            runs.push(ArmRun {
                model: name.to_string(),
                target: "cpu-dense",
                arm,
                status: m.status,
                iters: m.iterations,
                ms: m.sim_seconds * 1e3,
                objective: m.objective,
            });
        }
        optima.push((name, optimum));
    }
    (runs, optima)
}

/// One SparseLU solve on the simulated GPU, reduced to the eta and pool
/// counters U1b reports.
struct ChainRow {
    refactor_period: usize,
    iters: usize,
    eta_pivots: usize,
    max_eta_chain: usize,
    us_per_iter: f64,
    pool_allocs: u64,
    pool_recycles: u64,
}

fn chain_solve(model: &LinearProgram, refactor_period: usize) -> ChainRow {
    let sf = StandardForm::<f64>::from_lp(model).expect("bench model standardizes");
    let n_active = sf.num_cols() - sf.num_artificials;
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        basis_representation: BasisRepresentation::SparseLU,
        refactor_period,
        max_iterations: Some(64),
        ..Default::default()
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let mut be = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
    let res = RevisedSimplex::new(
        &mut be,
        &sf,
        &opts,
        Start::Cold,
        None,
        None::<&mut NoopRecorder>,
    )
    .solve();
    let c = gpu.counters();
    ChainRow {
        refactor_period,
        iters: res.stats.iterations,
        eta_pivots: res.stats.eta_pivots,
        max_eta_chain: res.stats.max_eta_chain,
        us_per_iter: res.stats.time_per_iteration().as_nanos() / 1e3,
        pool_allocs: c.pool_allocs,
        pool_recycles: c.pool_recycles,
    }
}

/// Every arm wins a cell on both axes; U1a's `Optimal` runs agree per
/// model; U1b's chains respect the period and the pool recycles; U1c's
/// fixtures solve to their optimum under every policy, and perturbation
/// needs no more iterations than Bland on the classic three.
fn guards(
    reps: &[ArmRun],
    chain: &[ChainRow],
    degen: &[ArmRun],
    optima: &[(&str, Option<f64>)],
) -> Vec<Guard> {
    let mut out = win_guards("rep", &REPS.map(|(a, _)| a), reps);
    let mut models: Vec<&str> = reps.iter().map(|r| r.model.as_str()).collect();
    models.dedup();
    for model in models {
        let runs: Vec<&ArmRun> = reps.iter().filter(|r| r.model == model).collect();
        let stragglers: Vec<String> = runs
            .iter()
            .filter(|r| r.status != Status::Optimal)
            .map(|r| format!("{} {} {:?}", r.target, r.arm, r.status))
            .collect();
        out.push(Guard::new(
            format!("{model}: every cell ends Optimal"),
            stragglers.is_empty(),
            if stragglers.is_empty() {
                format!("{} runs optimal", runs.len())
            } else {
                stragglers.join(", ")
            },
        ));
        let optimal: Vec<&ArmRun> = runs
            .into_iter()
            .filter(|r| r.status == Status::Optimal)
            .collect();
        let gap = optimal
            .iter()
            .map(|r| rel_gap(r.objective, optimal[0].objective))
            .fold(0.0, f64::max);
        out.push(Guard::new(
            format!("{model}: optimal objectives agree to 1e-6"),
            !optimal.is_empty() && gap <= OBJ_TOL,
            format!("{} optimal runs, max rel gap {gap:.2e}", optimal.len()),
        ));
    }
    for r in chain {
        out.push(Guard::new(
            format!("period={}: eta chain <= refactor period", r.refactor_period),
            r.max_eta_chain <= r.refactor_period,
            format!("chain {}", r.max_eta_chain),
        ));
    }
    let recycles: u64 = chain.iter().map(|r| r.pool_recycles).sum();
    out.push(Guard::new(
        "eta pool recycles > 0",
        recycles > 0,
        format!("{recycles} recycles"),
    ));
    out.extend(win_guards("policy", &POLICIES.map(|(a, _)| a), degen));
    for (cell, &(fixture, optimum)) in cells(degen).zip(optima) {
        let all_optimal = cell.iter().all(|r| r.status == Status::Optimal);
        let reference = optimum.unwrap_or(cell[0].objective);
        let objective_ok = cell
            .iter()
            .all(|r| rel_gap(r.objective, reference) < OBJ_TOL);
        out.push(Guard::new(
            format!("{fixture}: optimal and objective ok"),
            all_optimal && objective_ok,
            format!("optimal {all_optimal}, objective ok {objective_ok}"),
        ));
        if PERTURB_NO_WORSE.contains(&fixture) {
            let iters = |arm| cell.iter().find(|r| r.arm == arm).map_or(0, |r| r.iters);
            let (bland_iters, perturb_iters) = (iters("bland"), iters("perturb"));
            out.push(Guard::new(
                format!("{fixture}: perturb iters <= bland iters"),
                perturb_iters <= bland_iters,
                format!("perturb {perturb_iters} vs bland {bland_iters}"),
            ));
        }
    }
    out
}

pub fn run(quick: bool) -> ExpReport {
    let reps = representation_matrix(quick);

    // U1b: SparseLU's eta chain and the device pool vs refactor period, at
    // a fixed size big enough for several chains per solve.
    let chain_m = if quick { 96 } else { 192 };
    let chain_model = generator::dense_random(chain_m, chain_m / 2, 2);
    let chain: Vec<ChainRow> = [4usize, 8, 16, 32]
        .iter()
        .map(|&rp| chain_solve(&chain_model, rp))
        .collect();
    let mut tb = Table::new(vec![
        "refactor-period",
        "iters",
        "eta-pivots",
        "max-eta",
        "us/iter",
        "pool-allocs",
        "pool-recycles",
    ]);
    for r in &chain {
        tb.push(vec![
            r.refactor_period.to_string(),
            r.iters.to_string(),
            r.eta_pivots.to_string(),
            r.max_eta_chain.to_string(),
            format!("{:.2}", r.us_per_iter),
            r.pool_allocs.to_string(),
            r.pool_recycles.to_string(),
        ]);
    }

    let (degen, optima) = degeneracy_matrix(quick);

    ExpReport {
        id: "u1",
        guards: guards(&reps, &chain, &degen, &optima),
        tables: vec![
            (
                "U1a: representation matrix — modeled solve time per cell".into(),
                "u1_rep_matrix".into(),
                matrix_table(&reps, "rep"),
            ),
            (
                format!(
                    "U1b: SparseLU eta chain and device pool vs refactor period (GPU, m={chain_m})"
                ),
                "u1_eta_chain".into(),
                tb,
            ),
            (
                "U1c: degeneracy matrix — policies on the stall suite (cpu-dense)".into(),
                "u1_degeneracy".into(),
                matrix_table(&degen, "policy"),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    fn run(model: &str, arm: &'static str, iters: usize, ms: f64, objective: f64) -> ArmRun {
        ArmRun {
            model: model.into(),
            target: "cpu-dense",
            arm,
            status: Status::Optimal,
            iters,
            ms,
            objective,
        }
    }

    /// Two cells, each arm winning one.
    fn reps(lu_ms: f64, lu_objective: f64) -> Vec<ArmRun> {
        vec![
            run("a", "explicit", 10, 1.0, 5.0),
            run("a", "sparse-lu", 10, 2.0, 5.0),
            run("b", "explicit", 10, 2.0, 7.0),
            run("b", "sparse-lu", 10, lu_ms, lu_objective),
        ]
    }

    fn chain(max_eta_chain: usize, pool_recycles: u64) -> Vec<ChainRow> {
        vec![ChainRow {
            refactor_period: 4,
            iters: 64,
            eta_pivots: 64,
            max_eta_chain,
            us_per_iter: 1.0,
            pool_allocs: 4,
            pool_recycles,
        }]
    }

    /// Bland wins `beale-cycling`, perturbation wins `assignment`.
    fn degen(perturb_iters: usize, perturb_objective: f64) -> Vec<ArmRun> {
        vec![
            run("beale-cycling", "bland", 6, 1.0, -0.05),
            run(
                "beale-cycling",
                "perturb",
                perturb_iters,
                2.0,
                perturb_objective,
            ),
            run("assignment", "bland", 9, 2.0, 3.0),
            run("assignment", "perturb", 5, 1.0, 3.0),
        ]
    }

    fn optima() -> Vec<(&'static str, Option<f64>)> {
        vec![("beale-cycling", Some(-0.05)), ("assignment", None)]
    }

    fn failed(reps: &[ArmRun], chain: &[ChainRow], degen: &[ArmRun]) -> Vec<String> {
        failed_names(guards(reps, chain, degen, &optima()))
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        assert!(failed(&reps(1.0, 7.0), &chain(4, 3), &degen(6, -0.05)).is_empty());

        assert_eq!(
            failed(&reps(2.0, 7.0), &chain(4, 3), &degen(6, -0.05)),
            ["rep sparse-lu: strictly fastest in >= 1 cell"]
        );
        assert_eq!(
            failed(&reps(1.0, 7.1), &chain(4, 3), &degen(6, -0.05)),
            ["b: optimal objectives agree to 1e-6"]
        );
        let mut capped = reps(1.0, 7.0);
        capped[1].status = Status::IterationLimit;
        assert_eq!(
            failed(&capped, &chain(4, 3), &degen(6, -0.05)),
            ["a: every cell ends Optimal"]
        );
        assert_eq!(
            failed(&reps(1.0, 7.0), &chain(5, 3), &degen(6, -0.05)),
            ["period=4: eta chain <= refactor period"]
        );
        assert_eq!(
            failed(&reps(1.0, 7.0), &chain(4, 0), &degen(6, -0.05)),
            ["eta pool recycles > 0"]
        );
        assert_eq!(
            failed(&reps(1.0, 7.0), &chain(4, 3), &degen(6, -0.04)),
            ["beale-cycling: optimal and objective ok"]
        );
        assert_eq!(
            failed(&reps(1.0, 7.0), &chain(4, 3), &degen(7, -0.05)),
            ["beale-cycling: perturb iters <= bland iters"]
        );
    }

    #[test]
    fn a_tie_or_a_non_optimal_run_wins_nothing() {
        let mut tie = reps(2.0, 7.0);
        assert_eq!(cell_winner(&tie[2..]), None);
        tie[2].status = Status::IterationLimit;
        assert_eq!(cell_winner(&tie[2..]), Some("sparse-lu"));
    }
}
