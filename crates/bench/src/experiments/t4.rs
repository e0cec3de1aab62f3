//! T4: correctness audit — every backend against the full-tableau oracle
//! and the independent optimality certifier, across fixtures, random dense
//! instances, and degenerate network problems.

use crate::measure::{run_standard_full, Target};
use crate::table::Table;
use crate::workload::paper_options;
use gplex::{tableau, verify, SolverOptions, Status};
use lp::{generator, LinearProgram, StandardForm};

use super::ExpReport;

struct Case {
    name: String,
    model: LinearProgram,
    expected_status: Status,
    expected_obj: Option<f64>,
}

fn cases(quick: bool) -> Vec<Case> {
    use generator::fixtures as fx;
    let mut cases = Vec::new();
    let fixture = |name: &str, (model, obj): (LinearProgram, f64)| Case {
        name: name.into(),
        model,
        expected_status: Status::Optimal,
        expected_obj: Some(obj),
    };
    cases.push(fixture("wyndor", fx::wyndor()));
    cases.push(fixture("two-phase", fx::two_phase()));
    cases.push(fixture("diet", fx::diet()));
    cases.push(fixture("production", fx::production()));
    cases.push(fixture("degenerate", fx::degenerate()));
    cases.push(fixture("beale-cycling", fx::beale_cycling()));
    cases.push(Case {
        name: "infeasible".into(),
        model: fx::infeasible(),
        expected_status: Status::Infeasible,
        expected_obj: None,
    });
    cases.push(Case {
        name: "unbounded".into(),
        model: fx::unbounded(),
        expected_status: Status::Unbounded,
        expected_obj: None,
    });
    cases.push(Case {
        name: "klee-minty-6".into(),
        model: generator::klee_minty(6),
        expected_status: Status::Optimal,
        expected_obj: Some(generator::klee_minty_optimum(6)),
    });
    cases.push(Case {
        name: "transportation".into(),
        model: generator::transportation(&[30.0, 25.0, 45.0], &[20.0, 30.0, 30.0, 20.0], 7),
        expected_status: Status::Optimal,
        expected_obj: None,
    });
    cases.push(Case {
        name: "assignment-5".into(),
        model: generator::assignment(5, 9),
        expected_status: Status::Optimal,
        expected_obj: None,
    });
    cases.push(Case {
        name: "multi-period-12".into(),
        model: generator::multi_period_production(12, 2),
        expected_status: Status::Optimal,
        expected_obj: None,
    });
    let sizes: &[usize] = if quick { &[16] } else { &[16, 32, 64] };
    for &m in sizes {
        for seed in [1, 2] {
            cases.push(Case {
                name: format!("dense-{m}x{}-s{seed}", m + m / 2),
                model: generator::dense_random(m, m + m / 2, seed),
                expected_status: Status::Optimal,
                expected_obj: None,
            });
        }
    }
    cases
}

pub fn run(quick: bool) -> ExpReport {
    let opts = paper_options();
    let oracle_opts = SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    };
    let targets = [Target::cpu(), Target::CpuSparse, Target::gpu()];
    let mut t = Table::new(vec![
        "case",
        "target",
        "status",
        "objective",
        "oracle",
        "certified",
        "verdict",
    ]);
    let mut failures = 0usize;

    for case in cases(quick) {
        let sf = StandardForm::<f64>::from_lp(&case.model).expect("standardizes");
        // Oracle: full-tableau f64.
        let oracle = tableau::solve_standard(&sf, &oracle_opts);
        let oracle_obj = sf.objective_from_std(oracle.z_std);
        for target in &targets {
            let (r, raw) = run_standard_full::<f64>(&sf, target, &opts);
            let obj = sf.objective_from_std(r.z_std);
            let status_ok = r.status == case.expected_status && r.status == oracle.status;
            let obj_ok = match (case.expected_status, case.expected_obj) {
                (Status::Optimal, Some(expected)) => {
                    (obj - expected).abs() / expected.abs().max(1.0) < 1e-6
                        && (obj - oracle_obj).abs() / oracle_obj.abs().max(1.0) < 1e-6
                }
                (Status::Optimal, None) => {
                    (obj - oracle_obj).abs() / oracle_obj.abs().max(1.0) < 1e-6
                }
                _ => true,
            };
            let certified = if r.status == Status::Optimal {
                verify::certify_optimal(&sf, &raw, 1e-6).is_ok()
            } else {
                true
            };
            let ok = status_ok && obj_ok && certified;
            if !ok {
                failures += 1;
            }
            t.push(vec![
                case.name.clone(),
                target.label(),
                r.status.tag().to_string(),
                if r.status == Status::Optimal {
                    format!("{obj:.6}")
                } else {
                    "-".into()
                },
                if oracle.status == Status::Optimal {
                    format!("{oracle_obj:.6}")
                } else {
                    oracle.status.tag().to_string()
                },
                if certified { "yes".into() } else { "NO".into() },
                if ok { "PASS".into() } else { "FAIL".into() },
            ]);
        }
    }

    let mut summary = Table::new(vec!["total-rows", "failures"]);
    summary.push(vec![t.len().to_string(), failures.to_string()]);

    ExpReport {
        id: "t4",
        guards: Vec::new(),
        tables: vec![
            (
                "T4: correctness vs oracle and certificate, all backends (f64)".into(),
                "t4_correctness".into(),
                t,
            ),
            ("T4 summary".into(), "t4_summary".into(), summary),
        ],
    }
}
