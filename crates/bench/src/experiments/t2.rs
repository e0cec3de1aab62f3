//! T2: pivot-rule ablation — iteration counts and time under Dantzig,
//! Bland and the Hybrid fallback, on dense random instances and on the
//! Klee–Minty cube where Dantzig is provably exponential.

use crate::measure::{run_model, Target};
use crate::table::{fmt_secs, Table};
use gplex::{PivotRule, SolverOptions, Status};
use lp::generator;

use super::ExpReport;

fn opts_with(rule: PivotRule) -> SolverOptions {
    SolverOptions {
        pivot_rule: rule,
        presolve: false,
        scale: false,
        // Klee–Minty under Bland needs head-room beyond the default cap.
        max_iterations: Some(200_000),
        ..Default::default()
    }
}

pub fn run(quick: bool) -> ExpReport {
    let rules = [
        ("dantzig", PivotRule::Dantzig),
        ("bland", PivotRule::Bland),
        ("hybrid", PivotRule::Hybrid),
        ("partial-64", PivotRule::PartialDantzig { window: 64 }),
    ];

    // Dense random instances.
    let sizes: &[usize] = if quick { &[32, 64] } else { &[64, 128, 256] };
    let mut dense = Table::new(vec!["m=n", "rule", "iters", "cpu-time", "status"]);
    for &m in sizes {
        let model = generator::dense_random(m, m, 1);
        for (name, rule) in rules {
            let r = run_model::<f64>(&model, &Target::cpu(), &opts_with(rule));
            dense.push(vec![
                m.to_string(),
                name.to_string(),
                r.iterations.to_string(),
                fmt_secs(r.sim_seconds),
                r.status.tag().to_string(),
            ]);
        }
    }

    // Klee–Minty: Dantzig must show 2^n − 1 growth.
    let km_dims: &[usize] = if quick { &[3, 5] } else { &[3, 4, 5, 6, 7, 8] };
    let mut km = Table::new(vec!["n", "rule", "iters", "expected-2^n-1", "optimum-ok"]);
    for &n in km_dims {
        let model = generator::klee_minty(n);
        let expected = (1usize << n) - 1;
        for (name, rule) in rules {
            let r = run_model::<f64>(&model, &Target::cpu(), &opts_with(rule));
            let ok = r.status == Status::Optimal
                && (r.objective - generator::klee_minty_optimum(n)).abs()
                    / generator::klee_minty_optimum(n)
                    < 1e-6;
            km.push(vec![
                n.to_string(),
                name.to_string(),
                r.iterations.to_string(),
                if rule == PivotRule::Dantzig {
                    expected.to_string()
                } else {
                    "-".into()
                },
                if ok {
                    "yes".into()
                } else {
                    format!("NO ({:?})", r.status)
                },
            ]);
        }
    }

    ExpReport {
        id: "t2",
        guards: Vec::new(),
        tables: vec![
            (
                "T2a: pivot-rule iteration counts on dense random LPs (f64, CPU)".into(),
                "t2_rules_dense".into(),
                dense,
            ),
            (
                "T2b: pivot rules on the Klee-Minty cube".into(),
                "t2_rules_klee_minty".into(),
                km,
            ),
        ],
    }
}
