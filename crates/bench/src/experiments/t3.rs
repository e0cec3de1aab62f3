//! T3: numerical accuracy — f32 vs f64, with and without periodic
//! refactorization, against an f64 oracle. The paper-era GPUs were
//! single-precision machines; this is the experiment that says what that
//! cost.

use crate::measure::{run_model, Target};
use crate::table::Table;
use crate::workload::paper_options;
use gplex::{SolverOptions, Status};
use lp::generator;

use super::ExpReport;

fn rel_err(x: f64, reference: f64) -> f64 {
    (x - reference).abs() / reference.abs().max(1.0)
}

pub fn run(quick: bool) -> ExpReport {
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    let mut t = Table::new(vec![
        "m=n",
        "f64-obj",
        "f32-refac-err",
        "f32-norefac-err",
        "f32-refac-status",
        "f32-norefac-status",
        "refactorizations",
    ]);
    for &m in sizes {
        let model = generator::dense_random(m, m, 1);
        let oracle = run_model::<f64>(&model, &Target::cpu(), &paper_options());
        assert_eq!(oracle.status, Status::Optimal);

        // The paper configuration never reinverts; the ablation adds a
        // 64-iteration reinversion period on top of it.
        let with_opts = SolverOptions {
            refactor_period: 64,
            ..paper_options()
        };
        let with = run_model::<f32>(&model, &Target::gpu(), &with_opts);
        let without = run_model::<f32>(&model, &Target::gpu(), &paper_options());

        t.push(vec![
            m.to_string(),
            format!("{:.6}", oracle.objective),
            format!("{:.2e}", rel_err(with.objective, oracle.objective)),
            format!("{:.2e}", rel_err(without.objective, oracle.objective)),
            with.status.tag().to_string(),
            without.status.tag().to_string(),
            format!("{}", (with.iterations / 64)),
        ]);
    }
    ExpReport {
        id: "t3",
        guards: Vec::new(),
        tables: vec![(
            "T3: f32 objective error vs f64 oracle, with/without basis refactorization".into(),
            "t3_precision".into(),
            t,
        )],
    }
}
