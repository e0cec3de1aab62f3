//! F2 (per-step time breakdown) and F3 (launch/transfer overhead fraction)
//! — why small LPs lose on the GPU and where large-LP time goes.

use crate::measure::{run_model, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::{breakdown_grid, paper_options_for};
use gplex::Step;
use lp::generator;

use super::ExpReport;

/// F2: fraction of simulated time per simplex step, CPU and GPU.
pub fn run_f2(quick: bool) -> ExpReport {
    let mut t = Table::new(vec![
        "m=n",
        "target",
        "total",
        "pricing%",
        "selection%",
        "ftran%",
        "ratio%",
        "update%",
        "refactor%",
        "other%",
    ]);
    for m in breakdown_grid(quick) {
        let opts = paper_options_for(m);
        let model = generator::dense_random(m, m, 1);
        for target in [Target::cpu(), Target::gpu()] {
            let r = run_model::<f32>(&model, &target, &opts);
            let total: f64 = r.step_seconds.iter().sum();
            let pct = |s: Step| {
                let idx = Step::ALL.iter().position(|x| *x == s).expect("step");
                format!("{:.1}", 100.0 * r.step_seconds[idx] / total)
            };
            t.push(vec![
                m.to_string(),
                target.label(),
                fmt_secs(total),
                pct(Step::Pricing),
                pct(Step::Selection),
                pct(Step::Ftran),
                pct(Step::RatioTest),
                pct(Step::Update),
                pct(Step::Refactor),
                pct(Step::Other),
            ]);
        }
    }
    ExpReport {
        id: "f2",
        guards: Vec::new(),
        tables: vec![(
            "F2: per-step share of solve time (dense random, f32)".into(),
            "f2_step_breakdown".into(),
            t,
        )],
    }
}

/// F3: where the GPU's simulated time goes by hardware category, plus raw
/// launch/transfer counts — the fixed-overhead story behind the crossover.
pub fn run_f3(quick: bool) -> ExpReport {
    let mut t = Table::new(vec![
        "m=n",
        "iters",
        "kernels",
        "kernels/iter",
        "h2d",
        "d2h",
        "kernel%",
        "launch-ovh%",
        "transfer%",
    ]);
    let mut grid = vec![32, 64];
    grid.extend(breakdown_grid(quick));
    for m in grid {
        let opts = paper_options_for(m);
        let model = generator::dense_random(m, m, 1);
        let r = run_model::<f32>(&model, &Target::gpu(), &opts);
        let g = r.gpu.as_ref().expect("gpu run has a report");
        t.push(vec![
            m.to_string(),
            r.iterations.to_string(),
            g.launches.to_string(),
            format!("{:.1}", g.launches as f64 / r.iterations.max(1) as f64),
            g.h2d.0.to_string(),
            g.d2h.0.to_string(),
            format!("{:.1}", 100.0 * g.frac_kernel),
            format!("{:.1}", 100.0 * g.frac_launch),
            format!("{:.1}", 100.0 * g.frac_transfer),
        ]);
    }
    ExpReport {
        id: "f3",
        guards: Vec::new(),
        tables: vec![(
            "F3: GPU time by hardware category and per-iteration launch/transfer counts".into(),
            "f3_overheads".into(),
            t,
        )],
    }
}
