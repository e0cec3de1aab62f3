//! F4: coalescing/layout ablation — the same solver with (a) the paper's
//! col-major + two-pass transposed gemv, (b) col-major + naive (uncoalesced
//! pricing), (c) row-major + naive (uncoalesced everything else).

use crate::measure::{run_model, GpuConfig, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::{coalesce_grid, paper_options_for};
use gpu_sim::DeviceSpec;
use linalg::gpu::{GemvTStrategy, Layout};
use lp::generator;

use super::ExpReport;

fn variants() -> Vec<(&'static str, GpuConfig)> {
    let spec = DeviceSpec::gtx280();
    vec![
        (
            "col-major + two-pass (paper)",
            GpuConfig {
                spec: spec.clone(),
                layout: Layout::ColMajor,
                strategy: GemvTStrategy::TwoPass,
            },
        ),
        (
            "col-major + naive gemv_t",
            GpuConfig {
                spec: spec.clone(),
                layout: Layout::ColMajor,
                strategy: GemvTStrategy::Naive,
            },
        ),
        (
            "row-major + naive gemv_t",
            GpuConfig {
                spec,
                layout: Layout::RowMajor,
                strategy: GemvTStrategy::Naive,
            },
        ),
    ]
}

pub fn run(quick: bool) -> ExpReport {
    let mut t = Table::new(vec![
        "m=n",
        "variant",
        "iters",
        "gpu-time",
        "time/iter",
        "vs-paper",
    ]);
    for m in coalesce_grid(quick) {
        let opts = paper_options_for(m);
        let model = generator::dense_random(m, m, 1);
        let mut baseline_per_iter = None;
        for (name, cfg) in variants() {
            let r = run_model::<f32>(&model, &Target::Gpu(cfg), &opts);
            let per_iter = r.sim_seconds / r.iterations.max(1) as f64;
            let base = *baseline_per_iter.get_or_insert(per_iter);
            t.push(vec![
                m.to_string(),
                name.to_string(),
                r.iterations.to_string(),
                fmt_secs(r.sim_seconds),
                fmt_secs(per_iter),
                format!("{:.2}x", per_iter / base),
            ]);
        }
    }
    ExpReport {
        id: "f4",
        guards: Vec::new(),
        tables: vec![(
            "F4: memory-layout / coalescing ablation (simulated GTX 280, f32)".into(),
            "f4_coalescing".into(),
            t,
        )],
    }
}
