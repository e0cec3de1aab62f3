//! T5 (ablation): device sensitivity — the same solve on three simulated
//! generations (GTX 280 / GTX 570 / GTX TITAN) against the fixed CPU
//! baseline. Encodes the counter-intuitive observation from the follow-on
//! literature that a newer card is not automatically faster on small,
//! latency-bound simplex kernels.

use crate::measure::{run_model, GpuConfig, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::paper_options_for;
use gpu_sim::DeviceSpec;
use linalg::gpu::{GemvTStrategy, Layout};
use lp::generator;

use super::ExpReport;

pub fn run(quick: bool) -> ExpReport {
    let sizes: &[usize] = if quick { &[128] } else { &[256, 512, 1024] };
    let devices = [
        DeviceSpec::gtx280(),
        DeviceSpec::gtx570(),
        DeviceSpec::gtx_titan(),
    ];
    let mut t = Table::new(vec!["m=n", "device", "iters", "gpu-time", "speedup-vs-cpu"]);
    for &m in sizes {
        let opts = paper_options_for(m);
        let model = generator::dense_random(m, m, 1);
        let cpu = run_model::<f32>(&model, &Target::cpu(), &opts);
        for spec in &devices {
            let cfg = GpuConfig {
                spec: spec.clone(),
                layout: Layout::ColMajor,
                strategy: GemvTStrategy::TwoPass,
            };
            let r = run_model::<f32>(&model, &Target::Gpu(cfg), &opts);
            t.push(vec![
                m.to_string(),
                spec.name.to_string(),
                r.iterations.to_string(),
                fmt_secs(r.sim_seconds),
                format!("{:.2}", cpu.sim_seconds / r.sim_seconds),
            ]);
        }
    }
    ExpReport {
        id: "t5",
        guards: Vec::new(),
        tables: vec![(
            "T5 (ablation): device-generation sensitivity (f32, vs Core2-era CPU)".into(),
            "t5_devices".into(),
            t,
        )],
    }
}
