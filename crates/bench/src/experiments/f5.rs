//! F5 (extension): sparse instances — dense GPU backend vs sparse-pricing
//! CPU backend vs dense CPU. The question the follow-on literature asked:
//! does the dense-GPU win survive sparsity? (Answer: pricing stops
//! dominating, but the dense B⁻¹ update remains O(m²) everywhere.)

use crate::measure::{run_model, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::paper_options_for;
use lp::generator;

use super::ExpReport;

pub fn run(quick: bool) -> ExpReport {
    let sizes: &[usize] = if quick { &[128] } else { &[256, 512, 1024] };
    let densities = [0.005f64, 0.02, 0.10];
    let mut t = Table::new(vec![
        "m=n",
        "density",
        "target",
        "iters",
        "time",
        "time/iter",
    ]);
    for &m in sizes {
        let opts = paper_options_for(m);
        for &density in &densities {
            if (density * m as f64) < 2.0 {
                continue; // below the generator's minimum row support
            }
            let model = generator::sparse_random(m, m, density, 1);
            for target in [Target::cpu(), Target::CpuSparse, Target::gpu()] {
                let r = run_model::<f32>(&model, &target, &opts);
                t.push(vec![
                    m.to_string(),
                    format!("{:.1}%", 100.0 * density),
                    target.label(),
                    r.iterations.to_string(),
                    fmt_secs(r.sim_seconds),
                    fmt_secs(r.sim_seconds / r.iterations.max(1) as f64),
                ]);
            }
        }
    }
    ExpReport {
        id: "f5",
        guards: Vec::new(),
        tables: vec![(
            "F5 (extension): sparse instances across backends (f32)".into(),
            "f5_sparse".into(),
            t,
        )],
    }
}
