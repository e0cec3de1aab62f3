//! Transportation: ship goods from warehouses to stores at minimum cost.
//! Equality constraints with a redundant row — the classic degenerate
//! two-phase stress test — solved on both the CPU baseline and the
//! simulated GPU.
//!
//! ```text
//! cargo run --release --example transportation
//! ```

use gplex::{BackendKind, SolveRequest, SolverOptions, Status};
use gpu_sim::DeviceSpec;
use lp::generator;

fn main() {
    let supply = [120.0, 80.0, 150.0];
    let demand = [90.0, 70.0, 110.0, 80.0];
    let model = generator::transportation(&supply, &demand, 42);
    println!(
        "balanced transportation: {} sources, {} sinks, {} routes\n",
        supply.len(),
        demand.len(),
        model.num_vars()
    );

    let opts = SolverOptions::default();
    let cpu = SolveRequest::model(&model, &opts)
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
    let gpu = SolveRequest::model(&model, &opts)
        .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
        .run::<f64>()
        .unwrap();

    assert_eq!(cpu.status, Status::Optimal);
    assert_eq!(gpu.status, Status::Optimal);
    assert!((cpu.objective - gpu.objective).abs() < 1e-6);

    println!(
        "minimum cost: {:.2} (cpu) / {:.2} (simulated gpu)",
        cpu.objective, gpu.objective
    );
    println!(
        "iterations  : {} cpu / {} gpu ({} phase-1)",
        cpu.stats.iterations, gpu.stats.iterations, cpu.stats.phase1_iterations
    );

    println!("\nshipping plan (nonzero routes):");
    for (var, &qty) in model.vars().iter().zip(&cpu.x) {
        if qty > 1e-9 {
            println!("  {:<8} {qty:>7.1}", var.name);
        }
    }

    // Sanity: flows balance per source and sink.
    for (i, &s) in supply.iter().enumerate() {
        let shipped: f64 = model
            .vars()
            .iter()
            .zip(&cpu.x)
            .filter(|(v, _)| v.name.starts_with(&format!("x_{i}_")))
            .map(|(_, &q)| q)
            .sum();
        assert!((shipped - s).abs() < 1e-6, "source {i} imbalance");
    }
    println!("\nall supplies exhausted, all demands met ✓");
}
