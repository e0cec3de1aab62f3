//! B1 (extension): batch-solving throughput — the [`gplex::BatchSolver`]
//! sweep over batch size × worker count × backend.
//!
//! For each configuration the batch of seeded [`lp::generator::batch_dense`]
//! jobs is pushed through the worker pool and the report's two clocks are
//! tabulated:
//!
//! * **sim-makespan / speedup** — the primary metric: modeled solve time of
//!   the most-loaded worker, and the sequential-over-parallel ratio on that
//!   clock. This measures the *scheduler* on the simulated hardware and is
//!   independent of the host's core count (the reproduction container may
//!   have a single core, where host wall-clock cannot show parallelism).
//! * **wall-s / LPs-per-wall-s** — the secondary, machine-dependent host
//!   clock, reported for completeness.
//!
//! The `gpu-shared` rows run every job as a [`gpu_sim::Stream`] on *one*
//! shared simulated GTX 280 — the configuration that exercises per-stream
//! counter isolation under concurrency.

use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{BackendKind, BatchOptions, BatchSolver};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;

use crate::table::Table;

use super::ExpReport;

pub fn run(quick: bool) -> ExpReport {
    let batch_sizes: &[usize] = if quick { &[16] } else { &[16, 64] };
    let worker_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    // Shape small enough that the full sweep stays a smoke-test, large
    // enough that per-job modeled time dominates scheduling noise.
    let (m, n) = (24, 32);

    let mut t = Table::new(vec![
        "batch",
        "workers",
        "backend",
        "solved",
        "wall-s",
        "sim-total",
        "sim-makespan",
        "sim-speedup",
        "sim-LPs/s",
    ]);

    for &batch in batch_sizes {
        let jobs = generator::batch_dense(batch, m, n, 1);
        for &workers in worker_counts {
            for backend in backends() {
                let label = backend.label();
                let solver = BatchSolver::new(BatchOptions {
                    workers,
                    policy: PlacementPolicy::Fixed(backend),
                    ..Default::default()
                });
                let report = solver.solve::<f64>(&jobs);
                let s = &report.stats;
                t.push(vec![
                    batch.to_string(),
                    workers.to_string(),
                    label.to_string(),
                    format!("{}/{}", s.solved, s.jobs),
                    format!("{:.4}", s.wall_seconds),
                    format!("{:.6}", s.sim_total.as_secs_f64()),
                    format!("{:.6}", s.sim_makespan.as_secs_f64()),
                    format!("{:.2}", s.speedup()),
                    format!("{:.0}", s.sim_throughput()),
                ]);
            }
        }
    }

    ExpReport {
        id: "b1",
        guards: Vec::new(),
        tables: vec![(
            "B1 (extension): batch throughput — batch × workers × backend".into(),
            "b1_batch_throughput".into(),
            t,
        )],
    }
}

/// The backends swept: both CPU paths and one shared simulated GTX 280
/// (fresh per call so counters do not leak across configurations).
fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuShared(Arc::new(Gpu::new(DeviceSpec::gtx280()))),
    ]
}
