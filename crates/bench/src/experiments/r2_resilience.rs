//! R2 (extension): resilience under fault injection — recovery overhead and
//! degraded-mode throughput of the batch scheduler versus a fault-free
//! baseline.
//!
//! A mixed 64-LP batch (three shape families, seeded) is pushed through the
//! shared-GPU pool four times: once fault-free, then with the seeded
//! [`gpu_sim::FaultConfig`] injecting faults into a growing fraction of GPU
//! operations. Every run uses [`gplex::BatchOptions::resilience`], so jobs
//! retry with recorded backoff, degrade down the
//! `gpu-shared → gpu-dense → cpu-dense` ladder when a rung keeps dying, and
//! the scheduler quarantines the shared device after consecutive faulted
//! jobs. Reported per fault rate:
//!
//! * terminal outcome counts (solved / failed / panicked — the batch must
//!   always drain with zero escaped panics);
//! * fault / retry / degradation counters (deterministic from the seed);
//! * total recorded backoff — the retry/backoff cost of recovery;
//! * host wall time and its ratio to the fault-free baseline — the
//!   *recovery overhead* (failed attempts are real work the host repeats);
//! * simulated makespan and throughput — the *degraded-mode throughput*.
//!   Note the sign: these batch jobs sit far below the paper's CPU/GPU
//!   crossover, so a job that degrades to the CPU rung gets *faster* on the
//!   simulated clock (kernel-launch overhead dominates tiny LPs). Recovery
//!   overhead is therefore a wall-clock phenomenon here, not a
//!   simulated-time one.

use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{BackendKind, BatchOptions, BatchSolver, ResilienceOptions};
use gpu_sim::{DeviceSpec, FaultConfig, Gpu};
use lp::{generator, LinearProgram};

use crate::table::Table;

use super::ExpReport;

/// The mixed batch: dense squares, skinny denses, and transportation-style
/// equality systems, interleaved so every fault rate sees every family.
fn mixed_batch(count: usize) -> Vec<LinearProgram> {
    (0..count)
        .map(|i| match i % 3 {
            0 => generator::dense_random(10, 14, i as u64),
            1 => generator::dense_random(16, 12, 1000 + i as u64),
            _ => generator::transportation(&[30.0, 70.0], &[40.0, 60.0], i as u64),
        })
        .collect()
}

struct RunRow {
    fault_p: f64,
    solved: usize,
    failed: usize,
    panicked: usize,
    faults: u64,
    retries: usize,
    degradations: usize,
    backoff_s: f64,
    wall_s: f64,
    makespan_s: f64,
    lps_per_sim_s: f64,
}

fn run_batch(jobs: &[LinearProgram], workers: usize, fault_p: f64, quarantine: usize) -> RunRow {
    let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let resilience = ResilienceOptions {
        faults: if fault_p > 0.0 {
            Some(FaultConfig::uniform(2024, fault_p))
        } else {
            None
        },
        quarantine_after: quarantine,
        ..Default::default()
    };
    let report = BatchSolver::new(BatchOptions {
        workers,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
        resilience: Some(resilience),
        ..Default::default()
    })
    .solve::<f64>(jobs);
    let s = &report.stats;
    let backoff_s: f64 = report
        .results
        .iter()
        .filter_map(|r| r.outcome.solution())
        .map(|sol| sol.stats.backoff_seconds)
        .sum();
    RunRow {
        fault_p,
        solved: s.solved,
        failed: s.failed,
        panicked: s.panicked,
        faults: s.device_faults,
        retries: s.retries,
        degradations: s.degradations,
        backoff_s,
        wall_s: s.wall_seconds,
        makespan_s: s.sim_makespan.as_secs_f64(),
        lps_per_sim_s: s.sim_throughput(),
    }
}

/// Run `f` with panic backtraces muted: fault injection makes the solver
/// panic (and recover) by design, and the default hook would spray dozens
/// of expected backtraces over the report.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

pub fn run(quick: bool) -> ExpReport {
    let count = if quick { 16 } else { 64 };
    let workers = 4;
    // Per-op fault probabilities. A solve touches hundreds of device ops,
    // so the interesting transition (some jobs survive on the GPU, some
    // degrade) lives at small p; 0.25 is the saturated regime the
    // acceptance tests use (essentially no GPU attempt survives).
    let fault_rates: &[f64] = if quick {
        &[0.0, 0.25]
    } else {
        &[0.0, 0.001, 0.005, 0.05, 0.25]
    };
    let jobs = mixed_batch(count);

    // Sweep with quarantine off so every job individually exercises the
    // retry/degradation ladder (quarantine gets its own table below).
    let rows: Vec<RunRow> = with_quiet_panics(|| {
        fault_rates
            .iter()
            .map(|&p| run_batch(&jobs, workers, p, 0))
            .collect()
    });
    let baseline_wall = rows[0].wall_s;

    let mut t = Table::new(vec![
        "fault-p",
        "jobs",
        "solved",
        "failed",
        "panicked",
        "faults",
        "retries",
        "degraded",
        "backoff-s",
        "wall-s",
        "wall-overhead-x",
        "sim-makespan-s",
        "sim-LPs/s",
    ]);
    for r in &rows {
        t.push(vec![
            format!("{:.3}", r.fault_p),
            count.to_string(),
            r.solved.to_string(),
            r.failed.to_string(),
            r.panicked.to_string(),
            r.faults.to_string(),
            r.retries.to_string(),
            r.degradations.to_string(),
            format!("{:.3}", r.backoff_s),
            format!("{:.4}", r.wall_s),
            format!("{:.2}", r.wall_s / baseline_wall),
            format!("{:.6}", r.makespan_s),
            format!("{:.0}", r.lps_per_sim_s),
        ]);
    }

    // Quarantine: at a saturated fault rate, benching the dying device
    // after K consecutive faulted jobs converts most per-job ladder walks
    // into direct CPU placements — same answers, less wasted work.
    let mut tq = Table::new(vec![
        "quarantine-after",
        "faults",
        "retries",
        "degraded",
        "wall-s",
        "sim-LPs/s",
    ]);
    let q_rows: Vec<(usize, RunRow)> = with_quiet_panics(|| {
        [0usize, 2, 4]
            .into_iter()
            .map(|k| (k, run_batch(&jobs, workers, 0.25, k)))
            .collect()
    });
    for (k, r) in &q_rows {
        tq.push(vec![
            if *k == 0 {
                "off".to_string()
            } else {
                k.to_string()
            },
            r.faults.to_string(),
            r.retries.to_string(),
            r.degradations.to_string(),
            format!("{:.4}", r.wall_s),
            format!("{:.0}", r.lps_per_sim_s),
        ]);
    }

    ExpReport {
        id: "r2",
        guards: Vec::new(),
        tables: vec![
            (
                "R2 (extension): resilience — fault rate vs recovery cost and throughput".into(),
                "r2_resilience".into(),
                t,
            ),
            (
                "R2b: quarantine threshold at fault-p 0.25 — wasted work avoided".into(),
                "r2_quarantine".into(),
                tq,
            ),
        ],
    }
}
