//! R3: chaos soak — checkpointed recovery versus retry-from-scratch, on
//! both batch execution paths.
//!
//! Same-shape LP families are pushed through the batch solver under a
//! fault-rate sweep, twice per path: once with checkpointing on
//! (`checkpoint_interval = refactor_period`, so every periodic reinversion
//! boundary snapshots resumable state) and once with it off (every failed
//! attempt restarts from scratch). The two execution paths exercise the two
//! recovery mechanisms grown in this tree:
//!
//! * **stream** — one job per worker through [`gplex::ResilientSolver`]:
//!   retries and the `gpu-dense → cpu-dense` degradation ladder, resuming
//!   each attempt from the latest checkpoint when one exists;
//! * **mega** — same jobs grouped into lockstep SoA families: a mid-round
//!   device fault evacuates every live lane with its checkpoint and
//!   re-dispatches it as a resumed stream solve on the fault-free CPU rung
//!   (salvage, never an error).
//!
//! Reported per `(path, checkpointing, fault rate)`: terminal outcomes (the
//! batch must drain 100% at every rate — that is the completion guardrail),
//! recovery counters (resumed vs cold-restarted jobs are disjoint), and the
//! headline **wasted-iteration ratio** — re-done pivots over total pivots
//! spent, `wasted / (wasted + useful)`. Checkpointing bounds the work a
//! fault can destroy by one checkpoint interval, so its ratio must sit
//! strictly below retry-from-scratch at every nonzero fault rate. The
//! experiment's guards check both claims on the rows it reports.

use gplex::batch::PlacementPolicy;
use gplex::{BackendKind, BatchOptions, BatchSolver, ResilienceOptions, SolverOptions};
use gpu_sim::{DeviceSpec, FaultConfig};
use lp::{generator, LinearProgram};

use crate::table::Table;

use super::{ExpReport, Guard};

/// Reinversion cadence shared by every run: checkpoints ride the periodic
/// refactorize, so this is also the max iterations one fault can waste on
/// the checkpointed paths.
const CADENCE: usize = 4;

/// Fault warmup in device ops: long enough that injected faults strike
/// mid-solve — past the first checkpoint boundary, not during setup
/// uploads — on both the solo-stream and width-8 mega ops profiles. Sized
/// to the op counts of a pivot whose bookkeeping rides on kernel arguments
/// and a one-group reinversion: at 170 no checkpointed mega lane restarts
/// cold, and most stream faults resume from a checkpoint. Re-derive it when
/// the device ops per iteration change.
const WARMUP_OPS: u64 = 170;

/// `families` width-8 perturbed families (shared `A`, jittered `b`/`c`).
/// Each family gets its own shape so the mega path forms one width-8
/// lockstep group per family instead of merging them into one wide group
/// whose setup phase would outlast the fault warmup.
fn family_batch(families: usize) -> Vec<LinearProgram> {
    (0..families)
        .flat_map(|f| generator::perturbed_family(8, 16 + f, 24 + f, 100 + f as u64, 0.03))
        .collect()
}

fn chaos_faults(p: f64) -> Option<FaultConfig> {
    (p > 0.0).then(|| {
        let mut cfg = FaultConfig::uniform(2026, p);
        cfg.warmup_ops = WARMUP_OPS;
        cfg
    })
}

fn solver_opts(ckpt: bool) -> SolverOptions {
    SolverOptions {
        refactor_period: CADENCE,
        checkpoint_interval: if ckpt { CADENCE } else { 0 },
        ..Default::default()
    }
}

struct RunRow {
    path: &'static str,
    ckpt: bool,
    fault_p: f64,
    jobs: usize,
    solved: usize,
    failed: usize,
    panicked: usize,
    faults: u64,
    resumed: usize,
    evacuated: usize,
    wasted: u64,
    useful: u64,
    wall_s: f64,
}

impl RunRow {
    /// Re-done pivots over total pivots spent (useful + re-done).
    fn wasted_ratio(&self) -> f64 {
        let total = self.wasted + self.useful;
        if total == 0 {
            0.0
        } else {
            self.wasted as f64 / total as f64
        }
    }

    /// Solved jobs over submitted jobs; 0 (not NaN) for an empty run, so
    /// the completion guard fails it instead of comparing against NaN.
    fn completion(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.solved as f64 / self.jobs as f64
        }
    }
}

fn collect(
    path: &'static str,
    ckpt: bool,
    fault_p: f64,
    jobs: usize,
    opts: BatchOptions,
    lps: &[LinearProgram],
) -> RunRow {
    let report = BatchSolver::new(opts).solve::<f64>(lps);
    let s = &report.stats;
    let useful: u64 = report
        .results
        .iter()
        .filter_map(|r| r.outcome.solution())
        .map(|sol| sol.stats.iterations as u64)
        .sum();
    RunRow {
        path,
        ckpt,
        fault_p,
        jobs,
        solved: s.solved,
        failed: s.failed,
        panicked: s.panicked,
        faults: s.device_faults,
        resumed: s.resumed_jobs,
        evacuated: s.evacuated_jobs,
        wasted: s.wasted_iterations,
        useful,
        wall_s: s.wall_seconds,
    }
}

/// Stream path: one job per worker through the resilience ladder, placed on
/// a per-job dense GPU device so every job walks its own fault sequence.
fn run_stream(lps: &[LinearProgram], fault_p: f64, ckpt: bool) -> RunRow {
    let opts = BatchOptions {
        workers: 4,
        solver: solver_opts(ckpt),
        policy: PlacementPolicy::Fixed(BackendKind::GpuDense(DeviceSpec::gtx280())),
        resilience: Some(ResilienceOptions {
            faults: chaos_faults(fault_p),
            quarantine_after: 0,
            ..Default::default()
        }),
        ..Default::default()
    };
    collect("stream", ckpt, fault_p, lps.len(), opts, lps)
}

/// Mega path: lockstep families with lane evacuation; faults are armed on
/// the group device through the solver options (per-group reseeded plan).
fn run_mega(lps: &[LinearProgram], fault_p: f64, ckpt: bool) -> RunRow {
    let mut solver = solver_opts(ckpt);
    solver.faults = chaos_faults(fault_p);
    let opts = BatchOptions {
        workers: 4,
        mega_batch: true,
        solver,
        ..Default::default()
    };
    collect("mega", ckpt, fault_p, lps.len(), opts, lps)
}

/// Run `f` with panic backtraces muted: fault injection makes the solver
/// panic (and recover) by design.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Every run completes; for each path at each nonzero fault rate, faults
/// actually fired and the checkpointed run wasted a strictly smaller share
/// of its pivots than retry-from-scratch.
fn guards(rows: &[RunRow]) -> Vec<Guard> {
    let tag = |r: &RunRow| {
        format!(
            "{} ckpt={} p={}",
            r.path,
            if r.ckpt { "on" } else { "off" },
            r.fault_p
        )
    };
    let mut out: Vec<Guard> = rows
        .iter()
        .map(|r| {
            Guard::new(
                format!("{}: completion == 1", tag(r)),
                r.completion() == 1.0,
                format!("{}/{} solved", r.solved, r.jobs),
            )
        })
        .collect();
    let mut rates: Vec<f64> = rows
        .iter()
        .map(|r| r.fault_p)
        .filter(|&p| p > 0.0)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    for path in ["stream", "mega"] {
        for &p in &rates {
            let pick = |ckpt: bool| {
                rows.iter()
                    .find(|r| r.path == path && r.fault_p == p && r.ckpt == ckpt)
            };
            let name = format!("{path} p={p}");
            let (Some(ck), Some(scratch)) = (pick(true), pick(false)) else {
                out.push(Guard::new(
                    format!("{name}: checkpointed and scratch runs present"),
                    false,
                    "sweep lost a run",
                ));
                continue;
            };
            out.push(Guard::new(
                format!("{name}: faults fired"),
                ck.faults > 0,
                format!("{} device faults", ck.faults),
            ));
            out.push(Guard::new(
                format!("{name}: checkpointed wasted ratio < scratch"),
                ck.wasted_ratio() < scratch.wasted_ratio(),
                format!(
                    "checkpointed {:.4} vs scratch {:.4}",
                    ck.wasted_ratio(),
                    scratch.wasted_ratio()
                ),
            ));
        }
    }
    out
}

pub fn run(quick: bool) -> ExpReport {
    let families = if quick { 2 } else { 4 };
    let fault_rates: &[f64] = if quick {
        &[0.0, 0.25]
    } else {
        &[0.0, 0.05, 0.1, 0.25]
    };
    let lps = family_batch(families);

    let rows: Vec<RunRow> = with_quiet_panics(|| {
        let mut rows = Vec::new();
        for &p in fault_rates {
            for ckpt in [true, false] {
                rows.push(run_stream(&lps, p, ckpt));
                rows.push(run_mega(&lps, p, ckpt));
            }
        }
        rows
    });

    let mut t = Table::new(vec![
        "path",
        "ckpt",
        "fault-p",
        "jobs",
        "solved",
        "failed",
        "panicked",
        "faults",
        "resumed",
        "cold-restarts",
        "wasted-iters",
        "useful-iters",
        "wasted-ratio",
        "completion",
        "wall-s",
    ]);
    for r in &rows {
        t.push(vec![
            r.path.to_string(),
            if r.ckpt { "on" } else { "off" }.to_string(),
            format!("{:.3}", r.fault_p),
            r.jobs.to_string(),
            r.solved.to_string(),
            r.failed.to_string(),
            r.panicked.to_string(),
            r.faults.to_string(),
            r.resumed.to_string(),
            r.evacuated.to_string(),
            r.wasted.to_string(),
            r.useful.to_string(),
            format!("{:.4}", r.wasted_ratio()),
            format!("{:.4}", r.completion()),
            format!("{:.4}", r.wall_s),
        ]);
    }

    ExpReport {
        id: "r3",
        guards: guards(&rows),
        tables: vec![(
            "R3: chaos soak — checkpointed recovery vs retry-from-scratch, stream and mega paths"
                .into(),
            "r3_chaos".into(),
            t,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::{guards, RunRow};
    use crate::experiments::failed_names;

    fn row(path: &'static str, ckpt: bool, fault_p: f64, wasted: u64) -> RunRow {
        RunRow {
            path,
            ckpt,
            fault_p,
            jobs: 16,
            solved: 16,
            failed: 0,
            panicked: 0,
            faults: if fault_p > 0.0 { 12 } else { 0 },
            resumed: 0,
            evacuated: 0,
            wasted,
            useful: 100,
            wall_s: 0.0,
        }
    }

    #[test]
    fn rates_stay_finite_on_empty_runs() {
        // Regression: an empty run used to report completion NaN (0/0).
        // A NaN makes a `completion < 1.0` failure test silently pass, so
        // a run that solved nothing would slip past the completion guard.
        let r = RunRow {
            jobs: 0,
            solved: 0,
            useful: 0,
            ..row("stream", false, 0.0, 0)
        };
        assert_eq!(r.completion(), 0.0);
        assert_eq!(r.wasted_ratio(), 0.0);
        assert!(!guards(&[r])[0].pass);
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        let healthy = || {
            let mut rows = Vec::new();
            for path in ["stream", "mega"] {
                rows.push(row(path, true, 0.0, 0));
                rows.push(row(path, false, 0.0, 0));
                rows.push(row(path, true, 0.25, 5));
                rows.push(row(path, false, 0.25, 40));
            }
            rows
        };
        let failed = |rows: &[RunRow]| failed_names(guards(rows));
        assert!(failed(&healthy()).is_empty());

        let mut rows = healthy();
        rows[2].solved = 15;
        assert_eq!(failed(&rows), ["stream ckpt=on p=0.25: completion == 1"]);

        let mut rows = healthy();
        rows[6].faults = 0;
        assert_eq!(failed(&rows), ["mega p=0.25: faults fired"]);

        let mut rows = healthy();
        rows[6].wasted = 40;
        assert_eq!(
            failed(&rows),
            ["mega p=0.25: checkpointed wasted ratio < scratch"]
        );

        let mut rows = healthy();
        rows.remove(3);
        assert_eq!(
            failed(&rows),
            ["stream p=0.25: checkpointed and scratch runs present"]
        );
    }
}
