//! B2 (extension): the SoA mega-batch kernel backend vs stream-per-job.
//!
//! The block-per-LP backend ([`gplex::BatchKernelBackend`]) runs an entire
//! same-shape family in lockstep: one batched kernel chain per simplex
//! iteration for the *whole* family, against the stream-per-job baseline
//! that charges a full kernel chain per iteration *per member*. B2 sweeps
//! batch width × LP size and reports, per cell:
//!
//! * **launches/iter** for both paths — the mechanism. Stream-per-job is
//!   flat in width; the SoA path amortizes the chain over every active
//!   lane, so its per-iteration launch bill falls like `1/width`;
//! * **sim time & speedup** on the modeled clock — the consequence. The
//!   crossover where the SoA path overtakes stream-per-job (small LPs,
//!   width ≥ 16) is the headline table;
//! * **bitwise** — every mega member's objective is bit-identical to a
//!   solo cpu-dense solve of the same model (the lockstep kernels replay
//!   the serial arithmetic exactly), plus the worst stream-vs-solo
//!   relative divergence for context.
//!
//! Width 1 is kept in the sweep as a negative control: shape singletons
//! fall back to stream-per-job (`grouped = 0`), so both columns coincide.
//!
//! Writes `results/b2_mega_batch.csv`. Its guards fail the run if any
//! member goes unsolved or bitwise parity with the solo solve breaks, or
//! if, at width ≥ 16, the family does not group whole or the SoA path
//! does not charge strictly fewer launches/iter than stream-per-job.

use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{
    BackendKind, BatchOptions, BatchReport, BatchSolver, SolveRequest, SolverOptions, Status,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;

use crate::table::{fmt_secs, Table};

use super::{ExpReport, Guard};

/// One (batch width × LP size) cell: stream-per-job vs mega-batch.
struct CellPoint {
    width: usize,
    m: usize,
    n: usize,
    stream_launches: u64,
    mega_launches: u64,
    stream_iters: u64,
    mega_iters: u64,
    stream_sim: f64,
    mega_sim: f64,
    grouped: usize,
    mega_groups: usize,
    all_solved: bool,
    /// Every mega member bit-identical (status + objective) to solo cpu-dense.
    mega_bitwise: bool,
    /// Worst stream-vs-solo relative objective divergence (context only).
    stream_max_rel: f64,
}

impl CellPoint {
    fn stream_lpi(&self) -> f64 {
        self.stream_launches as f64 / self.stream_iters.max(1) as f64
    }
    fn mega_lpi(&self) -> f64 {
        self.mega_launches as f64 / self.mega_iters.max(1) as f64
    }
    fn sim_speedup(&self) -> f64 {
        if self.mega_sim == 0.0 {
            1.0
        } else {
            self.stream_sim / self.mega_sim
        }
    }
}

/// One cold batch run on a fresh shared device, so the device counters
/// are exactly this run's launch bill.
fn run_batch(jobs: &[lp::LinearProgram], dev: Arc<Gpu>, mega: bool) -> BatchReport {
    BatchSolver::new(BatchOptions {
        workers: 1,
        policy: PlacementPolicy::Fixed(BackendKind::GpuShared(dev)),
        mega_batch: mega,
        ..Default::default()
    })
    .solve::<f64>(jobs)
}

fn total_iters(rep: &BatchReport) -> u64 {
    rep.results
        .iter()
        .map(|r| {
            r.outcome
                .solution()
                .map(|s| s.stats.iterations as u64)
                .unwrap_or(0)
        })
        .sum()
}

fn measure_cell(width: usize, m: usize, n: usize, seed: u64) -> CellPoint {
    let jobs = generator::perturbed_family(width, m, n, seed, 1e-3);

    let solo: Vec<_> = jobs
        .iter()
        .map(|j| {
            SolveRequest::model(j, &SolverOptions::default())
                .on(&BackendKind::CpuDense)
                .run::<f64>()
                .unwrap()
        })
        .collect();

    let stream_dev = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let stream = run_batch(&jobs, stream_dev.clone(), false);
    let mega_dev = Arc::new(Gpu::new(DeviceSpec::gtx280()));
    let mega = run_batch(&jobs, mega_dev.clone(), true);

    let mut mega_bitwise = true;
    let mut stream_max_rel = 0.0f64;
    for ((s, g), o) in stream.results.iter().zip(&mega.results).zip(&solo) {
        // Bitwise parity is a property of the lockstep kernels; members the
        // pre-pass sent down the stream fallback (shape singletons) are held
        // to the same rel tolerance as the stream column instead.
        if g.backend == "batch-kernel" {
            match g.outcome.solution() {
                Some(gs) if gs.status == o.status => {
                    mega_bitwise &= gs.objective.to_bits() == o.objective.to_bits();
                }
                _ => mega_bitwise = false,
            }
        }
        if let Some(ss) = s.outcome.solution() {
            if o.status == Status::Optimal {
                let rel = ((ss.objective - o.objective) / o.objective.abs().max(1.0)).abs();
                stream_max_rel = stream_max_rel.max(rel);
            }
        } else {
            stream_max_rel = f64::INFINITY;
        }
    }

    CellPoint {
        width,
        m,
        n,
        stream_launches: stream_dev.counters().kernels_launched,
        mega_launches: mega_dev.counters().kernels_launched,
        stream_iters: total_iters(&stream),
        mega_iters: total_iters(&mega),
        stream_sim: stream.stats.sim_total.as_secs_f64(),
        mega_sim: mega.stats.sim_total.as_secs_f64(),
        grouped: mega.stats.grouped_jobs,
        mega_groups: mega.stats.mega_groups,
        all_solved: stream.all_solved() && mega.all_solved(),
        mega_bitwise,
        stream_max_rel,
    }
}

/// Width from which the SoA path must group the whole family and beat
/// stream-per-job on launches/iteration.
const GUARD_WIDTH: usize = 16;

/// Per cell: every member solved and bit-identical to the solo solve; at
/// width ≥ 16 also the whole family grouped and fewer launches/iter.
fn guards(points: &[CellPoint]) -> Vec<Guard> {
    let mut out = Vec::new();
    for p in points {
        let tag = format!("width {} on {}x{}", p.width, p.m, p.n);
        out.push(Guard::new(
            format!("{tag}: all solved"),
            p.all_solved,
            format!("{} jobs", p.width),
        ));
        out.push(Guard::new(
            format!("{tag}: mega bitwise with solo cpu-dense"),
            p.mega_bitwise,
            format!("stream max rel {:.1e}", p.stream_max_rel),
        ));
        if p.width >= GUARD_WIDTH {
            out.push(Guard::new(
                format!("{tag}: grouped == width"),
                p.grouped == p.width,
                format!(
                    "grouped {}/{} in {} groups",
                    p.grouped, p.width, p.mega_groups
                ),
            ));
            out.push(Guard::new(
                format!("{tag}: mega launches/iter < stream"),
                p.mega_lpi() < p.stream_lpi(),
                format!("mega {:.2} vs stream {:.2}", p.mega_lpi(), p.stream_lpi()),
            ));
        }
    }
    out
}

pub fn run(quick: bool) -> ExpReport {
    let widths: &[usize] = if quick { &[4, 16] } else { &[1, 4, 16, 64] };
    let sizes: &[(usize, usize)] = if quick {
        &[(4, 6), (8, 12)]
    } else {
        &[(4, 6), (8, 12), (16, 24)]
    };

    let mut t = Table::new(vec![
        "width",
        "lp",
        "stream-l/it",
        "mega-l/it",
        "launch-ratio",
        "grouped",
        "stream-sim",
        "mega-sim",
        "sim-speedup",
        "winner",
        "bitwise",
        "stream-max-rel",
        "all-solved",
    ]);

    let mut points: Vec<CellPoint> = Vec::new();
    for &(m, n) in sizes {
        for &width in widths {
            let p = measure_cell(width, m, n, 2009 + width as u64);
            t.push(vec![
                p.width.to_string(),
                format!("{m}x{n}"),
                format!("{:.2}", p.stream_lpi()),
                format!("{:.2}", p.mega_lpi()),
                format!("{:.2}x", p.stream_lpi() / p.mega_lpi().max(1e-12)),
                format!("{}/{}", p.grouped, p.width),
                fmt_secs(p.stream_sim),
                fmt_secs(p.mega_sim),
                format!("{:.3}", p.sim_speedup()),
                if p.sim_speedup() > 1.0 {
                    "mega"
                } else {
                    "stream"
                }
                .into(),
                p.mega_bitwise.to_string(),
                format!("{:.1e}", p.stream_max_rel),
                p.all_solved.to_string(),
            ]);
            points.push(p);
        }
    }

    ExpReport {
        id: "b2",
        guards: guards(&points),
        tables: vec![(
            "B2: SoA mega-batch vs stream-per-job — launches per iteration and \
             sim-time crossover over batch width × LP size (dense perturbed \
             families, f64, cold)"
                .into(),
            "b2_mega_batch".into(),
            t,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    #[test]
    fn width_16_cell_meets_the_guardrail() {
        let p = measure_cell(16, 4, 6, 2025);
        assert_eq!(p.mega_groups, 1);
        let failed = failed_names(guards(&[p]));
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        let healthy = || CellPoint {
            width: 16,
            m: 4,
            n: 6,
            stream_launches: 1600,
            mega_launches: 100,
            stream_iters: 80,
            mega_iters: 80,
            stream_sim: 2.0,
            mega_sim: 1.0,
            grouped: 16,
            mega_groups: 1,
            all_solved: true,
            mega_bitwise: true,
            stream_max_rel: 0.0,
        };
        let failed = |p: CellPoint| failed_names(guards(&[p]));
        assert!(failed(healthy()).is_empty());

        let mut p = healthy();
        p.all_solved = false;
        assert_eq!(failed(p), ["width 16 on 4x6: all solved"]);

        let mut p = healthy();
        p.mega_bitwise = false;
        assert_eq!(
            failed(p),
            ["width 16 on 4x6: mega bitwise with solo cpu-dense"]
        );

        let mut p = healthy();
        p.grouped = 15;
        assert_eq!(failed(p), ["width 16 on 4x6: grouped == width"]);

        let mut p = healthy();
        p.mega_launches = 1600;
        assert_eq!(failed(p), ["width 16 on 4x6: mega launches/iter < stream"]);

        // Below the guard width only solvedness and parity are checked.
        let narrow = CellPoint {
            width: 4,
            grouped: 0,
            ..healthy()
        };
        assert_eq!(guards(&[narrow]).len(), 2);
    }

    #[test]
    fn width_1_falls_back_to_stream_per_job() {
        let p = measure_cell(1, 4, 6, 7);
        assert!(p.all_solved);
        assert!(p.mega_bitwise);
        assert_eq!(p.grouped, 0);
        assert_eq!(p.mega_groups, 0);
    }
}
