//! F6: the fused-launch ablation. Solves the T1 square dense grid on the
//! simulated GPU twice — once with launch fusion (the default) and once
//! with `fuse_launches: false` — plus the CPU baseline, and reports what
//! fusion buys on the small-LP end of the curve:
//!
//! * **launches/iteration** and **PCIe transfers/iteration**, fused vs
//!   unfused — the mechanism (one overhead per kernel *chain*, one staged
//!   readback per probe pair instead of one per scalar);
//! * **simulated solve time** and **speedup vs CPU** in both modes;
//! * the **CPU–GPU crossover size**, interpolated from the speedup curve —
//!   the headline claim is that fusion moves it left (the GPU starts
//!   paying off on smaller LPs) without changing a single pivot.
//!
//! Writes `results/f6_fusion.csv`. Its guards fail the run if fused
//! launches/iteration ever reaches the unfused count on the 256-row
//! instance, or if fusion stops moving the crossover left.

use gplex::{SolverOptions, Status};
use lp::generator;

use crate::measure::{run_model, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::{paper_options_for, seeds};

use super::{ExpReport, Guard};

/// Per-mode means over the seed set at one size.
struct ModePoint {
    sim: f64,
    launches_per_iter: f64,
    transfers_per_iter: f64,
}

struct SizePoint {
    m: usize,
    seeds: usize,
    iters: f64,
    cpu_sim: f64,
    fused: ModePoint,
    unfused: ModePoint,
}

impl SizePoint {
    fn speedup(&self, fused: bool) -> f64 {
        self.cpu_sim
            / if fused {
                self.fused.sim
            } else {
                self.unfused.sim
            }
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The F6 grid reaches below the T1 grid: the crossover lives among the
/// small sizes where launch overhead dominates, so those must be sampled.
/// Both grids include m = 256, the size the launch-rate guard keys on.
fn fusion_grid(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 64, 128, 256]
    } else {
        vec![32, 64, 96, 128, 192, 256, 512, 768]
    }
}

fn measure_size(m: usize, quick: bool) -> SizePoint {
    let base = paper_options_for(m);
    let mode_opts = |fuse: bool| SolverOptions {
        fuse_launches: fuse,
        ..base.clone()
    };

    let mut cpu_sim = Vec::new();
    let mut iters = Vec::new();
    // [fused, unfused]
    let mut sim = [Vec::new(), Vec::new()];
    let mut lpi = [Vec::new(), Vec::new()];
    let mut tpi = [Vec::new(), Vec::new()];
    let seed_list = seeds(quick, m);
    for &seed in &seed_list {
        let model = generator::dense_random(m, m, seed);
        let c = run_model::<f32>(&model, &Target::cpu(), &base);
        assert_eq!(c.status, Status::Optimal, "cpu m={m} seed={seed}");
        cpu_sim.push(c.sim_seconds);
        for (slot, fuse) in [(0usize, true), (1, false)] {
            let g = run_model::<f32>(&model, &Target::gpu(), &mode_opts(fuse));
            assert_eq!(
                g.status,
                Status::Optimal,
                "gpu m={m} seed={seed} fuse={fuse}"
            );
            // Parity invariant: fusion is accounting-only, so the pivot
            // path (hence the iteration count) must not move.
            if fuse {
                iters.push(g.iterations as f64);
            } else {
                assert_eq!(
                    g.iterations as f64,
                    *iters.last().expect("fused ran first"),
                    "m={m} seed={seed}: fusion changed the iteration count"
                );
            }
            let it = g.iterations.max(1) as f64;
            let gr = g.gpu.expect("gpu target reports counters");
            sim[slot].push(g.sim_seconds);
            lpi[slot].push(gr.launches as f64 / it);
            tpi[slot].push((gr.h2d.0 + gr.d2h.0) as f64 / it);
        }
    }
    let mode = |slot: usize| ModePoint {
        sim: mean(&sim[slot]),
        launches_per_iter: mean(&lpi[slot]),
        transfers_per_iter: mean(&tpi[slot]),
    };
    SizePoint {
        m,
        seeds: seed_list.len(),
        iters: mean(&iters),
        cpu_sim: mean(&cpu_sim),
        fused: mode(0),
        unfused: mode(1),
    }
}

/// Smallest size at which the GPU overtakes the CPU (speedup crosses 1),
/// linearly interpolated between grid points. When the largest measured
/// size is still below 1 but the curve is rising, the last segment is
/// extrapolated; `None` means the curve never reaches parity.
fn crossover_m(points: &[(f64, f64)]) -> Option<f64> {
    if let Some(&(m0, s0)) = points.first() {
        if s0 >= 1.0 {
            return Some(m0);
        }
    }
    for w in points.windows(2) {
        let ((m0, s0), (m1, s1)) = (w[0], w[1]);
        if s0 < 1.0 && s1 >= 1.0 {
            return Some(m0 + (m1 - m0) * (1.0 - s0) / (s1 - s0));
        }
    }
    let (&(m0, s0), &(m1, s1)) = match points {
        [.., a, b] => (a, b),
        _ => return None,
    };
    if s1 > s0 {
        Some(m0 + (m1 - m0) * (1.0 - s0) / (s1 - s0))
    } else {
        None
    }
}

fn speedup_curve(points: &[SizePoint], fused: bool) -> Vec<(f64, f64)> {
    points
        .iter()
        .map(|p| (p.m as f64, p.speedup(fused)))
        .collect()
}

/// The guardrail size: fusion must cut the launch rate here.
const GUARD_M: usize = 256;

/// Fused launches/iteration below unfused at `GUARD_M`, and the CPU-GPU
/// crossover moved left by fusion.
fn guards(points: &[SizePoint]) -> Vec<Guard> {
    let name = format!("m={GUARD_M}: fused launches/iter < unfused");
    let launches = match points.iter().find(|p| p.m == GUARD_M) {
        Some(p) => Guard::new(
            name,
            p.fused.launches_per_iter < p.unfused.launches_per_iter,
            format!(
                "fused {:.1} vs unfused {:.1}",
                p.fused.launches_per_iter, p.unfused.launches_per_iter
            ),
        ),
        None => Guard::new(name, false, "grid lost its m=256 row"),
    };
    let cross_f = crossover_m(&speedup_curve(points, true));
    let cross_u = crossover_m(&speedup_curve(points, false));
    let moved_left = match (cross_f, cross_u) {
        (Some(f), Some(u)) => f < u,
        (Some(_), None) => true, // fused reaches parity, unfused never does
        _ => false,
    };
    let fmt_cross = |c: Option<f64>| match c {
        Some(x) => format!("m ≈ {x:.0}"),
        None => "never".into(),
    };
    vec![
        launches,
        Guard::new(
            "fusion moves the CPU-GPU crossover left",
            moved_left,
            format!(
                "fused {} vs unfused {}",
                fmt_cross(cross_f),
                fmt_cross(cross_u)
            ),
        ),
    ]
}

pub fn run(quick: bool) -> ExpReport {
    let points: Vec<SizePoint> = fusion_grid(quick)
        .into_iter()
        .map(|m| measure_size(m, quick))
        .collect();

    let mut t = Table::new(vec![
        "m=n",
        "seeds",
        "iters",
        "cpu-time",
        "gpu-fused",
        "gpu-unfused",
        "speedup-fused",
        "speedup-unfused",
        "launch/it-fused",
        "launch/it-unfused",
        "xfer/it-fused",
        "xfer/it-unfused",
    ]);
    for p in &points {
        t.push(vec![
            p.m.to_string(),
            p.seeds.to_string(),
            format!("{:.0}", p.iters),
            fmt_secs(p.cpu_sim),
            fmt_secs(p.fused.sim),
            fmt_secs(p.unfused.sim),
            format!("{:.3}", p.speedup(true)),
            format!("{:.3}", p.speedup(false)),
            format!("{:.1}", p.fused.launches_per_iter),
            format!("{:.1}", p.unfused.launches_per_iter),
            format!("{:.1}", p.fused.transfers_per_iter),
            format!("{:.1}", p.unfused.transfers_per_iter),
        ]);
    }

    ExpReport {
        id: "f6",
        guards: guards(&points),
        tables: vec![(
            "F6: launch fusion ablation — launches, transfers, and the CPU-GPU crossover \
             (dense square, f32)"
                .into(),
            "f6_fusion".into(),
            t,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    #[test]
    fn crossover_interpolates_brackets_and_extrapolates() {
        // Bracketed crossing: halfway between 64 and 128.
        let c = crossover_m(&[(64.0, 0.5), (128.0, 1.5)]).unwrap();
        assert!((c - 96.0).abs() < 1e-9);
        // Already past parity at the smallest size.
        assert_eq!(crossover_m(&[(32.0, 1.2), (64.0, 2.0)]), Some(32.0));
        // Rising but short of parity: extrapolated beyond the grid.
        let c = crossover_m(&[(64.0, 0.2), (128.0, 0.6)]).unwrap();
        assert!(c > 128.0);
        // Flat/falling below parity: no crossover.
        assert_eq!(crossover_m(&[(64.0, 0.6), (128.0, 0.5)]), None);
        assert_eq!(crossover_m(&[(64.0, 0.9)]), None);
    }

    #[test]
    fn quick_grid_includes_the_guardrail_size() {
        assert!(fusion_grid(true).contains(&GUARD_M));
        assert!(fusion_grid(false).contains(&GUARD_M));
    }

    fn point(m: usize, cpu_sim: f64, fused: (f64, f64), unfused: (f64, f64)) -> SizePoint {
        let mode = |(sim, launches_per_iter): (f64, f64)| ModePoint {
            sim,
            launches_per_iter,
            transfers_per_iter: 0.0,
        };
        SizePoint {
            m,
            seeds: 1,
            iters: 10.0,
            cpu_sim,
            fused: mode(fused),
            unfused: mode(unfused),
        }
    }

    #[test]
    fn guards_fail_on_a_launch_regression_and_a_stuck_crossover() {
        // Fused charges as many launches as unfused, and both modes have
        // the same speedup curve, so the crossover does not move.
        let rows = [
            point(128, 1.0, (2.0, 19.0), (2.0, 19.0)),
            point(256, 4.0, (2.0, 19.0), (2.0, 19.0)),
        ];
        assert_eq!(
            failed_names(guards(&rows)),
            [
                "m=256: fused launches/iter < unfused",
                "fusion moves the CPU-GPU crossover left"
            ]
        );
        // A healthy pair passes both.
        let rows = [
            point(128, 1.0, (0.8, 9.0), (2.0, 19.0)),
            point(256, 4.0, (2.0, 9.0), (3.0, 19.0)),
        ];
        assert!(failed_names(guards(&rows)).is_empty());
    }
}
