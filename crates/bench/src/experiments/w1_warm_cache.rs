//! W1 (extension): the warm-start basis cache on perturbed LP families.
//!
//! The batched-LP successor papers observe that real batches are *families*
//! of structurally related instances. W1 measures what
//! [`gplex::BasisCache`] buys on exactly that workload: a family of dense
//! LPs sharing one constraint matrix with multiplicatively perturbed
//! `b`/`c`, solved twice per backend through [`gplex::BatchSolver`] — cold
//! ([`WarmStartPolicy::Off`]) and warm ([`WarmStartPolicy::Family`]) — with
//! a single worker so the seed member provably populates the cache before
//! its siblings look up.
//!
//! Reported per backend:
//!
//! * **hit rate** over the family (first member must miss, the rest hit);
//! * **iteration reduction** — total and per-member median, the headline
//!   number (the cached optimal basis of the seed member is optimal or
//!   near-optimal for its perturbed siblings);
//! * **sim-time speedup** warm-over-cold on the modeled clock;
//! * **bitwise / max-rel** — whether every member's objective is
//!   bit-identical warm vs cold, and the worst relative divergence. The
//!   polish step makes the answer a pure function of the terminal basis,
//!   so when warm and cold end at the same basis the objectives are
//!   bit-equal; on instances with tolerance-level objective ties the two
//!   runs may stop at different optimal bases, and `max-rel` (ULPs) is
//!   the honest equality measure.
//!
//! Writes `results/w1_warm_cache.csv`. Its guards fail the run if any
//! backend leaves a family member unsolved, loses warm/cold bitwise
//! equality, or its family hit rate drops to 0.5, its median iterations
//! saved to 0, or its median iteration drop below 30%.

use std::sync::Arc;

use gplex::batch::PlacementPolicy;
use gplex::{BackendKind, BatchOptions, BatchReport, BatchSolver, WarmStartPolicy};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;

use crate::table::{fmt_secs, Table};

use super::{ExpReport, Guard};

/// One backend's warm-vs-cold comparison on a family.
struct BackendPoint {
    backend: &'static str,
    jobs: usize,
    hit_rate: f64,
    cold_iters: u64,
    warm_iters: u64,
    median_saved: f64,
    median_drop: f64,
    cold_sim: f64,
    warm_sim: f64,
    bitwise_equal: bool,
    max_rel_diff: f64,
    all_solved: bool,
}

impl BackendPoint {
    fn sim_speedup(&self) -> f64 {
        if self.warm_sim == 0.0 {
            1.0
        } else {
            self.cold_sim / self.warm_sim
        }
    }
}

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
        BackendKind::GpuShared(Arc::new(Gpu::new(DeviceSpec::gtx280()))),
    ]
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

fn run_batch(jobs: &[lp::LinearProgram], kind: &BackendKind, warm: WarmStartPolicy) -> BatchReport {
    // One worker: the walk order is the submission order, so the family's
    // seed member deterministically populates the cache before any sibling
    // looks up — the hit-rate guardrail is exact, not probabilistic.
    BatchSolver::new(BatchOptions {
        workers: 1,
        policy: PlacementPolicy::Fixed(kind.clone()),
        warm_start: warm,
        ..Default::default()
    })
    .solve::<f64>(jobs)
}

fn measure_backend(jobs: &[lp::LinearProgram], kind: &BackendKind) -> BackendPoint {
    let cold = run_batch(jobs, kind, WarmStartPolicy::Off);
    let warm = run_batch(jobs, kind, WarmStartPolicy::Family { tol: 1e-6 });

    let iters = |rep: &BatchReport| -> Vec<u64> {
        rep.results
            .iter()
            .map(|r| {
                r.outcome
                    .solution()
                    .map(|s| s.stats.iterations as u64)
                    .unwrap_or(0)
            })
            .collect()
    };
    let cold_per = iters(&cold);
    let warm_per = iters(&warm);
    let cold_iters: u64 = cold_per.iter().sum();
    let warm_iters: u64 = warm_per.iter().sum();

    // Per-member savings over the *warm-eligible* members (everyone after
    // the seed): the seed member is cold in both runs by construction.
    let mut saved: Vec<f64> = cold_per[1..]
        .iter()
        .zip(&warm_per[1..])
        .map(|(&c, &w)| c.saturating_sub(w) as f64)
        .collect();
    let mut drops: Vec<f64> = cold_per[1..]
        .iter()
        .zip(&warm_per[1..])
        .map(|(&c, &w)| {
            if c == 0 {
                0.0
            } else {
                c.saturating_sub(w) as f64 / c as f64
            }
        })
        .collect();

    let mut bitwise_equal = true;
    let mut max_rel_diff = 0.0f64;
    for (c, w) in cold.results.iter().zip(&warm.results) {
        match (c.outcome.solution(), w.outcome.solution()) {
            (Some(cs), Some(ws)) if cs.status == ws.status => {
                bitwise_equal &= cs.objective.to_bits() == ws.objective.to_bits();
                let rel = ((cs.objective - ws.objective) / cs.objective.abs().max(1.0)).abs();
                max_rel_diff = max_rel_diff.max(rel);
            }
            _ => {
                bitwise_equal = false;
                max_rel_diff = f64::INFINITY;
            }
        }
    }

    BackendPoint {
        backend: kind.label(),
        jobs: jobs.len(),
        hit_rate: warm.stats.warm_hit_rate(),
        cold_iters,
        warm_iters,
        median_saved: median(&mut saved),
        median_drop: median(&mut drops),
        cold_sim: cold.stats.sim_total.as_secs_f64(),
        warm_sim: warm.stats.sim_total.as_secs_f64(),
        bitwise_equal,
        max_rel_diff,
        all_solved: cold.all_solved() && warm.all_solved(),
    }
}

/// Per family and backend: every member solved, warm/cold objectives
/// bit-identical (within 1e-12 on a family with ties), and the cache keeps
/// paying off (hit rate > 0.5, median saved > 0, median drop ≥ 30%).
fn guards(points: &[(String, bool, BackendPoint)]) -> Vec<Guard> {
    let mut out = Vec::new();
    for (family, exact, p) in points {
        let tag = format!("{family} on {}", p.backend);
        out.push(Guard::new(
            format!("{tag}: all solved"),
            p.all_solved,
            format!("{} jobs", p.jobs),
        ));
        let rel = format!("max rel diff {:.1e}", p.max_rel_diff);
        out.push(if *exact {
            Guard::new(format!("{tag}: warm/cold bitwise"), p.bitwise_equal, rel)
        } else {
            Guard::new(
                format!("{tag}: warm/cold rel diff <= 1e-12"),
                p.max_rel_diff <= 1e-12,
                rel,
            )
        });
        out.push(Guard::new(
            format!("{tag}: hit rate > 0.5"),
            p.hit_rate > 0.5,
            format!("hit rate {:.3}", p.hit_rate),
        ));
        out.push(Guard::new(
            format!("{tag}: median saved > 0"),
            p.median_saved > 0.0,
            format!("median saved {:.1}", p.median_saved),
        ));
        out.push(Guard::new(
            format!("{tag}: median drop >= 30%"),
            p.median_drop >= 0.30,
            format!("median drop {:.1}%", 100.0 * p.median_drop),
        ));
    }
    out
}

pub fn run(quick: bool) -> ExpReport {
    // `(count, m, n, exact)`. The full run adds a second, larger family
    // to show the effect is not shape-bound. That family has
    // tolerance-level objective ties, so warm and cold may stop at
    // different optimal bases: it is held to a 1e-12 relative gap instead
    // of bitwise equality (`exact = false`).
    let shapes: &[(usize, usize, usize, bool)] = if quick {
        &[(32, 20, 28, true)]
    } else {
        &[(32, 20, 28, true), (32, 40, 56, false)]
    };

    let mut t = Table::new(vec![
        "family",
        "backend",
        "jobs",
        "hit-rate",
        "cold-iters",
        "warm-iters",
        "median-saved",
        "median-drop",
        "cold-sim",
        "warm-sim",
        "sim-speedup",
        "bitwise",
        "max-rel",
        "all-solved",
    ]);

    let mut points: Vec<(String, bool, BackendPoint)> = Vec::new();
    for &(count, m, n, exact) in shapes {
        let family = generator::perturbed_family(count, m, n, 77, 1e-3);
        let family_tag = format!("{count}x({m}x{n})");
        for kind in backends() {
            let p = measure_backend(&family, &kind);
            t.push(vec![
                family_tag.clone(),
                p.backend.to_string(),
                p.jobs.to_string(),
                format!("{:.3}", p.hit_rate),
                p.cold_iters.to_string(),
                p.warm_iters.to_string(),
                format!("{:.1}", p.median_saved),
                format!("{:.1}%", 100.0 * p.median_drop),
                fmt_secs(p.cold_sim),
                fmt_secs(p.warm_sim),
                format!("{:.3}", p.sim_speedup()),
                p.bitwise_equal.to_string(),
                format!("{:.1e}", p.max_rel_diff),
                p.all_solved.to_string(),
            ]);
            points.push((family_tag.clone(), exact, p));
        }
    }

    ExpReport {
        id: "w1",
        guards: guards(&points),
        tables: vec![(
            "W1: warm-start basis cache — family hit rate, iteration reduction, and \
             sim-time speedup warm vs cold (dense perturbed families, f64)"
                .into(),
            "w1_warm_cache".into(),
            t,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    #[test]
    fn median_handles_odd_even_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quick_family_meets_the_guardrail() {
        let family = generator::perturbed_family(8, 10, 14, 77, 1e-3);
        let p = measure_backend(&family, &BackendKind::CpuDense);
        let failed = failed_names(guards(&[("8x(10x14)".to_string(), true, p)]));
        assert!(failed.is_empty(), "{failed:?}");
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        let healthy = || BackendPoint {
            backend: "cpu-dense",
            jobs: 32,
            hit_rate: 0.97,
            cold_iters: 640,
            warm_iters: 100,
            median_saved: 17.0,
            median_drop: 0.85,
            cold_sim: 2.0,
            warm_sim: 1.0,
            bitwise_equal: true,
            max_rel_diff: 0.0,
            all_solved: true,
        };
        let failed = |exact: bool, p: BackendPoint| {
            failed_names(guards(&[("32x(20x28)".to_string(), exact, p)]))
        };
        assert!(failed(true, healthy()).is_empty());

        let mut p = healthy();
        p.all_solved = false;
        assert_eq!(failed(true, p), ["32x(20x28) on cpu-dense: all solved"]);

        let mut p = healthy();
        p.bitwise_equal = false;
        p.max_rel_diff = 5e-16;
        assert_eq!(
            failed(true, p),
            ["32x(20x28) on cpu-dense: warm/cold bitwise"]
        );

        // A family with ties tolerates a last-bit gap, not a material one.
        let mut p = healthy();
        p.bitwise_equal = false;
        p.max_rel_diff = 5e-16;
        assert!(failed(false, p).is_empty());
        let mut p = healthy();
        p.bitwise_equal = false;
        p.max_rel_diff = 1e-9;
        assert_eq!(
            failed(false, p),
            ["32x(20x28) on cpu-dense: warm/cold rel diff <= 1e-12"]
        );

        let mut p = healthy();
        p.hit_rate = 0.5;
        assert_eq!(failed(true, p), ["32x(20x28) on cpu-dense: hit rate > 0.5"]);

        let mut p = healthy();
        p.median_saved = 0.0;
        assert_eq!(
            failed(true, p),
            ["32x(20x28) on cpu-dense: median saved > 0"]
        );

        let mut p = healthy();
        p.median_drop = 0.29;
        assert_eq!(
            failed(true, p),
            ["32x(20x28) on cpu-dense: median drop >= 30%"]
        );
    }
}
