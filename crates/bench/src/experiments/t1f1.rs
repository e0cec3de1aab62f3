//! T1 (solve-time table) and F1 (speedup-vs-size curve) — the headline
//! reproduction: dense random LPs, CPU revised simplex vs GPU revised
//! simplex, single precision, square sizes up to 2048.

use crate::measure::{run_model, Measurement, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::{dense_grid, paper_options_for, seeds};
use gplex::Status;
use lp::generator;

use super::ExpReport;

struct SizePoint {
    m: usize,
    seeds: usize,
    iters: f64,
    cpu_sim: f64,
    gpu_sim: f64,
    cpu_wall: f64,
    gpu_wall: f64,
    obj_rel_diff: f64,
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn measure_size(m: usize, quick: bool) -> SizePoint {
    let opts = paper_options_for(m);
    let mut cpu_runs: Vec<Measurement> = Vec::new();
    let mut gpu_runs: Vec<Measurement> = Vec::new();
    for seed in seeds(quick, m) {
        let model = generator::dense_random(m, m, seed);
        let c = run_model::<f32>(&model, &Target::cpu(), &opts);
        let g = run_model::<f32>(&model, &Target::gpu(), &opts);
        assert_eq!(
            c.status,
            Status::Optimal,
            "cpu m={m} seed={seed}: {:?}",
            c.status
        );
        assert_eq!(
            g.status,
            Status::Optimal,
            "gpu m={m} seed={seed}: {:?}",
            g.status
        );
        cpu_runs.push(c);
        gpu_runs.push(g);
    }
    let obj_rel_diff = cpu_runs
        .iter()
        .zip(&gpu_runs)
        .map(|(c, g)| (c.objective - g.objective).abs() / c.objective.abs().max(1.0))
        .fold(0.0f64, f64::max);
    SizePoint {
        m,
        seeds: cpu_runs.len(),
        iters: mean(
            &gpu_runs
                .iter()
                .map(|r| r.iterations as f64)
                .collect::<Vec<_>>(),
        ),
        cpu_sim: mean(&cpu_runs.iter().map(|r| r.sim_seconds).collect::<Vec<_>>()),
        gpu_sim: mean(&gpu_runs.iter().map(|r| r.sim_seconds).collect::<Vec<_>>()),
        cpu_wall: mean(&cpu_runs.iter().map(|r| r.wall_seconds).collect::<Vec<_>>()),
        gpu_wall: mean(&gpu_runs.iter().map(|r| r.wall_seconds).collect::<Vec<_>>()),
        obj_rel_diff,
    }
}

/// T1b: revised vs full-tableau on the GPU at fixed m, growing n — the
/// regime ("fewer constraints than variables") where the revised method's
/// O(m²) basis-inverse update beats the tableau's O(m·n) elimination.
fn tableau_series(quick: bool) -> Table {
    use gplex::tableau_gpu::solve_standard_gpu;
    use gpu_sim::{DeviceSpec, Gpu};
    use lp::StandardForm;

    use gplex::PivotRule;

    let (m, ns): (usize, Vec<usize>) = if quick {
        (64, vec![64, 256])
    } else {
        (256, vec![256, 512, 1024, 2048, 4096])
    };
    let mut t = Table::new(vec![
        "m",
        "n",
        "rev-iters",
        "rev-time/iter",
        "rev-partial/iter",
        "tab-iters",
        "tab-time/iter",
        "tab-vs-rev",
        "tab-vs-partial",
    ]);
    for &n in &ns {
        let opts = crate::workload::paper_options_for(m);
        let model = generator::dense_random(m, n, 1);
        let rev = run_model::<f32>(&model, &Target::gpu(), &opts);
        assert_eq!(rev.status, Status::Optimal, "revised m={m} n={n}");
        let rev_per_iter = rev.sim_seconds / rev.iterations.max(1) as f64;

        // Partial pricing: window ≈ 2m keeps the per-iteration pricing
        // O(m²)-shaped, matching the update cost.
        let popts = gplex::SolverOptions {
            pivot_rule: PivotRule::PartialDantzig { window: 2 * m },
            ..opts.clone()
        };
        let part = run_model::<f32>(&model, &Target::gpu(), &popts);
        assert_eq!(part.status, Status::Optimal, "partial m={m} n={n}");
        let part_per_iter = part.sim_seconds / part.iterations.max(1) as f64;

        let sf = StandardForm::<f32>::from_lp(&model).expect("standardizes");
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let (tab, t_tab) = solve_standard_gpu(&gpu, &sf, &opts);
        assert_eq!(tab.status, Status::Optimal, "tableau m={m} n={n}");
        let tab_per_iter = t_tab.as_secs_f64() / tab.iterations.max(1) as f64;

        t.push(vec![
            m.to_string(),
            n.to_string(),
            rev.iterations.to_string(),
            fmt_secs(rev_per_iter),
            fmt_secs(part_per_iter),
            tab.iterations.to_string(),
            fmt_secs(tab_per_iter),
            format!("{:.2}x", tab_per_iter / rev_per_iter),
            format!("{:.2}x", tab_per_iter / part_per_iter),
        ]);
    }
    t
}

/// T1b as a standalone experiment (avoids re-running the T1 grid).
pub fn run_t1b(quick: bool) -> ExpReport {
    ExpReport {
        id: "t1b",
        guards: Vec::new(),
        tables: vec![(
            "T1b: revised vs full-tableau on GPU, fixed m, growing n (f32)".into(),
            "t1b_revised_vs_tableau".into(),
            tableau_series(quick),
        )],
    }
}

pub fn run(f1: bool, quick: bool) -> ExpReport {
    let points: Vec<SizePoint> = dense_grid(quick)
        .into_iter()
        .map(|m| measure_size(m, quick))
        .collect();

    let mut t1 = Table::new(vec![
        "m=n",
        "seeds",
        "iters",
        "cpu-time",
        "gpu-time",
        "speedup",
        "obj-rel-diff",
        "cpu-wall",
        "gpu-wall",
    ]);
    let mut f1t = Table::new(vec!["m=n", "speedup"]);
    for p in &points {
        let speedup = p.cpu_sim / p.gpu_sim;
        t1.push(vec![
            p.m.to_string(),
            p.seeds.to_string(),
            format!("{:.0}", p.iters),
            fmt_secs(p.cpu_sim),
            fmt_secs(p.gpu_sim),
            format!("{speedup:.2}"),
            format!("{:.1e}", p.obj_rel_diff),
            fmt_secs(p.cpu_wall),
            fmt_secs(p.gpu_wall),
        ]);
        f1t.push(vec![p.m.to_string(), format!("{speedup:.3}")]);
    }

    if f1 {
        ExpReport {
            id: "f1",
            guards: Vec::new(),
            tables: vec![(
                "F1: speedup (CPU time / GPU time) vs problem size, dense f32".into(),
                "f1_speedup".into(),
                f1t,
            )],
        }
    } else {
        ExpReport {
            id: "t1",
            guards: Vec::new(),
            tables: vec![
                (
                    "T1: total solve time, CPU vs GPU revised simplex (dense random, f32)".into(),
                    "t1_solve_time".into(),
                    t1,
                ),
                (
                    "F1: speedup vs size (derived)".into(),
                    "f1_speedup".into(),
                    f1t,
                ),
            ],
        }
    }
}
