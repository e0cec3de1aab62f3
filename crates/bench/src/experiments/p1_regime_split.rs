//! P1 (extension): the algorithm regime split — revised simplex vs
//! restarted-Halpern PDHG across the m × density plane, on every backend.
//!
//! The simplex method pays O(m²) dense basis kernels per pivot but needs
//! only a polynomial-in-m number of pivots; restarted PDHG pays O(nnz) per
//! iteration but needs thousands of iterations to reach 1e-8 residuals.
//! That trade has a crossover, and it is the whole reason a first-order
//! family earns a place next to the simplex family:
//!
//! * **small/dense** — the basis kernels are cheap and pivot counts tiny,
//!   so simplex wins modeled solve time on every backend (PDHG caps out
//!   at its iteration budget on the dense corner without even reaching
//!   1e-8 residuals — which is the point);
//! * **large/sparse** — per-pivot cost grows like m² while PDHG's
//!   per-iteration cost grows like nnz ≈ density·m·n, so the first-order
//!   method wins the corner on every backend whose operator products are
//!   sparse (cpu-sparse, gpu-dense). The cpu-dense rows double as the
//!   operator ablation: PDHG through a dense gemv never crosses over,
//!   so the win is the sparse kernels', not the algorithm's alone.
//!
//! Both solvers run the *same* full pipeline (presolve → standardize →
//! scale → recover) and must agree on the objective — a grid point where
//! they diverge beyond tolerance voids the time comparison, so the row
//! records the relative gap and a guard pins it.
//!
//! The experiment's guards assert the headline on its rows: PDHG beats
//! simplex on the largest-sparsest corner through sparse operators, loses
//! the smallest-densest corner, and the objectives agree.

use gplex::pdhg::PdhgOptions;
use gplex::{BackendKind, SolveRequest, SolverOptions, Status};
use gpu_sim::DeviceSpec;
use lp::generator;

use crate::table::Table;

use super::{ExpReport, Guard};

/// One algorithm's run at one grid point on one backend.
struct AlgoRow {
    status: Status,
    /// Simplex pivots or PDHG iterations, whichever the solver counted.
    iters: u64,
    restarts: u64,
    sim_s: f64,
    objective: f64,
}

/// One (m, density, backend) grid point: both algorithms on one model.
struct Point {
    m: usize,
    density: f64,
    backend: &'static str,
    simplex: AlgoRow,
    pdhg: AlgoRow,
    rel_gap: f64,
}

fn backends() -> Vec<(&'static str, BackendKind)> {
    vec![
        ("cpu-dense", BackendKind::CpuDense),
        ("cpu-sparse", BackendKind::CpuSparse),
        ("gpu-dense", BackendKind::GpuDense(DeviceSpec::gtx280())),
    ]
}

impl Point {
    fn ratio(&self) -> f64 {
        self.pdhg.sim_s / self.simplex.sim_s
    }
}

/// The two `(m, density)` grid points the regime claim is about.
struct Corners {
    small_dense: (usize, f64),
    large_sparse: (usize, f64),
}

/// Backends whose PDHG operator products are sparse: they must win the
/// large/sparse corner. `cpu-dense` is the dense-gemv ablation.
const SPARSE_OPERATOR: [&str; 2] = ["cpu-sparse", "gpu-dense"];

/// Per row: PDHG agrees with simplex (rel gap ≤ 1e-6 when PDHG converged,
/// ≤ 5e-3 always). At the large/sparse corner the sparse-operator
/// backends converge and win while the dense-gemv ablation still loses;
/// at the small/dense corner simplex wins everywhere; all 6 corner rows
/// are present.
fn guards(points: &[Point], corners: &Corners) -> Vec<Guard> {
    let mut out = Vec::new();
    let mut seen: Vec<(&str, &str)> = Vec::new();
    for p in points {
        let tag = format!("m={} d={} {}", p.m, p.density, p.backend);
        let gap = format!("rel gap {:.3e}", p.rel_gap);
        if p.pdhg.status == Status::Optimal {
            out.push(Guard::new(
                format!("{tag}: optimal rel gap <= 1e-6"),
                p.rel_gap <= 1e-6,
                gap.clone(),
            ));
        }
        out.push(Guard::new(
            format!("{tag}: rel gap <= 5e-3"),
            p.rel_gap <= 5e-3,
            gap,
        ));
        let ratio = format!("pdhg/simplex {:.3}", p.ratio());
        if (p.m, p.density) == corners.large_sparse {
            seen.push(("large/sparse", p.backend));
            if SPARSE_OPERATOR.contains(&p.backend) {
                out.push(Guard::new(
                    format!("{tag}: pdhg optimal"),
                    p.pdhg.status == Status::Optimal,
                    format!("pdhg {}", p.pdhg.status.tag()),
                ));
                out.push(Guard::new(
                    format!("{tag}: pdhg/simplex < 1"),
                    p.ratio() < 1.0,
                    ratio,
                ));
            } else {
                out.push(Guard::new(
                    format!("{tag}: dense-gemv ablation pdhg/simplex > 1"),
                    p.ratio() > 1.0,
                    ratio,
                ));
            }
        } else if (p.m, p.density) == corners.small_dense {
            seen.push(("small/dense", p.backend));
            out.push(Guard::new(
                format!("{tag}: pdhg/simplex > 1"),
                p.ratio() > 1.0,
                ratio,
            ));
        }
    }
    let missing: Vec<String> = ["small/dense", "large/sparse"]
        .into_iter()
        .flat_map(|corner| backends().into_iter().map(move |(b, _)| (corner, b)))
        .filter(|key| !seen.contains(key))
        .map(|(corner, b)| format!("{corner} {b}"))
        .collect();
    let detail = if missing.is_empty() {
        "6 of 6".to_string()
    } else {
        format!("missing {}", missing.join(", "))
    };
    out.push(Guard::new(
        "all 6 corner rows present",
        missing.is_empty(),
        detail,
    ));
    out
}

pub fn run(quick: bool) -> ExpReport {
    // The grid spans both regimes; quick mode keeps the two corner points
    // the guards pin (smallest-densest and largest-sparsest).
    let sizes: &[usize] = if quick { &[64, 512] } else { &[64, 256, 512] };
    let densities: &[f64] = &[0.30, 0.005];
    // One shared iteration budget bounds the dense-corner rows, where PDHG
    // is not going to converge at any affordable budget; the sparse column
    // finishes well inside it.
    let popts = PdhgOptions {
        max_iterations: Some(40_000),
        ..Default::default()
    };

    let mut table = Table::new(vec![
        "m",
        "n",
        "density",
        "backend",
        "algo",
        "status",
        "iters",
        "restarts",
        "sim-ms",
        "objective",
        "pdhg/simplex",
        "rel-gap",
    ]);
    let mut points: Vec<Point> = Vec::new();
    for &m in sizes {
        for &density in densities {
            let n = m;
            let model = generator::sparse_random(m, n, density, 41);
            for (label, kind) in backends() {
                let sx = {
                    let sol = SolveRequest::model(&model, &SolverOptions::default())
                        .on(&kind)
                        .run::<f64>()
                        .expect("simplex grid solve succeeds");
                    AlgoRow {
                        status: sol.status,
                        iters: sol.stats.iterations as u64,
                        restarts: 0,
                        sim_s: sol.stats.total_time().as_secs_f64(),
                        objective: sol.objective,
                    }
                };
                let fo = {
                    let sol = SolveRequest::model(&model, &popts)
                        .on(&kind)
                        .run::<f64>()
                        .expect("pdhg grid solve succeeds");
                    AlgoRow {
                        status: sol.status,
                        iters: sol.stats.pdhg_iterations,
                        restarts: sol.stats.restarts,
                        sim_s: sol.stats.total_time().as_secs_f64(),
                        objective: sol.objective,
                    }
                };
                let rel_gap = (sx.objective - fo.objective).abs() / sx.objective.abs().max(1.0);
                let ratio = fo.sim_s / sx.sim_s;
                for (algo, r) in [("simplex", &sx), ("pdhg", &fo)] {
                    table.push(vec![
                        m.to_string(),
                        n.to_string(),
                        format!("{density}"),
                        label.to_string(),
                        algo.to_string(),
                        r.status.tag().to_string(),
                        r.iters.to_string(),
                        r.restarts.to_string(),
                        format!("{:.3}", r.sim_s * 1e3),
                        format!("{:.6}", r.objective),
                        format!("{ratio:.3}"),
                        format!("{rel_gap:.3e}"),
                    ]);
                }
                points.push(Point {
                    m,
                    density,
                    backend: label,
                    simplex: sx,
                    pdhg: fo,
                    rel_gap,
                });
            }
        }
    }

    let densest = densities.iter().cloned().fold(f64::MIN, f64::max);
    let sparsest = densities.iter().cloned().fold(f64::MAX, f64::min);
    let corners = Corners {
        small_dense: (sizes[0], densest),
        large_sparse: (sizes[sizes.len() - 1], sparsest),
    };

    ExpReport {
        id: "p1",
        guards: guards(&points, &corners),
        tables: vec![(
            "P1: algorithm regime split — simplex vs restarted PDHG over m × density (f64)".into(),
            "p1_regime_split".into(),
            table,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    fn algo(status: Status, sim_s: f64) -> AlgoRow {
        AlgoRow {
            status,
            iters: 10,
            restarts: 0,
            sim_s,
            objective: 1.0,
        }
    }

    /// A grid row whose PDHG run takes `ratio` times the simplex time.
    fn point(corner: (usize, f64), backend: &'static str, ratio: f64) -> Point {
        Point {
            m: corner.0,
            density: corner.1,
            backend,
            simplex: algo(Status::Optimal, 1.0),
            pdhg: algo(Status::Optimal, ratio),
            rel_gap: 1e-9,
        }
    }

    const CORNERS: Corners = Corners {
        small_dense: (64, 0.30),
        large_sparse: (512, 0.005),
    };

    /// The six corner rows of a healthy grid.
    fn healthy() -> Vec<Point> {
        let mut rows = Vec::new();
        for backend in ["cpu-dense", "cpu-sparse", "gpu-dense"] {
            rows.push(point(CORNERS.small_dense, backend, 20.0));
            let ratio = if backend == "cpu-dense" { 3.0 } else { 0.5 };
            rows.push(point(CORNERS.large_sparse, backend, ratio));
        }
        rows
    }

    fn failed(rows: &[Point]) -> Vec<String> {
        failed_names(guards(rows, &CORNERS))
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        assert!(failed(&healthy()).is_empty());

        let mut rows = healthy();
        rows[1].rel_gap = 2e-6;
        assert_eq!(
            failed(&rows),
            ["m=512 d=0.005 cpu-dense: optimal rel gap <= 1e-6"]
        );

        let mut rows = healthy();
        rows[0].pdhg.status = Status::IterationLimit;
        rows[0].rel_gap = 6e-3;
        assert_eq!(failed(&rows), ["m=64 d=0.3 cpu-dense: rel gap <= 5e-3"]);

        let mut rows = healthy();
        rows[3].pdhg.status = Status::IterationLimit;
        assert_eq!(failed(&rows), ["m=512 d=0.005 cpu-sparse: pdhg optimal"]);

        let mut rows = healthy();
        rows[5].pdhg.sim_s = 1.0;
        assert_eq!(failed(&rows), ["m=512 d=0.005 gpu-dense: pdhg/simplex < 1"]);

        let mut rows = healthy();
        rows[1].pdhg.sim_s = 1.0;
        assert_eq!(
            failed(&rows),
            ["m=512 d=0.005 cpu-dense: dense-gemv ablation pdhg/simplex > 1"]
        );

        let mut rows = healthy();
        rows[2].pdhg.sim_s = 1.0;
        assert_eq!(failed(&rows), ["m=64 d=0.3 cpu-sparse: pdhg/simplex > 1"]);

        let mut rows = healthy();
        rows.pop();
        assert_eq!(failed(&rows), ["all 6 corner rows present"]);
        // A duplicate row does not stand in for a missing backend.
        let mut rows = healthy();
        rows[5] = point(CORNERS.large_sparse, "cpu-sparse", 0.5);
        assert_eq!(failed(&rows), ["all 6 corner rows present"]);
    }
}
