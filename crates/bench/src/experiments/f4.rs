//! F4: coalescing/layout ablation — the same solver with (a) the paper's
//! col-major + two-pass transposed gemv, (b) col-major + naive (uncoalesced
//! pricing), (c) row-major + naive (uncoalesced everything else).
//!
//! A second table puts FTRAN's launch geometry beside it: the modeled
//! kernel-body time of `gemv_n` on an `m × m` f32 col-major `B⁻¹` with one
//! thread per row against the split-K strip count the device derives. Its
//! guard fails the run if FTRAN falls back to an occupancy-starved launch.

use crate::measure::{run_model, GpuConfig, Target};
use crate::table::{fmt_secs, Table};
use crate::workload::{coalesce_grid, paper_options_for};
use gpu_sim::{DeviceSpec, Gpu, Launcher, TimeCategory};
use linalg::gpu::{gemv_n_split_on, gemv_n_strips, DeviceMatrix, GemvTStrategy, Layout};
use linalg::DenseMatrix;
use lp::generator;

use super::{ExpReport, Guard};

fn variants() -> Vec<(&'static str, GpuConfig)> {
    let spec = DeviceSpec::gtx280();
    vec![
        (
            "col-major + two-pass (paper)",
            GpuConfig {
                spec: spec.clone(),
                layout: Layout::ColMajor,
                strategy: GemvTStrategy::TwoPass,
            },
        ),
        (
            "col-major + naive gemv_t",
            GpuConfig {
                spec: spec.clone(),
                layout: Layout::ColMajor,
                strategy: GemvTStrategy::Naive,
            },
        ),
        (
            "row-major + naive gemv_t",
            GpuConfig {
                spec,
                layout: Layout::RowMajor,
                strategy: GemvTStrategy::Naive,
            },
        ),
    ]
}

pub fn run(quick: bool) -> ExpReport {
    let mut t = Table::new(vec![
        "m=n",
        "variant",
        "iters",
        "gpu-time",
        "time/iter",
        "vs-paper",
    ]);
    for m in coalesce_grid(quick) {
        let opts = paper_options_for(m);
        let model = generator::dense_random(m, m, 1);
        let mut baseline_per_iter = None;
        for (name, cfg) in variants() {
            let r = run_model::<f32>(&model, &Target::Gpu(cfg), &opts);
            let per_iter = r.sim_seconds / r.iterations.max(1) as f64;
            let base = *baseline_per_iter.get_or_insert(per_iter);
            t.push(vec![
                m.to_string(),
                name.to_string(),
                r.iterations.to_string(),
                fmt_secs(r.sim_seconds),
                fmt_secs(per_iter),
                format!("{:.2}x", per_iter / base),
            ]);
        }
    }
    let rows: Vec<GeometryRow> = FTRAN_GRID.iter().map(|&m| ftran_geometry(m)).collect();
    let mut g = Table::new(vec![
        "m=n",
        "strips",
        "thread-per-row",
        "split-K",
        "split/row",
    ]);
    for r in &rows {
        g.push(vec![
            r.m.to_string(),
            r.strips.to_string(),
            format!("{:.1} µs", r.row_us),
            format!("{:.1} µs", r.split_us),
            format!("{:.3}", r.split_us / r.row_us),
        ]);
    }
    ExpReport {
        id: "f4",
        guards: guards(&rows),
        tables: vec![
            (
                "F4: memory-layout / coalescing ablation (simulated GTX 280, f32)".into(),
                "f4_coalescing".into(),
                t,
            ),
            (
                "F4b: FTRAN gemv_n geometry — modeled kernel-body time per call \
                 (simulated GTX 280, f32, col-major)"
                    .into(),
                "f4_ftran_geometry".into(),
                g,
            ),
        ],
    }
}

/// Basis sizes of the geometry table; cheap (two launches per size), so
/// the quick grid is the full grid.
const FTRAN_GRID: [usize; 3] = [448, 1024, 2048];

/// The guarded size (`dense-paper`'s basis) and the bound on its ratio.
const GUARD_M: usize = 448;
const GUARD_RATIO: f64 = 0.35;

/// One row of the FTRAN geometry table.
struct GeometryRow {
    m: usize,
    strips: usize,
    row_us: f64,
    split_us: f64,
}

/// Modeled kernel-body µs of one `gemv_n` on an `m × m` f32 col-major
/// matrix with `strips` strips, read off the device's clock.
fn gemv_n_body_us(m: usize, strips: usize) -> f64 {
    let g = Gpu::new(DeviceSpec::gtx280());
    let a = DeviceMatrix::upload(&g, &DenseMatrix::<f32>::zeros(m, m), Layout::ColMajor)
        .expect("basis fits the device");
    let x = g.htod(&vec![1.0f32; m]);
    let mut y = g.alloc(m, 0.0f32);
    g.reset_counters();
    gemv_n_split_on(
        &mut Launcher::Direct(&g),
        strips,
        1.0,
        &a,
        x.view(),
        0.0,
        y.view_mut(),
    )
    .expect("fault-free device");
    g.counters()
        .breakdown
        .get(TimeCategory::KernelBody)
        .as_micros()
}

fn ftran_geometry(m: usize) -> GeometryRow {
    let strips = gemv_n_strips::<f32>(&DeviceSpec::gtx280(), Layout::ColMajor, m, m);
    GeometryRow {
        m,
        strips,
        row_us: gemv_n_body_us(m, 1),
        split_us: gemv_n_body_us(m, strips),
    }
}

/// FTRAN at `GUARD_M` takes at most `GUARD_RATIO` of the thread-per-row
/// kernel-body time.
fn guards(rows: &[GeometryRow]) -> Vec<Guard> {
    let name = format!("m={GUARD_M}: split-K FTRAN ≤ {GUARD_RATIO} × thread-per-row");
    vec![match rows.iter().find(|r| r.m == GUARD_M) {
        Some(r) => Guard::new(
            name,
            r.split_us <= GUARD_RATIO * r.row_us,
            format!(
                "{} strips {:.1} µs vs thread-per-row {:.1} µs",
                r.strips, r.split_us, r.row_us
            ),
        ),
        None => Guard::new(name, false, format!("grid lost its m={GUARD_M} row")),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    #[test]
    fn guard_fails_on_occupancy_starved_ftran() {
        let row = |strips, split_us| GeometryRow {
            m: GUARD_M,
            strips,
            row_us: 178.0,
            split_us,
        };
        assert_eq!(
            failed_names(guards(&[row(1, 178.0)])),
            [format!(
                "m={GUARD_M}: split-K FTRAN ≤ {GUARD_RATIO} × thread-per-row"
            )]
        );
        assert!(failed_names(guards(&[row(32, 19.0)])).is_empty());
        assert_eq!(failed_names(guards(&[])).len(), 1);
        // The live geometry passes.
        assert!(failed_names(guards(&[ftran_geometry(GUARD_M)])).is_empty());
    }
}
