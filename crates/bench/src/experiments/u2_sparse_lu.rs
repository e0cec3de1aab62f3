//! U2 (extension): sparse-LU basis representation — the m × density sweep
//! against the explicit dense `B⁻¹`.
//!
//! Three questions, three tables:
//!
//! * **U2a — basis-operation cost vs (m, density).** Per pivot, the
//!   explicit representation pays two dense O(m²) kernels (FTRAN gemv +
//!   inverse update); SparseLU pays O(nnz(L+U) + m·k) level-scheduled
//!   triangular solves plus an O(m) eta append. On sparse models the
//!   factors stay near the basis nnz, so the LU path's cost curve detaches
//!   from the dense curve as m grows — the headline crossover is SparseLU
//!   winning the basis-operation cost (FTRAN + update) on every sparse
//!   m ≥ 1024 configuration. Runs share one iteration budget so both
//!   representations price the same workload; reported costs are
//!   per-pivot (reinversion and setup excluded — amortized identically).
//! * **U2b — Markowitz fill-in control vs density.** The threshold-pivot
//!   ordering keeps nnz(L+U) within a small multiple of the basis nnz
//!   instead of the dense m² ceiling; rejections count the stability
//!   overrides. `lu_refactor_nnz` (peak factor size) and `lu_fill_in`
//!   (peak factor growth over the basis) come straight from
//!   `SolveStats`, same counters the metrics registry exports.
//! * **U2c — checkpoint purity.** The eta chain folds into the factors
//!   at every reinversion, so a snapshot is a pure function of the basis:
//!   a solve resumed from a mid-solve checkpoint must replay the tail
//!   pivot-for-pivot and land on bitwise-identical `z` and `x`.
//!
//! The experiment's guards assert the headline on those rows: SparseLU
//! below explicit on the sparse m ≥ 1024 rows, factors bounded well under
//! dense, resume bitwise.

use gplex::backends::GpuDenseBackend;
use gplex::{
    BackendKind, BasisRepresentation, CheckpointSlot, NoopRecorder, RevisedSimplex, SolveRequest,
    SolverOptions, Start, Status, Step,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator;
use lp::StandardForm;

use crate::table::Table;

use super::{ExpReport, Guard};

/// One timed solve on the simulated GPU under a chosen representation,
/// reduced to per-pivot step costs plus the LU counters.
struct RepRow {
    status: Status,
    iters: usize,
    /// FTRAN + update: the two steps the representation actually owns.
    basis_ns: f64,
    ftran_ns: f64,
    update_ns: f64,
    pricing_ns: f64,
    pivot_ns: f64,
    max_eta_chain: usize,
    lu_refactor_nnz: u64,
    z_std: f64,
}

fn timed_solve(sf: &StandardForm<f64>, rep: BasisRepresentation, max_iters: usize) -> RepRow {
    let n_active = sf.num_cols() - sf.num_artificials;
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        basis_representation: rep,
        refactor_period: 16,
        max_iterations: Some(max_iters),
        ..Default::default()
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let mut be = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
    let res = RevisedSimplex::new(
        &mut be,
        sf,
        &opts,
        Start::Cold,
        None,
        None::<&mut NoopRecorder>,
    )
    .solve();
    let iters = res.stats.iterations.max(1);
    let per_iter = |s: Step| res.stats.time(s).as_nanos() / iters as f64;
    let pivot_ns: f64 = [
        Step::Pricing,
        Step::Selection,
        Step::Ftran,
        Step::RatioTest,
        Step::Update,
    ]
    .iter()
    .map(|s| per_iter(*s))
    .sum();
    RepRow {
        status: res.status,
        iters: res.stats.iterations,
        basis_ns: per_iter(Step::Ftran) + per_iter(Step::Update),
        ftran_ns: per_iter(Step::Ftran),
        update_ns: per_iter(Step::Update),
        pricing_ns: per_iter(Step::Pricing),
        pivot_ns,
        max_eta_chain: res.stats.max_eta_chain,
        lu_refactor_nnz: res.stats.lu_refactor_nnz,
        z_std: res.z_std,
    }
}

/// One (m, density) sweep point: both representations on one model.
struct SweepPoint {
    m: usize,
    density: f64,
    explicit: RepRow,
    sparse_lu: RepRow,
}

struct FillRow {
    density: f64,
    iters: usize,
    refactorizations: usize,
    lu_refactor_nnz: u64,
    lu_fill_in: u64,
    markowitz_rejections: u64,
    /// Peak factor nnz over the dense ceiling m².
    dense_fraction: f64,
}

/// Markowitz cap: peak factor nnz as a share of the dense m² ceiling.
const MAX_DENSE_FRACTION: f64 = 0.2;

/// Factors stay under the Markowitz cap on both sweeps; on every sparse
/// (d ≤ 0.05) m ≥ 1024 row, of which there is at least one, SparseLU
/// beats the explicit inverse; the resumed solve is bitwise.
fn guards(sweep: &[SweepPoint], fill: &[FillRow], resume_bitwise: bool) -> Vec<Guard> {
    let mut out = Vec::new();
    let mut big_sparse_rows = 0;
    for p in sweep {
        let tag = format!("m={} d={}", p.m, p.density);
        let nnz = p.sparse_lu.lu_refactor_nnz;
        out.push(Guard::new(
            format!("{tag}: nnz(L+U) <= 0.2 m^2"),
            nnz as f64 <= MAX_DENSE_FRACTION * (p.m * p.m) as f64,
            format!("nnz {nnz}"),
        ));
        if p.m >= 1024 && p.density <= 0.05 {
            big_sparse_rows += 1;
            let ratio = p.sparse_lu.basis_ns / p.explicit.basis_ns;
            out.push(Guard::new(
                format!("{tag}: sparse-lu/explicit < 1"),
                ratio < 1.0,
                format!("ratio {ratio:.3}"),
            ));
        }
    }
    out.push(Guard::new(
        "sweep has a sparse m >= 1024 row",
        big_sparse_rows > 0,
        format!("{big_sparse_rows} rows"),
    ));
    for r in fill {
        out.push(Guard::new(
            format!("fill d={}: nnz(L+U) <= 0.2 m^2", r.density),
            r.dense_fraction <= MAX_DENSE_FRACTION,
            format!("{:.4} of m^2", r.dense_fraction),
        ));
    }
    out.push(Guard::new(
        "resume bitwise",
        resume_bitwise,
        format!("resumed solve bitwise: {resume_bitwise}"),
    ));
    out
}

pub fn run(quick: bool) -> ExpReport {
    // U2a: the crossover sweep. The iteration budget crosses a
    // reinversion boundary (period 16) while keeping the 2048-row dense
    // baselines affordable; quick mode still includes the m = 1024
    // sparse row the guards pin.
    let sizes: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 2048]
    };
    let densities: &[f64] = if quick { &[0.02] } else { &[0.01, 0.05] };
    let max_iters = 24;

    let mut ta = Table::new(vec![
        "m",
        "n",
        "density",
        "rep",
        "status",
        "iters",
        "basis-us/iter",
        "ftran-us",
        "update-us",
        "pricing-us",
        "pivot-us/iter",
        "max-eta",
        "lu-nnz",
        "vs-explicit",
    ]);
    let mut sweep: Vec<SweepPoint> = Vec::new();
    for &m in sizes {
        for &density in densities {
            let n = m / 2;
            let model = generator::sparse_random(m, n, density, 1);
            let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
            let ex = timed_solve(&sf, BasisRepresentation::ExplicitInverse, max_iters);
            let lu = timed_solve(&sf, BasisRepresentation::SparseLU, max_iters);
            for (label, r) in [("explicit", &ex), ("sparse-lu", &lu)] {
                ta.push(vec![
                    m.to_string(),
                    n.to_string(),
                    format!("{density}"),
                    label.to_string(),
                    r.status.tag().to_string(),
                    r.iters.to_string(),
                    format!("{:.2}", r.basis_ns / 1e3),
                    format!("{:.2}", r.ftran_ns / 1e3),
                    format!("{:.2}", r.update_ns / 1e3),
                    format!("{:.2}", r.pricing_ns / 1e3),
                    format!("{:.2}", r.pivot_ns / 1e3),
                    r.max_eta_chain.to_string(),
                    r.lu_refactor_nnz.to_string(),
                    format!("{:.3}", r.basis_ns / ex.basis_ns),
                ]);
            }
            // One iteration budget, one model: a wildly diverging
            // objective would mean the representations priced different
            // workloads and the per-pivot comparison is void.
            let dz = (ex.z_std - lu.z_std).abs() / ex.z_std.abs().max(1.0);
            assert!(
                dz < 1e-6,
                "representations diverged at m={m} d={density}: dz {dz:.2e}"
            );
            sweep.push(SweepPoint {
                m,
                density,
                explicit: ex,
                sparse_lu: lu,
            });
        }
    }

    // U2b: fill-in control. CPU-sparse backend (SparseLU's natural home),
    // density sweep at fixed m, long enough to refactorize repeatedly.
    let fill_m = if quick { 256 } else { 512 };
    let fill_densities: &[f64] = &[0.01, 0.02, 0.05, 0.10];
    let mut tb = Table::new(vec![
        "density",
        "iters",
        "refactors",
        "lu-nnz",
        "fill-in",
        "rejections",
        "nnz/m^2",
    ]);
    let mut fill: Vec<FillRow> = Vec::new();
    for &density in fill_densities {
        let model = generator::sparse_random(fill_m, fill_m / 2, density, 2);
        let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            basis_representation: BasisRepresentation::SparseLU,
            refactor_period: 8,
            max_iterations: Some(96),
            ..Default::default()
        };
        let slot = CheckpointSlot::new();
        let res = SolveRequest::standard(&sf, &opts)
            .on(&BackendKind::CpuSparse)
            .checkpoint(&slot)
            .run()
            .expect("fill sweep solve succeeds");
        let row = FillRow {
            density,
            iters: res.stats.iterations,
            refactorizations: res.stats.refactorizations,
            lu_refactor_nnz: res.stats.lu_refactor_nnz,
            lu_fill_in: res.stats.lu_fill_in,
            markowitz_rejections: res.stats.markowitz_rejections,
            dense_fraction: res.stats.lu_refactor_nnz as f64 / (fill_m * fill_m) as f64,
        };
        tb.push(vec![
            format!("{density}"),
            row.iters.to_string(),
            row.refactorizations.to_string(),
            row.lu_refactor_nnz.to_string(),
            row.lu_fill_in.to_string(),
            row.markowitz_rejections.to_string(),
            format!("{:.4}", row.dense_fraction),
        ]);
        fill.push(row);
    }

    // U2c: checkpoint purity. Snapshot cadence deliberately off the
    // reinversion beat (3 ∤ 7); resumed tail must land bitwise.
    let resume_m = if quick { 96 } else { 192 };
    let resume_bitwise = {
        let model = generator::sparse_random(resume_m, resume_m / 2, 0.05, 3);
        let sf = StandardForm::<f64>::from_lp(&model).expect("bench model standardizes");
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            basis_representation: BasisRepresentation::SparseLU,
            refactor_period: 3,
            checkpoint_interval: 7,
            ..Default::default()
        };
        let kind = BackendKind::CpuSparse;
        let slot = CheckpointSlot::new();
        let solo = SolveRequest::standard(&sf, &opts)
            .on(&kind)
            .checkpoint(&slot)
            .run()
            .expect("uninterrupted solve succeeds");
        match slot.checkpoint() {
            None => false,
            Some(cp) => {
                let slot2 = CheckpointSlot::new();
                let resumed = SolveRequest::standard(&sf, &opts)
                    .on(&kind)
                    .checkpoint(&slot2)
                    .start(Start::Resume(Box::new(cp)))
                    .run()
                    .expect("resumed solve succeeds");
                resumed.status == solo.status
                    && resumed.stats.pivot_fingerprint == solo.stats.pivot_fingerprint
                    && resumed.z_std.to_bits() == solo.z_std.to_bits()
                    && resumed
                        .x_std
                        .iter()
                        .zip(&solo.x_std)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
        }
    };
    let mut tc = Table::new(vec!["m", "density", "resume-bitwise"]);
    tc.push(vec![
        resume_m.to_string(),
        "0.05".to_string(),
        if resume_bitwise { "yes" } else { "NO" }.to_string(),
    ]);

    ExpReport {
        id: "u2",
        guards: guards(&sweep, &fill, resume_bitwise),
        tables: vec![
            (
                "U2a: basis-op cost vs m × density — explicit vs sparse LU (GPU, f64)".into(),
                "u2_crossover".into(),
                ta,
            ),
            (
                format!("U2b: Markowitz fill-in control vs density (cpu-sparse, m={fill_m})"),
                "u2_fill_in".into(),
                tb,
            ),
            (
                "U2c: SparseLU checkpoint purity — resumed solve bitwise vs uninterrupted".into(),
                "u2_resume".into(),
                tc,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    fn rep_row(basis_ns: f64, lu_refactor_nnz: u64) -> RepRow {
        RepRow {
            status: Status::Optimal,
            iters: 24,
            basis_ns,
            ftran_ns: 0.0,
            update_ns: 0.0,
            pricing_ns: 0.0,
            pivot_ns: 0.0,
            max_eta_chain: 0,
            lu_refactor_nnz,
            z_std: 0.0,
        }
    }

    fn point(m: usize, density: f64, lu_ns: f64, lu_nnz: u64) -> SweepPoint {
        SweepPoint {
            m,
            density,
            explicit: rep_row(100.0, 0),
            sparse_lu: rep_row(lu_ns, lu_nnz),
        }
    }

    fn fill_row(dense_fraction: f64) -> FillRow {
        FillRow {
            density: 0.02,
            iters: 96,
            refactorizations: 12,
            lu_refactor_nnz: 0,
            lu_fill_in: 0,
            markowitz_rejections: 0,
            dense_fraction,
        }
    }

    fn failed(sweep: &[SweepPoint], fill: &[FillRow], resume: bool) -> Vec<String> {
        failed_names(guards(sweep, fill, resume))
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        let ok_fill = [fill_row(0.01)];
        assert!(failed(&[point(1024, 0.02, 50.0, 5000)], &ok_fill, true).is_empty());

        assert_eq!(
            failed(&[point(1024, 0.02, 50.0, 300_000)], &ok_fill, true),
            ["m=1024 d=0.02: nnz(L+U) <= 0.2 m^2"]
        );
        assert_eq!(
            failed(&[point(1024, 0.02, 100.0, 5000)], &ok_fill, true),
            ["m=1024 d=0.02: sparse-lu/explicit < 1"]
        );
        assert_eq!(
            failed(&[point(256, 0.02, 50.0, 5000)], &ok_fill, true),
            ["sweep has a sparse m >= 1024 row"]
        );
        assert_eq!(
            failed(&[point(1024, 0.02, 50.0, 5000)], &[fill_row(0.21)], true),
            ["fill d=0.02: nnz(L+U) <= 0.2 m^2"]
        );
        assert_eq!(
            failed(&[point(1024, 0.02, 50.0, 5000)], &ok_fill, false),
            ["resume bitwise"]
        );
    }
}
