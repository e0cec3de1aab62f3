//! U1 (extension): basis-representation ablation — explicit dense `B⁻¹`
//! versus the product-form eta file, plus the degeneracy-policy sweep.
//!
//! Three questions, three tables:
//!
//! * **U1a — iteration cost vs m.** The explicit update kernel rewrites all
//!   of `B⁻¹` every pivot (O(m²)); the product form appends one eta column
//!   (O(m)) and pays O(m) per eta inside FTRAN/BTRAN instead. With the
//!   chain capped by `refactor_period`, the eta path's per-iteration cost
//!   bends below the explicit curve as m grows — per-eta kernel-launch
//!   overhead makes it *lose* at small m, and the crossover is well before
//!   m = 2048 on the paper's card. Runs are capped at a fixed iteration
//!   budget so both representations time the same pivot path; the reported
//!   cost is the steady-state pivot cost (setup transfers and amortized
//!   reinversion excluded — they are representation-independent).
//! * **U1b — eta memory vs refactor period.** Chain length tracks the
//!   reinversion cadence, and the device eta pool recycles buffers across
//!   refactorizations instead of re-allocating (`pool_recycles` counts
//!   climb while `pool_allocs` stay flat at the steady-state chain length).
//! * **U1c — degeneracy policy.** On degenerate/cycling fixtures the
//!   bounded cost perturbation resolves stalls in no more iterations than
//!   the Bland-fallback escalation, without tripping the cycling guard.
//!
//! Alongside the CSVs, the run emits `BENCH_u1.json` so CI can assert the
//! headline (eta cheaper per iteration at m ≥ 1024; perturbation no worse
//! than Bland on the degenerate suite) and track the trend across commits.

use std::fmt::Write as _;

use gplex::backends::GpuDenseBackend;
use gplex::{
    BasisRepresentation, DegeneracyPolicy, NoopRecorder, RevisedSimplex, SolverOptions, Start,
    Status, Step,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator::{self, fixtures};
use lp::{LinearProgram, StandardForm};

use crate::measure::{run_model, Target};
use crate::table::Table;

use super::ExpReport;

/// One timed solve on the simulated GPU with an explicit representation
/// choice; returns per-step simulated times plus the eta/pool counters.
struct CostRow {
    status: Status,
    iters: usize,
    ns_per_iter: f64,
    pricing_ns: f64,
    ftran_ns: f64,
    update_ns: f64,
    z_std: f64,
    max_eta_chain: usize,
    eta_pivots: usize,
    pool_allocs: u64,
    pool_recycles: u64,
}

fn timed_solve(
    model: &LinearProgram,
    rep: BasisRepresentation,
    max_iters: usize,
    refactor_period: usize,
) -> CostRow {
    let sf = StandardForm::<f64>::from_lp(model).expect("bench model standardizes");
    let n_active = sf.num_cols() - sf.num_artificials;
    let opts = SolverOptions {
        presolve: false,
        scale: false,
        basis_representation: rep,
        refactor_period,
        max_iterations: Some(max_iters),
        ..Default::default()
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let mut be = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
    let res = RevisedSimplex::new(
        &mut be,
        &sf,
        &opts,
        Start::Cold,
        None,
        None::<&mut NoopRecorder>,
    )
    .solve();
    let c = gpu.counters();
    let iters = res.stats.iterations.max(1);
    let per_iter = |ns: f64| ns / iters as f64;
    // Steady-state pivot cost: the five per-pivot steps only. Setup
    // transfers and the amortized O(m³) reinversion are identical across
    // representations and would drown the O(m²)-vs-O(m) update delta.
    let pivot_ns: f64 = [
        Step::Pricing,
        Step::Selection,
        Step::Ftran,
        Step::RatioTest,
        Step::Update,
    ]
    .iter()
    .map(|s| res.stats.time(*s).as_nanos())
    .sum();
    CostRow {
        status: res.status,
        iters: res.stats.iterations,
        ns_per_iter: per_iter(pivot_ns),
        pricing_ns: per_iter(res.stats.time(Step::Pricing).as_nanos()),
        ftran_ns: per_iter(res.stats.time(Step::Ftran).as_nanos()),
        update_ns: per_iter(res.stats.time(Step::Update).as_nanos()),
        z_std: res.z_std,
        max_eta_chain: res.stats.max_eta_chain,
        eta_pivots: res.stats.eta_pivots,
        pool_allocs: c.pool_allocs,
        pool_recycles: c.pool_recycles,
    }
}

struct DegenRow {
    fixture: &'static str,
    bland_iters: usize,
    perturb_iters: usize,
    perturbations: usize,
    both_optimal: bool,
    objective_ok: bool,
}

fn degeneracy_sweep(quick: bool) -> Vec<DegenRow> {
    let km_n = if quick { 5 } else { 7 };
    let suite: Vec<(&'static str, LinearProgram, f64)> = vec![
        (
            "degenerate",
            fixtures::degenerate().0,
            fixtures::degenerate().1,
        ),
        (
            "beale-cycling",
            fixtures::beale_cycling().0,
            fixtures::beale_cycling().1,
        ),
        (
            "klee-minty",
            generator::klee_minty(km_n),
            generator::klee_minty_optimum(km_n),
        ),
    ];
    let opts_for = |policy: DegeneracyPolicy| SolverOptions {
        presolve: false,
        scale: false,
        stall_threshold: 2,
        degeneracy: policy,
        ..Default::default()
    };
    suite
        .into_iter()
        .map(|(name, model, expected)| {
            let bland = run_model::<f64>(
                &model,
                &Target::cpu(),
                &opts_for(DegeneracyPolicy::BlandFallback),
            );
            let opts_p = opts_for(DegeneracyPolicy::Perturb { scale: 1e-7 });
            let (pert, pert_res) = crate::measure::run_standard_full::<f64>(
                &StandardForm::<f64>::from_lp(&model).expect("fixture standardizes"),
                &Target::cpu(),
                &opts_p,
            );
            let rel = |z: f64| (z - expected).abs() / expected.abs().max(1.0);
            DegenRow {
                fixture: name,
                bland_iters: bland.iterations,
                perturb_iters: pert.iterations,
                perturbations: pert_res.stats.perturbations,
                both_optimal: bland.status == Status::Optimal && pert.status == Status::Optimal,
                objective_ok: rel(bland.objective) < 1e-6 && rel(pert.objective) < 1e-6,
            }
        })
        .collect()
}

pub fn run(quick: bool) -> ExpReport {
    // U1a: per-iteration cost vs m, both representations on one pivot path.
    // The iteration budget keeps the m = 2048 point affordable while still
    // crossing several reinversion boundaries (refactor period 16).
    let sizes: &[usize] = if quick {
        &[64, 256, 1024]
    } else {
        &[64, 128, 256, 512, 1024, 2048]
    };
    let max_iters = 24;
    let refactor_period = 16;

    let mut ta = Table::new(vec![
        "m",
        "n",
        "rep",
        "status",
        "iters",
        "pivot-us/iter",
        "pricing-us",
        "ftran-us",
        "update-us",
        "max-eta",
        "eta/explicit",
    ]);
    let mut cost_json: Vec<(usize, usize, CostRow, CostRow)> = Vec::new();
    for &m in sizes {
        let n = m / 2;
        let model = generator::dense_random(m, n, 1);
        let ex = timed_solve(
            &model,
            BasisRepresentation::ExplicitInverse,
            max_iters,
            refactor_period,
        );
        let pf = timed_solve(
            &model,
            BasisRepresentation::ProductForm,
            max_iters,
            refactor_period,
        );
        let ratio = pf.ns_per_iter / ex.ns_per_iter;
        for (label, r, ratio_cell) in [
            ("explicit", &ex, "-".to_string()),
            ("eta", &pf, format!("{ratio:.3}")),
        ] {
            ta.push(vec![
                m.to_string(),
                n.to_string(),
                label.to_string(),
                r.status.tag().to_string(),
                r.iters.to_string(),
                format!("{:.2}", r.ns_per_iter / 1e3),
                format!("{:.2}", r.pricing_ns / 1e3),
                format!("{:.2}", r.ftran_ns / 1e3),
                format!("{:.2}", r.update_ns / 1e3),
                r.max_eta_chain.to_string(),
                ratio_cell,
            ]);
        }
        // Same iteration budget must mean the same pivot path: a diverging
        // objective here would invalidate the per-iteration comparison.
        let dz = (ex.z_std - pf.z_std).abs() / ex.z_std.abs().max(1.0);
        assert!(
            ex.iters == pf.iters && dz < 1e-6,
            "representations diverged at m={m}: iters {} vs {}, dz {dz:.2e}",
            ex.iters,
            pf.iters
        );
        cost_json.push((m, n, ex, pf));
    }

    // U1b: eta chain length and device pool behaviour vs refactor period,
    // at a fixed size big enough for several chains per solve.
    let chain_m = if quick { 96 } else { 192 };
    let mut tb = Table::new(vec![
        "refactor-period",
        "iters",
        "eta-pivots",
        "max-eta",
        "us/iter",
        "pool-allocs",
        "pool-recycles",
    ]);
    let chain_model = generator::dense_random(chain_m, chain_m / 2, 2);
    let mut chain_json: Vec<(usize, CostRow)> = Vec::new();
    for &rp in &[4usize, 8, 16, 32] {
        let r = timed_solve(&chain_model, BasisRepresentation::ProductForm, 64, rp);
        tb.push(vec![
            rp.to_string(),
            r.iters.to_string(),
            r.eta_pivots.to_string(),
            r.max_eta_chain.to_string(),
            format!("{:.2}", r.ns_per_iter / 1e3),
            r.pool_allocs.to_string(),
            r.pool_recycles.to_string(),
        ]);
        chain_json.push((rp, r));
    }

    // U1c: degeneracy policies on the stall/cycling suite.
    let degen = degeneracy_sweep(quick);
    let mut tc = Table::new(vec![
        "fixture",
        "bland-iters",
        "perturb-iters",
        "perturbations",
        "both-optimal",
        "objective-ok",
    ]);
    for d in &degen {
        tc.push(vec![
            d.fixture.to_string(),
            d.bland_iters.to_string(),
            d.perturb_iters.to_string(),
            d.perturbations.to_string(),
            if d.both_optimal { "yes" } else { "NO" }.to_string(),
            if d.objective_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }

    write_bench_json(&cost_json, &chain_json, &degen, max_iters, refactor_period);

    ExpReport {
        id: "u1",
        tables: vec![
            (
                "U1a: per-iteration cost vs m — explicit B⁻¹ vs product-form eta (GPU, f64)".into(),
                "u1_iteration_cost".into(),
                ta,
            ),
            (
                format!("U1b: eta chain and device pool vs refactor period (m={chain_m})"),
                "u1_eta_chain".into(),
                tb,
            ),
            (
                "U1c: degeneracy policy — Bland fallback vs bounded perturbation".into(),
                "u1_degeneracy".into(),
                tc,
            ),
        ],
    }
}

/// Hand-rolled JSON (no serde in the tree), written to `BENCH_u1.json` for
/// the CI guardrail and trend tracking.
fn write_bench_json(
    cost: &[(usize, usize, CostRow, CostRow)],
    chain: &[(usize, CostRow)],
    degen: &[DegenRow],
    max_iters: usize,
    refactor_period: usize,
) {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"experiment\": \"u1\",");
    let _ = writeln!(s, "  \"max_iterations\": {max_iters},");
    let _ = writeln!(s, "  \"refactor_period\": {refactor_period},");
    let _ = writeln!(s, "  \"iteration_cost\": [");
    for (i, (m, n, ex, pf)) in cost.iter().enumerate() {
        let comma = if i + 1 < cost.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"m\": {m}, \"n\": {n}, \"iters\": {}, \
             \"explicit_ns_per_iter\": {:.3}, \"eta_ns_per_iter\": {:.3}, \
             \"eta_over_explicit\": {:.6}, \"explicit_update_ns\": {:.3}, \
             \"eta_update_ns\": {:.3}, \"max_eta_chain\": {}}}{comma}",
            ex.iters,
            ex.ns_per_iter,
            pf.ns_per_iter,
            pf.ns_per_iter / ex.ns_per_iter,
            ex.update_ns,
            pf.update_ns,
            pf.max_eta_chain,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"eta_chain\": [");
    for (i, (rp, r)) in chain.iter().enumerate() {
        let comma = if i + 1 < chain.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"refactor_period\": {rp}, \"iters\": {}, \"eta_pivots\": {}, \
             \"max_eta_chain\": {}, \"ns_per_iter\": {:.3}, \
             \"pool_allocs\": {}, \"pool_recycles\": {}}}{comma}",
            r.iters, r.eta_pivots, r.max_eta_chain, r.ns_per_iter, r.pool_allocs, r.pool_recycles,
        );
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"degeneracy\": [");
    for (i, d) in degen.iter().enumerate() {
        let comma = if i + 1 < degen.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"fixture\": \"{}\", \"bland_iters\": {}, \"perturb_iters\": {}, \
             \"perturbations\": {}, \"both_optimal\": {}, \"objective_ok\": {}}}{comma}",
            d.fixture,
            d.bland_iters,
            d.perturb_iters,
            d.perturbations,
            d.both_optimal,
            d.objective_ok,
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    match std::fs::write("BENCH_u1.json", &s) {
        Ok(()) => println!("   -> BENCH_u1.json"),
        Err(e) => eprintln!("   !! could not write BENCH_u1.json: {e}"),
    }
}
