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
//! The experiment's guards assert the headline on those rows: eta cheaper
//! per iteration at m ≥ 1024, chains capped by the refactor period, the
//! pool recycling, and perturbation no worse than Bland on the degenerate
//! suite.

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

use super::{ExpReport, Guard};

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

/// Size from which the eta path must beat the explicit update per pivot.
const GUARD_M: usize = 1024;

/// U1a: eta chains capped by the refactor period and, at m ≥ 1024, the
/// eta path cheaper per pivot; U1b: the device pool recycles; U1c: every
/// fixture optimal and correct, perturbation needing no more iterations
/// than Bland.
fn guards(
    cost: &[(usize, usize, CostRow, CostRow)],
    chain: &[(usize, CostRow)],
    degen: &[DegenRow],
    refactor_period: usize,
) -> Vec<Guard> {
    let mut out = Vec::new();
    for (m, _, ex, pf) in cost {
        out.push(Guard::new(
            format!("m={m}: eta chain <= refactor period"),
            pf.max_eta_chain <= refactor_period,
            format!("chain {} vs period {refactor_period}", pf.max_eta_chain),
        ));
        if *m >= GUARD_M {
            let ratio = pf.ns_per_iter / ex.ns_per_iter;
            out.push(Guard::new(
                format!("m={m}: eta/explicit < 1"),
                ratio < 1.0,
                format!("ratio {ratio:.3}"),
            ));
        }
    }
    let recycles: u64 = chain.iter().map(|(_, r)| r.pool_recycles).sum();
    out.push(Guard::new(
        "eta pool recycles > 0",
        recycles > 0,
        format!("{recycles} recycles"),
    ));
    for d in degen {
        out.push(Guard::new(
            format!("{}: optimal and objective ok", d.fixture),
            d.both_optimal && d.objective_ok,
            format!(
                "optimal {}, objective ok {}",
                d.both_optimal, d.objective_ok
            ),
        ));
        out.push(Guard::new(
            format!("{}: perturb iters <= bland iters", d.fixture),
            d.perturb_iters <= d.bland_iters,
            format!("perturb {} vs bland {}", d.perturb_iters, d.bland_iters),
        ));
    }
    out
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
    let mut cost: Vec<(usize, usize, CostRow, CostRow)> = Vec::new();
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
        cost.push((m, n, ex, pf));
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
    let mut chain: Vec<(usize, CostRow)> = Vec::new();
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
        chain.push((rp, r));
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

    ExpReport {
        id: "u1",
        guards: guards(&cost, &chain, &degen, refactor_period),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::failed_names;

    fn cost_row(ns_per_iter: f64, max_eta_chain: usize, pool_recycles: u64) -> CostRow {
        CostRow {
            status: Status::Optimal,
            iters: 24,
            ns_per_iter,
            pricing_ns: 0.0,
            ftran_ns: 0.0,
            update_ns: 0.0,
            z_std: 0.0,
            max_eta_chain,
            eta_pivots: 0,
            pool_allocs: 0,
            pool_recycles,
        }
    }

    fn degen_row(perturb_iters: usize, objective_ok: bool) -> DegenRow {
        DegenRow {
            fixture: "beale-cycling",
            bland_iters: 6,
            perturb_iters,
            perturbations: 1,
            both_optimal: true,
            objective_ok,
        }
    }

    fn failed(
        cost: &[(usize, usize, CostRow, CostRow)],
        chain: &[(usize, CostRow)],
        degen: &[DegenRow],
    ) -> Vec<String> {
        failed_names(guards(cost, chain, degen, 16))
    }

    #[test]
    fn guards_fail_on_each_synthetic_regression() {
        let cost = |eta_ns: f64, chain: usize| {
            vec![(1024, 512, cost_row(100.0, 0, 0), cost_row(eta_ns, chain, 0))]
        };
        let chain = |recycles: u64| vec![(4, cost_row(1.0, 4, recycles))];
        let degen = |iters: usize, ok: bool| vec![degen_row(iters, ok)];
        assert!(failed(&cost(50.0, 16), &chain(3), &degen(6, true)).is_empty());

        assert_eq!(
            failed(&cost(50.0, 17), &chain(3), &degen(6, true)),
            ["m=1024: eta chain <= refactor period"]
        );
        assert_eq!(
            failed(&cost(100.0, 16), &chain(3), &degen(6, true)),
            ["m=1024: eta/explicit < 1"]
        );
        assert_eq!(
            failed(&cost(50.0, 16), &chain(0), &degen(6, true)),
            ["eta pool recycles > 0"]
        );
        assert_eq!(
            failed(&cost(50.0, 16), &chain(3), &degen(6, false)),
            ["beale-cycling: optimal and objective ok"]
        );
        assert_eq!(
            failed(&cost(50.0, 16), &chain(3), &degen(7, true)),
            ["beale-cycling: perturb iters <= bland iters"]
        );
    }
}
