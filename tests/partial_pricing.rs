//! Partial (windowed) pricing: same optimum as full Dantzig on every
//! backend, with O(m·window) pricing instead of O(m·n).

use gplex::{BackendKind, PivotRule, SolveRequest, SolverOptions, Status, Step};
use gpu_sim::DeviceSpec;
use lp::{generator, StandardForm};

fn opts_with(rule: PivotRule) -> SolverOptions {
    SolverOptions {
        pivot_rule: rule,
        presolve: false,
        scale: false,
        ..Default::default()
    }
}

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

#[test]
fn partial_pricing_reaches_the_same_optimum_on_every_backend() {
    for (m, n, seed) in [(16usize, 64usize, 1u64), (24, 96, 2), (12, 30, 3)] {
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let full = SolveRequest::standard(&sf, &opts_with(PivotRule::Dantzig))
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        assert_eq!(full.status, Status::Optimal);
        for window in [1usize, 7, 16, 1000] {
            for kind in backends() {
                let partial =
                    SolveRequest::standard(&sf, &opts_with(PivotRule::PartialDantzig { window }))
                        .on(&kind)
                        .run()
                        .unwrap();
                assert_eq!(partial.status, Status::Optimal, "{kind:?} w={window}");
                assert!(
                    (partial.z_std - full.z_std).abs() / full.z_std.abs().max(1.0) < 1e-9,
                    "{kind:?} w={window}: {} vs {}",
                    partial.z_std,
                    full.z_std
                );
            }
        }
    }
}

#[test]
fn partial_pricing_cuts_modeled_pricing_time_when_columns_dominate() {
    // n ≫ m: full pricing is O(m·n) per iteration, windowed is
    // O(m·w + m²). The effect shows on the CPU model (no launch overhead);
    // on the simulated GPU at *small* sizes the extra kernel launches of a
    // windowed pass outweigh the bandwidth saved — that regime flip is
    // itself asserted below.
    let model = generator::dense_random(48, 1920, 9);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let cpu = BackendKind::CpuDense;

    let full = SolveRequest::standard(&sf, &opts_with(PivotRule::Dantzig))
        .on(&cpu)
        .run()
        .unwrap();
    let partial = SolveRequest::standard(&sf, &opts_with(PivotRule::PartialDantzig { window: 96 }))
        .on(&cpu)
        .run()
        .unwrap();
    assert_eq!(full.status, Status::Optimal);
    assert_eq!(partial.status, Status::Optimal);
    assert!((full.z_std - partial.z_std).abs() / full.z_std.abs().max(1.0) < 1e-9);

    let full_price_per_iter =
        full.stats.time(Step::Pricing).as_nanos() / full.stats.iterations.max(1) as f64;
    let partial_price_per_iter =
        partial.stats.time(Step::Pricing).as_nanos() / partial.stats.iterations.max(1) as f64;
    assert!(
        2.0 * partial_price_per_iter < full_price_per_iter,
        "windowed pricing {partial_price_per_iter} ns/iter should be well under full \
         {full_price_per_iter} ns/iter at n >> m"
    );

    // GPU at launch-bound sizes: windowed pricing must still be *correct*
    // (the performance claim is size-dependent and made in experiment T1b).
    let gpu = BackendKind::GpuDense(DeviceSpec::gtx280());
    let gfull = SolveRequest::standard(
        &StandardForm::<f32>::from_lp(&model).expect("standardizes"),
        &opts_with(PivotRule::PartialDantzig { window: 96 }),
    )
    .on(&gpu)
    .run()
    .unwrap();
    assert_eq!(gfull.status, Status::Optimal);
}

#[test]
fn window_of_one_is_effectively_blandlike_and_still_terminates() {
    let (model, expected) = generator::fixtures::degenerate();
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let res = SolveRequest::standard(&sf, &opts_with(PivotRule::PartialDantzig { window: 1 }))
        .on(&BackendKind::CpuDense)
        .run()
        .unwrap();
    assert_eq!(res.status, Status::Optimal);
    assert!((sf.objective_from_std(res.z_std) - expected).abs() < 1e-9);
}

#[test]
fn partial_pricing_solves_two_phase_problems() {
    let (model, expected) = generator::fixtures::two_phase();
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    for kind in backends() {
        let res = SolveRequest::standard(&sf, &opts_with(PivotRule::PartialDantzig { window: 2 }))
            .on(&kind)
            .run()
            .unwrap();
        assert_eq!(res.status, Status::Optimal, "{kind:?}");
        assert!(
            (sf.objective_from_std(res.z_std) - expected).abs() < 1e-8,
            "{kind:?}"
        );
    }
}

#[test]
fn oversized_window_matches_full_dantzig_iteration_count() {
    let model = generator::dense_random(14, 20, 6);
    let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
    let full = SolveRequest::standard(&sf, &opts_with(PivotRule::Dantzig))
        .on(&BackendKind::CpuDense)
        .run()
        .unwrap();
    let huge = SolveRequest::standard(
        &sf,
        &opts_with(PivotRule::PartialDantzig { window: usize::MAX }),
    )
    .on(&BackendKind::CpuDense)
    .run()
    .unwrap();
    assert_eq!(full.stats.iterations, huge.stats.iterations);
    assert!((full.z_std - huge.z_std).abs() < 1e-12);
}

// ---------------------------------------------------------------------------
// Wrap-boundary audit. The window advance truncates at the range end
// (`len = w.min(n - start)`) and wraps the cursor to 0; every window
// recomputes BTRAN + its reduced costs before selecting, so no window may
// ever select on stale prices. The property pins that: windowed pricing
// must reach the full-Dantzig objective for windows that do NOT divide n
// (forcing a truncated window and a wrap every pass).
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn partial_dantzig_matches_dantzig_across_wrap_boundaries(
        (m, n, seed) in (2usize..12, 4usize..24, 0u64..5_000),
        window in 1usize..9,
    ) {
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let full = SolveRequest::standard(&sf, &opts_with(PivotRule::Dantzig))
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        prop_assert_eq!(full.status, Status::Optimal);
        for kind in [
            BackendKind::CpuDense,
            BackendKind::GpuDense(DeviceSpec::gtx280()),
        ] {
            let part = SolveRequest::standard(&sf, &opts_with(PivotRule::PartialDantzig { window }))
                .on(&kind)
                .run()
                .unwrap();
            prop_assert_eq!(part.status, Status::Optimal);
            prop_assert!(
                (part.z_std - full.z_std).abs() / full.z_std.abs().max(1.0) < 1e-7,
                "{:?} w={}: partial {} vs full {}",
                kind, window, part.z_std, full.z_std
            );
        }
    }
}
