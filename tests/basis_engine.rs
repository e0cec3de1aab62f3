//! Pluggable basis representation: sparse-LU vs explicit-inverse parity,
//! checkpoint cadence at non-divisible intervals, and degeneracy policy
//! regressions.

use gplex::backends::CpuDenseBackend;
use gplex::{
    verify, Backend, BackendKind, BasisRepresentation, DegeneracyPolicy, RatioOutcome,
    SolveRequest, SolverOptions, Start, Status,
};
use gpu_sim::DeviceSpec;
use lp::generator;
use lp::StandardForm;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..14, 2usize..18, 0u64..10_000)
}

fn opts_with(rep: BasisRepresentation) -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        basis_representation: rep,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// End-to-end representation swap on random models: same status, and
    /// objectives within verify tolerance. The LU path reorders floating
    /// point, so this is tolerance parity, not bitwise.
    #[test]
    fn representation_swap_preserves_objective((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let ex = SolveRequest::model(&model, &opts_with(BasisRepresentation::ExplicitInverse))
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        let lu = SolveRequest::model(&model, &opts_with(BasisRepresentation::SparseLU))
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(ex.status, lu.status);
        if ex.status == Status::Optimal {
            prop_assert!((ex.objective - lu.objective).abs()
                / ex.objective.abs().max(1.0) < 1e-6,
                "explicit {} vs sparse-lu {}", ex.objective, lu.objective);
            verify::check_solution(&model, &lu, 1e-5).map_err(|e| {
                TestCaseError::fail(format!("sparse-lu verification failed: {e}"))
            })?;
        }
    }

    /// Sparse-LU FTRAN/BTRAN lockstep parity on random bases: drive an
    /// explicit-inverse and a sparse-LU backend through the same pivot
    /// sequence *including periodic refactorizations*, so the LU factors
    /// (not just the eta chain atop the identity) anchor the solves. Every
    /// reduced cost, FTRAN column, and basic solution must agree within
    /// verify tolerance.
    #[test]
    fn sparse_lu_lockstep_matches_explicit_on_random_bases(
        (m, n, seed) in small_dims()
    ) {
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut ex = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
        let mut lu = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
        Backend::<f64>::set_representation(&mut lu, BasisRepresentation::SparseLU);

        for be in [&mut ex, &mut lu] {
            be.set_phase_costs(&sf.c).unwrap();
            let cb: Vec<f64> = sf.basis0.iter().map(|&j| sf.c[j]).collect();
            be.set_basic_costs(&cb).unwrap();
        }
        let mut basis = sf.basis0.clone();
        for it in 0..24 {
            // Refactorize both every 5 pivots: the LU side rebuilds its
            // factors from the live basis, the explicit side its inverse.
            if it > 0 && it % 5 == 0 {
                ex.refactorize(&basis).unwrap();
                lu.refactorize(&basis).unwrap();
                prop_assert_eq!(Backend::<f64>::eta_chain_len(&lu), 0);
            }
            ex.compute_pricing().unwrap();
            lu.compute_pricing().unwrap();
            let hit = ex.entering_dantzig(1e-9).unwrap();
            let Some((q, dq_ex)) = hit else { break };
            let (q_lu, dq_lu) = lu.entering_dantzig(1e-9).unwrap()
                .expect("sparse-LU sees the same non-optimal state");
            prop_assert_eq!(q, q_lu, "entering column diverged");
            prop_assert!((dq_ex - dq_lu).abs() < 1e-7,
                "reduced cost {} vs {}", dq_ex, dq_lu);

            ex.compute_alpha(q).unwrap();
            lu.compute_alpha(q).unwrap();
            for i in 0..sf.num_rows() {
                let a = ex.alpha_at(i).unwrap();
                let b = lu.alpha_at(i).unwrap();
                prop_assert!((a - b).abs() <= 1e-7 * a.abs().max(1.0),
                    "ftran row {}: {} vs {}", i, a, b);
            }
            let outcome = ex.ratio_test(1e-9).unwrap();
            let RatioOutcome::Pivot { p, theta } = outcome else { break };
            ex.pivot(p, q, theta, sf.c[q]).unwrap();
            lu.pivot(p, q, theta, sf.c[q]).unwrap();
            basis[p] = q;
            let beta_ex = ex.beta().unwrap();
            let beta_lu = lu.beta().unwrap();
            for (a, b) in beta_ex.iter().zip(&beta_lu) {
                prop_assert!((a - b).abs() <= 1e-7 * a.abs().max(1.0),
                    "beta {} vs {}", a, b);
            }
        }
    }

    /// Satellite regression: the checkpoint cadence must stay bitwise-exact
    /// when `checkpoint_interval` is NOT a multiple of `refactor_period` —
    /// snapshots land on the next boundary past the interval, and a resume
    /// from any of them replays the solo suffix pivot-for-pivot. Runs on
    /// both representations (a sparse-LU snapshot is legal only because the
    /// boundary folds the chain into fresh factors first).
    #[test]
    fn resume_is_bitwise_at_non_divisible_checkpoint_interval(
        (m, n, seed) in small_dims()
    ) {
        use gplex::CheckpointSlot;
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        for rep in [
            BasisRepresentation::ExplicitInverse,
            BasisRepresentation::SparseLU,
        ] {
            // 3 ∤ 7: the snapshot cadence and the reinversion cadence beat
            // against each other.
            let opts = SolverOptions {
                refactor_period: 3,
                checkpoint_interval: 7,
                ..opts_with(rep)
            };
            let kind = BackendKind::CpuDense;
            let slot = CheckpointSlot::new();
            let solo = SolveRequest::standard(&sf, &opts).on(&kind).checkpoint(&slot).run()
                .expect("uninterrupted solve succeeds");
            let Some(cp) = slot.checkpoint() else { continue };
            prop_assert_eq!(cp.representation, rep);
            prop_assert_eq!(cp.eta_len, 0, "snapshot off a reinversion boundary");
            // The snapshot sits on a refactorize boundary: in-phase
            // iterations are a multiple of the period.
            prop_assert_eq!(cp.iters_here % opts.refactor_period, 0);

            let slot2 = CheckpointSlot::new();
            let resumed =
                SolveRequest::standard(&sf, &opts)
                    .on(&kind)
                    .checkpoint(&slot2)
                    .start(Start::Resume(Box::new(cp)))
                    .run()
                    .expect("resumed solve succeeds");
            prop_assert_eq!(resumed.status, solo.status);
            prop_assert_eq!(resumed.stats.iterations, solo.stats.iterations);
            prop_assert_eq!(resumed.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
                "resumed tail must replay the solo suffix pivot-for-pivot");
            prop_assert_eq!(resumed.z_std.to_bits(), solo.z_std.to_bits());
            for (a, b) in resumed.x_std.iter().zip(&solo.x_std) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// The explicit-inverse path is the fidelity baseline: threading the
/// representation plumbing through must not move a single pivot. Bitwise
/// fingerprint parity between the default options and explicitly-requested
/// ExplicitInverse, on the shared fixture suite and all three backends.
#[test]
fn explicit_path_fingerprint_is_unchanged_by_plumbing() {
    let fixtures: Vec<(&str, lp::LinearProgram)> = vec![
        ("wyndor", generator::fixtures::wyndor().0),
        ("two_phase", generator::fixtures::two_phase().0),
        ("diet", generator::fixtures::diet().0),
        ("degenerate", generator::fixtures::degenerate().0),
        ("beale", generator::fixtures::beale_cycling().0),
        ("production", generator::fixtures::production().0),
    ];
    for (name, model) in &fixtures {
        let sf = StandardForm::<f64>::from_lp(model).expect("standardizes");
        for kind in [
            BackendKind::CpuDense,
            BackendKind::CpuSparse,
            BackendKind::GpuDense(DeviceSpec::gtx280()),
        ] {
            let default = SolveRequest::standard(&sf, &SolverOptions::default())
                .on(&kind)
                .run()
                .expect("solves");
            let explicit = SolveRequest::standard(
                &sf,
                &SolverOptions {
                    basis_representation: BasisRepresentation::ExplicitInverse,
                    ..Default::default()
                },
            )
            .on(&kind)
            .run()
            .expect("solves");
            assert_eq!(default.status, explicit.status, "{name} on {kind:?}");
            assert_eq!(
                default.stats.pivot_fingerprint, explicit.stats.pivot_fingerprint,
                "{name} on {kind:?}: explicit path moved a pivot"
            );
            assert_eq!(default.z_std.to_bits(), explicit.z_std.to_bits());
        }
    }
}

/// Sparse-LU representation on the shared fixture suite: every backend,
/// same status and objective, pivots ride the eta chain (no dense update),
/// the chain stays bounded by the refactor period, and the LU counters
/// surface once a refactorization has run.
#[test]
fn sparse_lu_solves_fixture_suite_on_all_backends() {
    let fixtures: Vec<(&str, lp::LinearProgram, f64)> = {
        let (wy, z1) = generator::fixtures::wyndor();
        let (tp, z2) = generator::fixtures::two_phase();
        let (dg, z3) = generator::fixtures::degenerate();
        let (bl, z4) = generator::fixtures::beale_cycling();
        vec![
            ("wyndor", wy, z1),
            ("two_phase", tp, z2),
            ("degenerate", dg, z3),
            ("beale", bl, z4),
        ]
    };
    for (name, model, expected) in &fixtures {
        for kind in [
            BackendKind::CpuDense,
            BackendKind::CpuSparse,
            BackendKind::GpuDense(DeviceSpec::gtx280()),
        ] {
            let opts = SolverOptions {
                refactor_period: 8,
                ..opts_with(BasisRepresentation::SparseLU)
            };
            let sol = SolveRequest::model(model, &opts)
                .on(&kind)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal, "{name} on {kind:?}");
            assert!(
                (sol.objective - expected).abs() < 1e-6,
                "{name} on {kind:?}: {} vs {expected}",
                sol.objective
            );
            let st = &sol.stats;
            assert_eq!(
                st.eta_pivots, st.iterations,
                "{name} on {kind:?}: every pivot is an eta append"
            );
            assert!(
                st.max_eta_chain <= opts.refactor_period,
                "{name} on {kind:?}: chain {} exceeds period {}",
                st.max_eta_chain,
                opts.refactor_period
            );
            if st.refactorizations > 0 {
                assert!(
                    st.lu_refactor_nnz > 0,
                    "{name} on {kind:?}: LU counters missing after {} refactorizations",
                    st.refactorizations
                );
            }
        }
    }
}

/// The perturbation policy terminates where the Bland ladder is weakest —
/// Klee–Minty walks and the degenerate fixtures — and on the two network
/// models where it fires repeatedly (`assignment(20, 2)`, where it beats
/// Bland in U1c, and `max_flow(60, 4, 5)`, where it loses), at the same
/// optimum as Bland with the exact certificate.
#[test]
fn perturbation_policy_terminates_on_degenerate_and_adversarial_fixtures() {
    let (dg, z_dg) = generator::fixtures::degenerate();
    let (bl, z_bl) = generator::fixtures::beale_cycling();
    // (model, known optimum, perturbations the policy must at least fire)
    let cases: Vec<(lp::LinearProgram, Option<f64>, usize)> = vec![
        (dg, Some(z_dg), 0),
        (bl, Some(z_bl), 0),
        (
            generator::klee_minty(6),
            Some(generator::klee_minty_optimum(6)),
            0,
        ),
        (generator::assignment(20, 2), None, 2),
        (generator::max_flow(60, 4, 5), None, 2),
    ];
    for (model, expected, min_perturbations) in &cases {
        let bland = SolveRequest::model(
            model,
            &SolverOptions {
                stall_threshold: 2,
                presolve: false,
                scale: false,
                ..Default::default()
            },
        )
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
        let pert = SolveRequest::model(
            model,
            &SolverOptions {
                stall_threshold: 2,
                presolve: false,
                scale: false,
                degeneracy: DegeneracyPolicy::Perturb { scale: 1e-7 },
                ..Default::default()
            },
        )
        .on(&BackendKind::CpuDense)
        .run::<f64>()
        .unwrap();
        assert_eq!(bland.status, Status::Optimal);
        assert_eq!(pert.status, Status::Optimal);
        if let Some(expected) = expected {
            assert!(
                (pert.objective - expected).abs() < 1e-6,
                "perturbed objective {} vs {expected}",
                pert.objective
            );
        }
        verify::check_solution(model, &pert, 1e-5).expect("perturbed certificate verifies");
        assert!(
            pert.stats.perturbations >= *min_perturbations,
            "{}: {} perturbations",
            model.name,
            pert.stats.perturbations
        );
        assert!(
            (bland.objective - pert.objective).abs() < 1e-6,
            "policies disagree: {} vs {}",
            bland.objective,
            pert.objective
        );
    }
}
