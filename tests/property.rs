//! Property-based tests over the solver stack: randomized models, invariant
//! checks, cross-backend equivalence.

use gplex::batch::{BatchOptions, BatchSolver, PlacementPolicy};
use gplex::{verify, BackendKind, SolveRequest, SolverOptions, Start, Status};
use gpu_sim::DeviceSpec;
use lp::generator;
use lp::presolve::{presolve, PresolveResult};
use lp::scaling::scale;
use lp::StandardForm;
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..14, 2usize..18, 0u64..10_000)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// dense_random is feasible-by-construction (origin) and bounded
    /// (positive matrix), so every solve must be Optimal with objective ≤ 0
    /// (the origin scores 0), and the certificate must hold.
    #[test]
    fn dense_random_always_solves_optimally((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let opts = SolverOptions { presolve: false, scale: false, ..Default::default() };
        let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(sol.objective <= 1e-9, "origin scores 0, optimum {}", sol.objective);
        prop_assert!(model.check_feasible(&sol.x, 1e-7).is_none());
        verify::check_solution(&model, &sol, 1e-6).map_err(|e| {
            TestCaseError::fail(format!("verification failed: {e}"))
        })?;
    }

    /// CPU and simulated-GPU backends must agree on status and objective.
    #[test]
    fn cpu_gpu_equivalence((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let opts = SolverOptions { presolve: false, scale: false, ..Default::default() };
        let c = SolveRequest::model(&model, &opts).on(&BackendKind::CpuDense).run::<f64>().unwrap();
        let g = SolveRequest::model(&model, &opts)
            .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(c.status, g.status);
        prop_assert!((c.objective - g.objective).abs() / c.objective.abs().max(1.0) < 1e-7,
            "cpu {} vs gpu {}", c.objective, g.objective);
    }

    /// Presolve must preserve the optimum.
    #[test]
    fn presolve_preserves_optimum((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let with = SolveRequest::model(&model, &SolverOptions { presolve: true, ..Default::default() })
            .run::<f64>()
            .unwrap();
        let without = SolveRequest::model(&model, &SolverOptions { presolve: false, ..Default::default() })
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(with.status, without.status);
        prop_assert!((with.objective - without.objective).abs()
            / without.objective.abs().max(1.0) < 1e-7);
    }

    /// Scaling must preserve the optimum.
    #[test]
    fn scaling_preserves_optimum((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let with = SolveRequest::model(&model, &SolverOptions { scale: true, ..Default::default() })
            .run::<f64>()
            .unwrap();
        let without = SolveRequest::model(&model, &SolverOptions { scale: false, ..Default::default() })
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(with.status, without.status);
        prop_assert!((with.objective - without.objective).abs()
            / without.objective.abs().max(1.0) < 1e-7);
    }

    /// Presolve's restored solutions are feasible in the original model.
    #[test]
    fn presolve_restoration_is_feasible((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        match presolve(&model) {
            PresolveResult::Reduced(p) => {
                let sol = SolveRequest::model(&p.lp, &SolverOptions {
                    presolve: false, ..Default::default() }).run::<f64>().unwrap();
                prop_assume!(sol.status == Status::Optimal);
                let full = p.restore(&sol.x);
                prop_assert!(model.check_feasible(&full, 1e-6).is_none());
            }
            other => prop_assert!(false, "dense_random should reduce, got {other:?}"),
        }
    }

    /// Standard-form recovery maps any basic feasible point back into the
    /// original feasible region.
    #[test]
    fn standard_form_solutions_recover_feasible((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let res = SolveRequest::standard(&sf, &SolverOptions {
            presolve: false, scale: false, ..Default::default()
        }).on(&BackendKind::CpuDense).run().unwrap();
        prop_assume!(res.status == Status::Optimal);
        let x = sf.recover_x(&res.x_std);
        prop_assert!(model.check_feasible(&x, 1e-6).is_none());
    }

    /// Geometric-mean scaling never increases the coefficient spread.
    #[test]
    fn scaling_reduces_spread((m, n, seed) in small_dims()) {
        let model = generator::dense_random(m, n, seed);
        let mut sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        let report = scale(&mut sf);
        prop_assert!(report.spread_after <= report.spread_before * (1.0 + 1e-9));
    }

    /// MPS write→parse round trips preserve model shape and optimum.
    #[test]
    fn mps_round_trip((m, n, seed) in (2usize..10, 2usize..12, 0u64..1000)) {
        let model = generator::dense_random(m, n, seed);
        let reparsed = lp::mps::parse(&lp::mps::write(&model)).expect("parses");
        prop_assert_eq!(model.num_vars(), reparsed.num_vars());
        prop_assert_eq!(model.num_constraints(), reparsed.num_constraints());
        let a = SolveRequest::model(&model, &SolverOptions::default()).run::<f64>().unwrap();
        let b = SolveRequest::model(&reparsed, &SolverOptions::default()).run::<f64>().unwrap();
        prop_assert!((a.objective - b.objective).abs() / a.objective.abs().max(1.0) < 1e-9);
    }

    /// Placement policy is routing, not math: for any batch, pinning it to
    /// any backend gives the per-job status and objective of the dense CPU
    /// baseline — only the backend label may differ.
    #[test]
    fn placement_policy_never_changes_results(
        (count, workers, seed) in (2usize..10, 1usize..5, 0u64..10_000),
    ) {
        let jobs = lp::generator::batch_mixed_sizes(
            count, &[(3, 4), (6, 8), (12, 16)], seed);
        let spec = gpu_sim::DeviceSpec::gtx280;
        let policies = [
            BackendKind::CpuDense,
            BackendKind::CpuSparse,
            BackendKind::GpuDense(spec()),
            BackendKind::GpuShared(std::sync::Arc::new(gpu_sim::Gpu::new(spec()))),
        ]
        .map(PlacementPolicy::Fixed);
        let baseline = BatchSolver::new(BatchOptions {
            workers,
            policy: policies[0].clone(),
            ..Default::default()
        }).solve::<f64>(&jobs);
        prop_assert!(baseline.all_solved());
        for policy in &policies[1..] {
            let routed = BatchSolver::new(BatchOptions {
                workers,
                policy: policy.clone(),
                ..Default::default()
            }).solve::<f64>(&jobs);
            prop_assert!(routed.all_solved());
            for (a, b) in baseline.results.iter().zip(&routed.results) {
                let (sa, sb) = (a.outcome.solution().unwrap(),
                                b.outcome.solution().unwrap());
                prop_assert_eq!(sa.status, sb.status);
                prop_assert!(
                    (sa.objective - sb.objective).abs()
                        / sa.objective.abs().max(1.0) < 1e-7,
                    "job {}: {} under {:?} vs {} fixed",
                    a.index, sb.objective, policy, sa.objective);
            }
        }
    }

    /// Sparse and dense backends agree on sparse instances.
    #[test]
    fn sparse_backend_equivalence(m in 4usize..20, seed in 0u64..500) {
        let n = m + 4;
        let model = generator::sparse_random(m, n, 0.3, seed);
        let opts = SolverOptions { presolve: false, scale: false, ..Default::default() };
        let d = SolveRequest::model(&model, &opts).on(&BackendKind::CpuDense).run::<f64>().unwrap();
        let s = SolveRequest::model(&model, &opts)
            .on(&BackendKind::CpuSparse)
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(d.status, s.status);
        if d.status == Status::Optimal {
            prop_assert!((d.objective - s.objective).abs() / d.objective.abs().max(1.0) < 1e-8);
        }
    }

    /// Warm starts are correctness-neutral on every backend: re-solving
    /// from a cached optimal basis takes zero pivots (fingerprint 0, so the
    /// terminal basis IS the supplied basis) and reports a bitwise-identical
    /// objective — the polish step makes the answer a pure function of the
    /// terminal basis, not of the pivot path that reached it.
    #[test]
    fn warm_restart_is_bitwise_equal_to_cold((m, n, seed) in small_dims()) {
        use gplex::{BasisCache, WarmContext, WarmStartPolicy};
        let model = generator::dense_random(m, n, seed);
        let opts = SolverOptions::default();
        for kind in [BackendKind::CpuDense, BackendKind::CpuSparse,
                     BackendKind::GpuDense(DeviceSpec::gtx280())] {
            let cache = BasisCache::new(4);
            let ctx = WarmContext { cache: &cache, policy: WarmStartPolicy::Family { tol: 1e-6 } };
            let cold = SolveRequest::model(&model, &opts)
                .on(&kind)
                .warm(Some(&ctx))
                .run::<f64>()
                .unwrap();
            prop_assert_eq!(cold.status, Status::Optimal);
            prop_assert_eq!(cold.stats.warm_start_attempted, 0);

            let warm = SolveRequest::model(&model, &opts)
                .on(&kind)
                .warm(Some(&ctx))
                .run::<f64>()
                .unwrap();
            prop_assert_eq!(warm.status, Status::Optimal);
            prop_assert_eq!(warm.stats.warm_start_attempted, 1);
            prop_assert_eq!(warm.stats.warm_start_rejected, 0);
            prop_assert_eq!(warm.stats.iterations, 0);
            prop_assert_eq!(warm.stats.pivot_fingerprint, 0);
            prop_assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
            prop_assert_eq!(cache.stats().hits, 1);
            warm.stats.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// Resuming from a mid-run checkpoint is bitwise-identical to the
    /// uninterrupted solve, on every backend: same terminal status, basis,
    /// iteration count, objective/solution bits — and the same final pivot
    /// fingerprint, which (FNV being a running fold over pivots) proves the
    /// resumed tail replayed the solo run's suffix pivot-for-pivot from the
    /// checkpoint iteration onward.
    #[test]
    fn resume_from_checkpoint_is_bitwise_identical((m, n, seed) in small_dims()) {
        use gplex::CheckpointSlot;
        let model = generator::dense_random(m, n, seed);
        let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
        // Tight cadence so even small instances cross a snapshot boundary.
        let opts = SolverOptions {
            presolve: false, scale: false,
            refactor_period: 2, checkpoint_interval: 2,
            ..Default::default()
        };
        for kind in [BackendKind::CpuDense, BackendKind::CpuSparse,
                     BackendKind::GpuDense(DeviceSpec::gtx280())] {
            let slot = CheckpointSlot::new();
            let solo = SolveRequest::standard(&sf, &opts).on(&kind).checkpoint(&slot).run()
                .expect("uninterrupted solve succeeds");
            let Some(cp) = slot.checkpoint() else {
                // Converged before the first boundary: nothing to resume.
                continue;
            };
            prop_assert_eq!(cp.stats.checkpoints_taken, solo.stats.checkpoints_taken,
                "the slot holds the last snapshot taken");
            let cp_iter = cp.stats.iterations;
            prop_assert!(cp_iter > 0 && cp_iter <= solo.stats.iterations);

            let slot2 = CheckpointSlot::new();
            let resumed =
                SolveRequest::standard(&sf, &opts)
                    .on(&kind)
                    .checkpoint(&slot2)
                    .start(Start::Resume(Box::new(cp)))
                    .run()
                    .expect("resumed solve succeeds");
            prop_assert_eq!(resumed.status, solo.status);
            prop_assert_eq!(resumed.basis.clone(), solo.basis.clone());
            prop_assert_eq!(resumed.stats.iterations, solo.stats.iterations);
            prop_assert_eq!(resumed.stats.refactorizations, solo.stats.refactorizations);
            prop_assert_eq!(resumed.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
                "resumed tail must replay the solo suffix pivot-for-pivot");
            prop_assert_eq!(resumed.z_std.to_bits(), solo.z_std.to_bits());
            for (a, b) in resumed.x_std.iter().zip(&solo.x_std) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(resumed.stats.checkpoint_resumes, 1);
            prop_assert_eq!(resumed.stats.checkpoints_taken, solo.stats.checkpoints_taken);
            resumed.stats.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// A perturbed family member warm-started from its sibling's basis
    /// reaches the same answer as its own cold solve, in no more pivots.
    #[test]
    fn family_warm_start_matches_cold_answer((m, n, seed) in small_dims()) {
        use gplex::{BasisCache, WarmContext, WarmStartPolicy};
        let family = generator::perturbed_family(2, m, n, seed, 1e-3);
        let opts = SolverOptions::default();
        let cache = BasisCache::new(4);
        let ctx = WarmContext { cache: &cache, policy: WarmStartPolicy::Family { tol: 1e-6 } };
        let seed_sol = SolveRequest::model(&family[0], &opts)
            .on(&BackendKind::CpuDense)
            .warm(Some(&ctx))
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(seed_sol.status, Status::Optimal);

        let warm = SolveRequest::model(&family[1], &opts)
            .on(&BackendKind::CpuDense)
            .warm(Some(&ctx))
            .run::<f64>()
            .unwrap();
        let cold = SolveRequest::model(&family[1], &opts)
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        prop_assert_eq!(warm.status, cold.status);
        prop_assert_eq!(cache.stats().hits, 1, "siblings share a family key");
        prop_assert!(warm.stats.iterations <= cold.stats.iterations,
            "warm {} > cold {}", warm.stats.iterations, cold.stats.iterations);
        prop_assert!((warm.objective - cold.objective).abs()
            / cold.objective.abs().max(1.0) < 1e-9,
            "warm {} vs cold {}", warm.objective, cold.objective);
        warm.stats.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// SoA pack → unpack round-trips bitwise for arbitrary (batch, m, n):
    /// the batch-innermost layout is a pure permutation of the elements.
    #[test]
    fn batch_layout_pack_unpack_roundtrips_bitwise(
        (width, m, n, seed) in (1usize..6, 1usize..9, 1usize..9, 0u64..10_000)
    ) {
        use linalg::{batch::{pack_vectors, unpack_vector}, DenseBatchLayout, DenseMatrix};
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let members: Vec<DenseMatrix<f64>> = (0..width)
            .map(|_| {
                let mut a = DenseMatrix::zeros(m, n);
                for i in 0..m {
                    for j in 0..n {
                        a.set(i, j, rng.random_range(-1e6..1e6));
                    }
                }
                a
            })
            .collect();
        let layout = DenseBatchLayout::pack(&members);
        prop_assert_eq!(layout.as_slice().len(), width * m * n);
        for (b, a) in members.iter().enumerate() {
            let back = layout.unpack(b);
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(back.get(i, j).to_bits(), a.get(i, j).to_bits(),
                        "lane {} ({}, {})", b, i, j);
                }
            }
        }
        let vecs: Vec<Vec<f64>> = (0..width)
            .map(|_| (0..m).map(|_| rng.random_range(-1e3..1e3)).collect())
            .collect();
        let refs: Vec<&[f64]> = vecs.iter().map(|v| v.as_slice()).collect();
        let packed = pack_vectors(&refs);
        for (b, v) in vecs.iter().enumerate() {
            let back = unpack_vector(&packed, width, b);
            for (i, (x, y)) in back.iter().zip(v).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "lane {} [{}]", b, i);
            }
        }
    }

    /// A random sequence of batched pivot updates applied to a width-W SoA
    /// block equals the same per-LP updates applied independently (the same
    /// kernel at width 1), bitwise, for B⁻¹ and β alike.
    #[test]
    fn batched_pivot_updates_match_independent_per_lp_updates(
        (width, m, steps, seed) in (2usize..6, 2usize..9, 1usize..6, 0u64..10_000)
    ) {
        use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};
        use linalg::gpu::{BatchPivotK, CTL_ACTIVE};
        use linalg::DenseBatchLayout;
        use rand::{rngs::StdRng, RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed ^ 0xb10c_4a11);
        // Per-lane random state and a shared random pivot schedule.
        let binv0: Vec<Vec<f64>> = (0..width)
            .map(|_| (0..m * m).map(|_| rng.random_range(-2.0..2.0)).collect())
            .collect();
        let beta0: Vec<Vec<f64>> = (0..width)
            .map(|_| (0..m).map(|_| rng.random_range(0.0..3.0)).collect())
            .collect();
        // Each step: per-lane pivot row, step length, and an FTRAN column
        // whose pivot element is bounded away from zero.
        let schedule: Vec<Vec<(usize, f64, Vec<f64>)>> = (0..steps)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        let p = rng.random_range(0..m as u64) as usize;
                        let theta = rng.random_range(0.0..2.0);
                        let mut alpha: Vec<f64> =
                            (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
                        alpha[p] = 0.5 + rng.random_range(0.0..1.5);
                        (p, theta, alpha)
                    })
                    .collect()
            })
            .collect();

        let run = |lanes: &[usize]| -> (Vec<f64>, Vec<f64>) {
            let (binv0, beta0) = (&binv0, &beta0);
            let w = lanes.len();
            let gpu = Gpu::new(DeviceSpec::gtx280());
            let mut binv = DenseBatchLayout::<f64>::zeros(m, m, w);
            for (slot, &lane) in lanes.iter().enumerate() {
                for i in 0..m {
                    for j in 0..m {
                        binv.set(slot, i, j, binv0[lane][i * m + j]);
                    }
                }
            }
            let mut binv_buf = gpu.try_htod(binv.as_slice()).unwrap();
            let beta_soa: Vec<f64> = (0..m)
                .flat_map(|i| lanes.iter().map(move |&lane| beta0[lane][i]))
                .collect();
            let mut beta_buf = gpu.try_htod(&beta_soa).unwrap();
            let gate_buf = gpu.try_htod(&vec![CTL_ACTIVE; w]).unwrap();
            let cfg = LaunchConfig::for_elems(w, 32);
            for round in &schedule {
                let alpha_soa: Vec<f64> = (0..m)
                    .flat_map(|i| lanes.iter().map(move |&lane| round[lane].2[i]))
                    .collect();
                let alpha_buf = gpu.try_htod(&alpha_soa).unwrap();
                let p_sel: Vec<u32> = lanes.iter().map(|&lane| round[lane].0 as u32).collect();
                let theta: Vec<f64> = lanes.iter().map(|&lane| round[lane].1).collect();
                let p_buf = gpu.try_htod(&p_sel).unwrap();
                let theta_buf = gpu.try_htod(&theta).unwrap();
                gpu.try_launch(cfg, &BatchPivotK {
                    binv: binv_buf.view_mut(),
                    beta: beta_buf.view_mut(),
                    alpha: alpha_buf.view(),
                    p_sel: p_buf.view(),
                    theta_sel: theta_buf.view(),
                    p_override: usize::MAX,
                    theta_override: 0.0,
                    gate: gate_buf.view(),
                    only: usize::MAX,
                    width: w,
                    m,
                    lanes: w as u64,
                }).unwrap();
            }
            (gpu.try_dtoh(&binv_buf).unwrap(), gpu.try_dtoh(&beta_buf).unwrap())
        };

        // Batched: all lanes in one SoA block. Independent: one lane each.
        let (binv_soa, beta_soa) = run(&(0..width).collect::<Vec<_>>());
        for lane in 0..width {
            let (binv_solo, beta_solo) = run(&[lane]);
            for i in 0..m {
                for j in 0..m {
                    let soa = binv_soa[(i + j * m) * width + lane];
                    let solo = binv_solo[i + j * m];
                    prop_assert_eq!(soa.to_bits(), solo.to_bits(),
                        "lane {} binv ({}, {}): {} vs {}", lane, i, j, soa, solo);
                }
                let bs = beta_soa[i * width + lane];
                let bi = beta_solo[i];
                prop_assert_eq!(bs.to_bits(), bi.to_bits(),
                    "lane {} beta[{}]: {} vs {}", lane, i, bs, bi);
            }
        }
    }
}
