//! Differential parity suite for the block-per-LP mega-batch path: every
//! member of an SoA super-job must be **bitwise** indistinguishable from a
//! solo `cpu-dense` solve — same status, same objective bits, same pivot
//! fingerprint — and a faulted member must fail alone.

use gplex::batch::{BatchOptions, BatchSolver, PlacementPolicy};
use gplex::{
    mega_compatible, try_solve_family_mega, BackendKind, CheckpointSlot, LaneOutcome, NoopRecorder,
    Recorder, SolveError, SolveRequest, SolverOptions, Status, StdResult, StepKind, TraceRecorder,
};
use gpu_sim::{DeviceSpec, Gpu};
use lp::generator::{self, fixtures};
use lp::{LinearProgram, StandardForm};

fn raw_opts() -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    }
}

fn standardize(jobs: &[LinearProgram]) -> Vec<StandardForm<f64>> {
    jobs.iter()
        .map(|lp| StandardForm::<f64>::from_lp(lp).expect("generated models standardize"))
        .collect()
}

/// Lane results of a family run on a fault-free device, where no lane can
/// be evacuated: a device fault surfaces as the outer error.
fn solve_family<R: Recorder>(
    gpu: &Gpu,
    refs: &[&StandardForm<f64>],
    opts: &SolverOptions,
    warm: Vec<Option<Vec<usize>>>,
    recs: Option<&mut [R]>,
) -> Result<Vec<Result<StdResult<f64>, SolveError>>, SolveError> {
    let run = try_solve_family_mega::<f64, R>(gpu, refs, opts, warm, recs)?;
    if let Some(fault) = run.fault {
        return Err(fault);
    }
    Ok(run
        .lanes
        .into_iter()
        .map(|o| match o {
            LaneOutcome::Done(r) => r.map(|b| *b),
            LaneOutcome::Evacuated { .. } => {
                unreachable!("evacuation only happens on a device fault")
            }
        })
        .collect())
}

/// Core differential harness: solve `sfs` as one lockstep family and pin
/// every lane bitwise to the solo `cpu-dense` solve of the same form —
/// path, answer and every lane counter. The solo reference runs with a
/// checkpoint slot attached, because a mega lane always snapshots.
fn assert_family_matches_solo(sfs: &[StandardForm<f64>], opts: &SolverOptions) {
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
    let warm = vec![None; sfs.len()];
    let lanes =
        solve_family::<NoopRecorder>(&gpu, &refs, opts, warm, None).expect("family machinery ok");
    assert_eq!(lanes.len(), sfs.len());
    for (b, lane) in lanes.into_iter().enumerate() {
        let mega = lane.unwrap_or_else(|e| panic!("lane {b} failed: {e}"));
        let slot = CheckpointSlot::new();
        let solo = SolveRequest::standard(&sfs[b], opts)
            .on(&BackendKind::CpuDense)
            .checkpoint(&slot)
            .run()
            .unwrap_or_else(|e| panic!("solo {b} failed: {e}"));
        assert_eq!(mega.status, solo.status, "lane {b} status");
        assert_eq!(mega.basis, solo.basis, "lane {b} terminal basis");
        assert_eq!(
            mega.stats.iterations, solo.stats.iterations,
            "lane {b} iteration count"
        );
        assert_eq!(
            mega.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
            "lane {b} pivot fingerprint"
        );
        assert_eq!(
            mega.z_std.to_bits(),
            solo.z_std.to_bits(),
            "lane {b} objective bits: {} vs {}",
            mega.z_std,
            solo.z_std
        );
        assert_eq!(mega.x_std.len(), solo.x_std.len());
        for (j, (a, c)) in mega.x_std.iter().zip(&solo.x_std).enumerate() {
            assert_eq!(a.to_bits(), c.to_bits(), "lane {b} x_std[{j}]: {a} vs {c}");
        }
        let (ms, ss) = (&mega.stats, &solo.stats);
        let counters = |s: &gplex::SolveStats| {
            [
                ("refactorizations", s.refactorizations),
                ("degenerate_steps", s.degenerate_steps),
                ("bland_iterations", s.bland_iterations),
                ("phase1_iterations", s.phase1_iterations),
                ("nan_recoveries", s.nan_recoveries),
                ("warm_start_attempted", s.warm_start_attempted),
                ("warm_start_rejected", s.warm_start_rejected),
                ("checkpoints_taken", s.checkpoints_taken),
            ]
        };
        for ((name, m), (_, c)) in counters(ms).into_iter().zip(counters(ss)) {
            assert_eq!(m, c, "lane {b} {name}");
        }
        assert_eq!(ms.phase, ss.phase, "lane {b} per-phase counters");
    }
}

/// Bitwise per-member parity for a perturbed family (same `A`, jittered
/// `b`/`c` — the headline mega-batch workload).
#[test]
fn perturbed_family_bitwise_parity() {
    let jobs = generator::perturbed_family(8, 6, 9, 42, 0.05);
    assert_family_matches_solo(&standardize(&jobs), &raw_opts());
}

/// Unrelated same-shape instances (different `A` per lane) also hold
/// parity: the SoA layout shares nothing across lanes but the shape.
#[test]
fn unrelated_same_shape_batch_bitwise_parity() {
    let jobs: Vec<LinearProgram> = (0..6).map(|s| generator::dense_random(8, 12, s)).collect();
    assert_family_matches_solo(&standardize(&jobs), &raw_opts());
}

/// Width 1 is the degenerate block: one lane, still the batched kernels.
#[test]
fn width_one_family_bitwise_parity() {
    let jobs = vec![generator::dense_random(7, 10, 23)];
    assert_family_matches_solo(&standardize(&jobs), &raw_opts());
}

/// Two-phase members (equality rows force artificials) run phase 1 in
/// lockstep, drive artificials out per lane, and still match solo bitwise.
#[test]
fn two_phase_family_bitwise_parity() {
    let jobs: Vec<LinearProgram> = (0..4)
        .map(|k| generator::transportation(&[30.0, 70.0], &[40.0 + k as f64, 60.0 - k as f64], 3))
        .collect();
    let sfs = standardize(&jobs);
    assert!(sfs[0].num_artificials > 0, "fixture must need phase 1");
    assert_family_matches_solo(&sfs, &raw_opts());
}

/// Bland and Dantzig lanes both replicate their solo pivot sequences.
#[test]
fn bland_rule_family_bitwise_parity() {
    let opts = SolverOptions {
        pivot_rule: gplex::PivotRule::Bland,
        ..raw_opts()
    };
    let jobs: Vec<LinearProgram> = (0..4)
        .map(|s| generator::dense_random(6, 9, s + 50))
        .collect();
    assert_family_matches_solo(&standardize(&jobs), &opts);
}

/// Degenerate assignment lanes under a hair-trigger stall threshold and a
/// short reinversion/checkpoint cadence: every lane escalates to Bland,
/// reinverts and snapshots mid-walk, and still matches solo counter for
/// counter.
#[test]
fn stalling_reinverting_family_matches_solo_counters() {
    let opts = SolverOptions {
        stall_threshold: 3,
        refactor_period: 8,
        checkpoint_interval: 8,
        ..raw_opts()
    };
    let jobs: Vec<LinearProgram> = (1..=3).map(|s| generator::assignment(7, s)).collect();
    let sfs = standardize(&jobs);
    for sf in &sfs {
        let solo = SolveRequest::standard(sf, &opts)
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        assert!(solo.stats.bland_iterations > 0, "fixture must escalate");
        assert!(solo.stats.refactorizations > 0, "fixture must reinvert");
        assert!(solo.stats.degenerate_steps > 0, "fixture must stall");
    }
    assert_family_matches_solo(&sfs, &opts);
}

/// End-to-end through [`BatchSolver`]: grouped jobs return the same
/// `LpSolution` (status, objective bits, fingerprint) as the solo pipeline,
/// with presolve and scaling on.
#[test]
fn batch_solver_mega_matches_solo_pipeline_bitwise() {
    let jobs = generator::perturbed_family(6, 6, 8, 7, 0.02);
    let solver = BatchSolver::new(BatchOptions {
        mega_batch: true,
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert!(report.all_solved());
    assert_eq!(report.stats.mega_groups, 1);
    assert_eq!(report.stats.grouped_jobs, 6);
    assert_eq!(report.stats.ungrouped_jobs, 0);
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.backend, "batch-kernel", "job {i} must be grouped");
        let sol = r.outcome.solution().expect("solved");
        let solo = SolveRequest::model(&jobs[i], &SolverOptions::default())
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, solo.status, "job {i}");
        assert_eq!(
            sol.objective.to_bits(),
            solo.objective.to_bits(),
            "job {i} objective bits: {} vs {}",
            sol.objective,
            solo.objective
        );
        assert_eq!(
            sol.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
            "job {i} fingerprint"
        );
        for (a, c) in sol.x.iter().zip(&solo.x) {
            assert_eq!(a.to_bits(), c.to_bits(), "job {i} x");
        }
    }
}

/// A poisoned member fails alone: its panic is caught in the pre-pass and
/// its same-shape neighbors still group, solve, and hold bitwise parity.
#[test]
fn poisoned_member_fails_alone_without_corrupting_neighbors() {
    let jobs = vec![
        generator::dense_random(6, 8, 1),
        fixtures::poisoned(),
        generator::dense_random(6, 8, 2),
        generator::dense_random(6, 8, 3),
    ];
    let solver = BatchSolver::new(BatchOptions {
        mega_batch: true,
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert_eq!(report.stats.panicked, 1);
    assert_eq!(report.stats.solved, 3);
    assert_eq!(report.stats.mega_groups, 1);
    assert_eq!(report.stats.grouped_jobs, 3);
    assert_eq!(report.stats.ungrouped_jobs, 1);
    assert!(report.results[1].outcome.solution().is_none());
    for i in [0usize, 2, 3] {
        let sol = report.results[i]
            .outcome
            .solution()
            .expect("neighbor solved");
        let solo = SolveRequest::model(&jobs[i], &SolverOptions::default())
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, solo.status, "job {i}");
        assert_eq!(sol.objective.to_bits(), solo.objective.to_bits(), "job {i}");
        assert_eq!(
            sol.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
            "job {i}"
        );
    }
}

/// All members converging in the same round: identical lanes leave the
/// block together with identical answers.
#[test]
fn all_members_converge_same_round() {
    let job = generator::dense_random(6, 9, 11);
    let jobs = vec![job.clone(), job.clone(), job];
    let sfs = standardize(&jobs);
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
    let lanes = solve_family::<NoopRecorder>(&gpu, &refs, &raw_opts(), vec![None; 3], None)
        .expect("machinery ok");
    let results: Vec<_> = lanes.into_iter().map(|l| l.expect("solved")).collect();
    for r in &results {
        assert_eq!(r.status, Status::Optimal);
        assert_eq!(r.stats.iterations, results[0].stats.iterations);
        assert_eq!(
            r.stats.pivot_fingerprint,
            results[0].stats.pivot_fingerprint
        );
        assert_eq!(r.z_std.to_bits(), results[0].z_std.to_bits());
    }
}

/// One member hits the iteration limit while its sibling goes optimal:
/// per-member statuses are right, and after the fast lane converges it
/// stops accruing step spans (idle lanes are free).
#[test]
fn iteration_limit_member_statuses_and_idle_lanes_accrue_nothing() {
    // Find two same-shape instances whose solo iteration counts differ by
    // at least 2, so the fast lane idles for observable rounds.
    let mut picked = None;
    'outer: for sa in 0..20u64 {
        for sb in 0..20u64 {
            if sa == sb {
                continue;
            }
            let a = standardize(&[generator::dense_random(8, 12, sa)]).remove(0);
            let b = standardize(&[generator::dense_random(8, 12, sb)]).remove(0);
            let ia = SolveRequest::standard(&a, &raw_opts())
                .on(&BackendKind::CpuDense)
                .run()
                .unwrap()
                .stats
                .iterations;
            let ib = SolveRequest::standard(&b, &raw_opts())
                .on(&BackendKind::CpuDense)
                .run()
                .unwrap()
                .stats
                .iterations;
            if ib >= ia + 2 {
                picked = Some((a, b, ia, ib));
                break 'outer;
            }
        }
    }
    let (sf_fast, sf_slow, iters_fast, iters_slow) =
        picked.expect("some seed pair differs by >= 2 iterations");
    // Cap exactly at the slow lane's need: it gets cut off at the limit
    // check before it can price its way to optimality.
    let opts = SolverOptions {
        max_iterations: Some(iters_slow),
        ..raw_opts()
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let refs = vec![&sf_fast, &sf_slow];
    let mut recs = vec![TraceRecorder::default(), TraceRecorder::default()];
    let lanes =
        solve_family::<TraceRecorder>(&gpu, &refs, &opts, vec![None, None], Some(&mut recs))
            .expect("machinery ok");
    let fast = lanes[0].as_ref().expect("fast lane solved");
    let slow = lanes[1].as_ref().expect("slow lane returned");
    assert_eq!(fast.status, Status::Optimal);
    assert_eq!(slow.status, Status::IterationLimit);
    assert_eq!(fast.stats.iterations, iters_fast);
    assert_eq!(slow.stats.iterations, iters_slow);
    // The fast lane priced in rounds 1..=iters_fast+1 (its pivots plus the
    // converging round) and then idled; the slow lane priced every round.
    let fast_pricing = recs[0].timings.get(StepKind::Pricing).count;
    let slow_pricing = recs[1].timings.get(StepKind::Pricing).count;
    assert_eq!(fast_pricing, (iters_fast + 1) as u64, "fast lane rounds");
    assert_eq!(slow_pricing, iters_slow as u64, "slow lane rounds");
    assert!(
        fast_pricing < slow_pricing,
        "idle lane must stop accruing spans ({fast_pricing} vs {slow_pricing})"
    );
    // Same for total step time: the idle lane's clock stops at convergence.
    assert!(recs[0].timings.total_time() < recs[1].timings.total_time());
}

/// Warm-seeding a whole group from one family basis: every lane accepts the
/// candidate, skips phase 1, and still lands on the cold answer.
#[test]
fn group_warm_seeding_from_single_family_basis() {
    let jobs = generator::perturbed_family(5, 6, 9, 17, 0.01);
    let sfs = standardize(&jobs);
    let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
    let opts = raw_opts();
    let gpu = Gpu::new(DeviceSpec::gtx280());
    let cold = solve_family::<NoopRecorder>(&gpu, &refs, &opts, vec![None; 5], None)
        .expect("machinery ok")
        .into_iter()
        .map(|l| l.expect("solved"))
        .collect::<Vec<_>>();
    let family_basis = cold[0].basis.clone();
    let warm = vec![Some(family_basis); 5];
    let gpu2 = Gpu::new(DeviceSpec::gtx280());
    let warm_res = solve_family::<NoopRecorder>(&gpu2, &refs, &opts, warm, None)
        .expect("machinery ok")
        .into_iter()
        .map(|l| l.expect("solved"))
        .collect::<Vec<_>>();
    for (b, (w, c)) in warm_res.iter().zip(&cold).enumerate() {
        assert_eq!(w.status, Status::Optimal, "lane {b}");
        assert_eq!(w.stats.warm_start_attempted, 1, "lane {b}");
        if w.stats.warm_start_rejected == 0 {
            assert_eq!(w.stats.phase1_iterations, 0, "accepted warm skips phase 1");
        }
        assert!(
            (w.z_std - c.z_std).abs() <= 1e-7 * c.z_std.abs().max(1.0),
            "lane {b}: warm {} vs cold {}",
            w.z_std,
            c.z_std
        );
    }
    // Member 0's own basis must be accepted verbatim.
    assert_eq!(warm_res[0].stats.warm_start_rejected, 0);
    assert!(warm_res[0].stats.iterations <= cold[0].stats.iterations);
}

/// Satellite regression: a mixed-shape batch drains 100% with `mega_batch`
/// on — multi-member shapes group, the singleton falls back to
/// stream-per-job (not an error) — and grouped/ungrouped counts stay
/// disjoint.
#[test]
fn mixed_shape_batch_drains_fully_with_disjoint_grouping_counters() {
    let mut jobs = generator::batch_mixed_sizes(9, &[(4, 6), (6, 9), (8, 12)], 7);
    jobs.push(generator::dense_random(10, 14, 99)); // shape singleton
    let solver = BatchSolver::new(BatchOptions {
        mega_batch: true,
        workers: 2,
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert!(report.all_solved(), "mixed batch must drain 100%");
    assert_eq!(report.results.len(), 10);
    assert_eq!(report.stats.mega_groups, 3);
    assert_eq!(report.stats.grouped_jobs, 9);
    assert_eq!(report.stats.ungrouped_jobs, 1);
    assert_eq!(
        report.stats.grouped_jobs + report.stats.ungrouped_jobs,
        report.stats.jobs,
        "grouped and ungrouped must partition the batch"
    );
    let singleton = &report.results[9];
    assert_ne!(singleton.backend, "batch-kernel", "singleton streams");
    for (i, r) in report.results.iter().enumerate() {
        let sol = r.outcome.solution().expect("solved");
        let solo = SolveRequest::model(&jobs[i], &SolverOptions::default())
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, solo.status, "job {i}");
        assert!(
            (sol.objective - solo.objective).abs() <= 1e-9 * solo.objective.abs().max(1.0),
            "job {i}: {} vs {}",
            sol.objective,
            solo.objective
        );
    }
}

/// Out-of-scope options (partial pricing, deadlines) keep the whole batch
/// on the stream path instead of erroring. Fault injection is *in* scope
/// since lane evacuation landed — see the evacuation tests below.
#[test]
fn out_of_scope_options_fall_back_to_stream() {
    let opts = SolverOptions {
        pivot_rule: gplex::PivotRule::PartialDantzig { window: 4 },
        ..Default::default()
    };
    assert!(!mega_compatible(&opts));
    let jobs = generator::perturbed_family(4, 6, 8, 3, 0.02);
    let solver = BatchSolver::new(BatchOptions {
        mega_batch: true,
        solver: opts,
        policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert!(report.all_solved());
    assert_eq!(report.stats.mega_groups, 0);
    assert_eq!(report.stats.grouped_jobs, 0);
    assert_eq!(report.stats.ungrouped_jobs, 4);
}

/// Tentpole acceptance (lane evacuation): a device fault injected
/// mid-round into a width-8 family loses **zero completed work**. Every
/// live lane is evacuated with its latest checkpoint, re-dispatched as a
/// resumed stream solve on the fault-free CPU rung, and every member of
/// the family drains bitwise-identical to a fault-free solo `cpu-dense`
/// solve — status, objective bits, pivot fingerprint, and solution bits.
#[test]
fn mid_round_fault_evacuates_lanes_and_loses_zero_work() {
    use gpu_sim::FaultConfig;

    let jobs = generator::perturbed_family(8, 16, 24, 31, 0.03);
    // A certain *hard* launch failure aimed at the batched update chain
    // (silent corruption would be absorbed by in-lane recovery, not
    // evacuation), with a warmup sized so the first targeted op past it
    // lands mid-solve: by then roughly half the lanes have converged and
    // every still-live lane has crossed a checkpoint boundary (refactor =
    // checkpoint cadence = 4 iterations).
    let opts = SolverOptions {
        refactor_period: 4,
        checkpoint_interval: 4,
        faults: Some(
            FaultConfig {
                kernel_fault: 1.0,
                warmup_ops: 320,
                ..FaultConfig::off(5)
            }
            .only(&["mega_update"]),
        ),
        ..raw_opts()
    };
    assert!(
        mega_compatible(&opts),
        "fault injection must be in scope for the mega path"
    );
    let solver = BatchSolver::new(BatchOptions {
        mega_batch: true,
        solver: opts,
        ..Default::default()
    });
    let report = solver.solve::<f64>(&jobs);
    assert!(
        report.all_solved(),
        "evacuation salvages every lane — a mid-round fault is never an error"
    );
    assert_eq!(report.stats.mega_groups, 1, "the family still groups");
    assert!(
        report.stats.device_faults > 0,
        "the injected fault must actually fire"
    );
    assert!(
        report.stats.resumed_jobs > 0,
        "evacuated lanes must resume from their checkpoints"
    );
    assert_eq!(
        report.stats.evacuated_jobs, 0,
        "a post-warmup fault leaves every live lane a checkpoint (no cold restarts)"
    );
    assert!(
        report.stats.wasted_iterations < report.stats.resumed_jobs as u64 * 4,
        "each resumed lane re-does fewer pivots than one checkpoint interval"
    );

    let clean = SolverOptions {
        refactor_period: 4,
        checkpoint_interval: 4,
        ..raw_opts()
    };
    let mut resumed_seen = 0usize;
    for (i, r) in report.results.iter().enumerate() {
        let sol = r.outcome.solution().expect("terminal solution");
        let solo = SolveRequest::model(&jobs[i], &clean)
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, solo.status, "job {i} status");
        assert_eq!(
            sol.objective.to_bits(),
            solo.objective.to_bits(),
            "job {i} objective bits: {} vs {}",
            sol.objective,
            solo.objective
        );
        assert_eq!(
            sol.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
            "job {i}: resumed tail must replay the solo pivot sequence"
        );
        assert_eq!(
            sol.stats.iterations, solo.stats.iterations,
            "job {i}: no pivot is lost, none is duplicated"
        );
        for (a, c) in sol.x.iter().zip(&solo.x) {
            assert_eq!(a.to_bits(), c.to_bits(), "job {i} x");
        }
        if r.resumed {
            resumed_seen += 1;
            assert_eq!(
                r.backend, "cpu-dense",
                "job {i}: evacuees salvage on the fault-free CPU rung"
            );
            assert!(
                !r.evacuated,
                "job {i}: resumed and cold-restart are disjoint"
            );
        }
    }
    assert_eq!(resumed_seen, report.stats.resumed_jobs);
}

/// Determinism of the chaos path: the per-group fault plan is reseeded
/// from (seed, group index), so two fresh runs of the same faulted batch
/// agree on every recovery counter and per-job outcome.
#[test]
fn evacuation_counters_are_deterministic_from_seed() {
    use gpu_sim::FaultConfig;

    let run = || {
        let jobs = generator::perturbed_family(6, 10, 14, 9, 0.02);
        let opts = SolverOptions {
            refactor_period: 4,
            checkpoint_interval: 4,
            faults: Some(FaultConfig::uniform(41, 0.5).only(&["mega_update", "mega_price"])),
            ..raw_opts()
        };
        let report = BatchSolver::new(BatchOptions {
            mega_batch: true,
            solver: opts,
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        let per_job: Vec<_> = report
            .results
            .iter()
            .map(|r| {
                (
                    r.backend,
                    r.evacuated,
                    r.resumed,
                    r.wasted_iterations,
                    r.outcome.status_label().to_string(),
                )
            })
            .collect();
        (
            report.stats.device_faults,
            report.stats.resumed_jobs,
            report.stats.evacuated_jobs,
            report.stats.wasted_iterations,
            per_job,
        )
    };
    assert_eq!(run(), run());
}

/// Satellite regression (fallible construction): a certain transfer fault
/// kills `BatchKernelBackend::try_new` during the initial SoA uploads —
/// before any lane state exists. That surfaces as `BackendError::Device`
/// from the constructor, and at the batch level the whole group falls back
/// to stream-per-job instead of erroring or panicking.
#[test]
fn construction_fault_surfaces_device_error_and_streams_the_group() {
    use gplex::{BackendError, BatchKernelBackend, BatchMember};
    use gpu_sim::{FaultConfig, FaultPlan};

    // Direct: the constructor itself is fallible.
    let sf = standardize(&[generator::dense_random(6, 8, 1)]).remove(0);
    let member = BatchMember {
        a: &sf.a,
        b: &sf.b,
        n_active: sf.num_cols() - sf.num_artificials,
        basis0: &sf.basis0,
    };
    let gpu = Gpu::new(DeviceSpec::gtx280());
    gpu.set_fault_plan(FaultPlan::new(FaultConfig {
        transfer_timeout: 1.0,
        ..FaultConfig::off(11)
    }));
    let err = BatchKernelBackend::<f64>::try_new(&gpu, &[member])
        .err()
        .expect("a certain transfer fault cannot construct the backend");
    assert!(
        matches!(err, BackendError::Device(_)),
        "construction fault must be a device error, got: {err}"
    );

    // End-to-end: the group aborts cleanly and streams on the CPU rung.
    let jobs = generator::perturbed_family(4, 6, 9, 3, 0.02);
    let opts = SolverOptions {
        faults: Some(FaultConfig {
            transfer_timeout: 1.0,
            ..FaultConfig::off(11)
        }),
        ..raw_opts()
    };
    let report = BatchSolver::new(BatchOptions {
        mega_batch: true,
        solver: opts,
        policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
        ..Default::default()
    })
    .solve::<f64>(&jobs);
    assert!(report.all_solved(), "stream fallback must drain the group");
    assert_eq!(
        report.stats.mega_groups, 0,
        "construction fault aborts the group"
    );
    assert_eq!(report.stats.ungrouped_jobs, 4);
    for r in &report.results {
        assert_ne!(r.backend, "batch-kernel", "no lane ran on the dead device");
    }
}

/// Differential regression for in-lane corruption recovery: a silent
/// kernel corruption (NaN-poisoned FTRAN/update output, the fault the SoA
/// path previously never saw because only the BLAS layer polled the
/// corruption flag) is absorbed by that lane's emergency reinversion — the
/// family drains fully, the recovered lane re-converges to the solo
/// optimum, and the whole faulted run is a pure function of the seed. The
/// recovery resets the lane's degenerate-step streak exactly like the solo
/// driver's `recover`, so no lane escalates to Bland on stale evidence.
#[test]
fn silent_corruption_is_absorbed_by_lane_recovery() {
    use gpu_sim::FaultConfig;

    let jobs = generator::perturbed_family(6, 12, 18, 13, 0.05);
    let clean = SolverOptions {
        stall_threshold: 2,
        refactor_period: 4,
        ..raw_opts()
    };
    let faulty = SolverOptions {
        faults: Some(
            FaultConfig {
                kernel_corrupt: 0.02,
                warmup_ops: 100,
                ..FaultConfig::off(41)
            }
            .only(&["batch_ftran", "mega_update"]),
        ),
        ..clean.clone()
    };
    assert!(
        mega_compatible(&faulty),
        "corruption injection must be in scope for the mega path"
    );

    let run = || {
        let solver = BatchSolver::new(BatchOptions {
            mega_batch: true,
            solver: faulty.clone(),
            ..Default::default()
        });
        solver.solve::<f64>(&jobs)
    };
    let report = run();
    assert!(
        report.all_solved(),
        "an absorbed corruption is never a terminal error"
    );
    assert_eq!(report.stats.mega_groups, 1, "the family still groups");
    assert!(
        report.stats.device_faults > 0,
        "the injected corruption must actually fire"
    );
    let recoveries: usize = report
        .results
        .iter()
        .filter_map(|r| r.outcome.solution())
        .map(|s| s.stats.nan_recoveries)
        .sum();
    assert!(
        recoveries > 0,
        "the corrupted lane must recover in-lane, not evacuate"
    );
    for (i, r) in report.results.iter().enumerate() {
        let sol = r.outcome.solution().expect("terminal solution");
        let solo = SolveRequest::model(&jobs[i], &clean)
            .on(&BackendKind::CpuDense)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.status, solo.status, "job {i} status");
        assert_eq!(sol.status, Status::Optimal, "job {i} optimal");
        // The off-cadence reinversion reorders the lane's floating point,
        // so the recovered lane matches solo in value, not bitwise.
        assert!(
            (sol.objective - solo.objective).abs() / solo.objective.abs().max(1.0) < 1e-7,
            "job {i}: corrupted-run objective {} vs solo {}",
            sol.objective,
            solo.objective
        );
        for (a, c) in sol.x.iter().zip(&solo.x) {
            assert!((a - c).abs() < 1e-6, "job {i} solution drifted: {a} vs {c}");
        }
    }
    // Chaos determinism: the fault schedule is a pure function of the seed,
    // so a fresh run of the same faulted batch is bitwise identical.
    let again = run();
    assert_eq!(again.stats.device_faults, report.stats.device_faults);
    for (r1, r2) in report.results.iter().zip(&again.results) {
        let s1 = r1.outcome.solution().expect("terminal");
        let s2 = r2.outcome.solution().expect("terminal");
        assert_eq!(s1.objective.to_bits(), s2.objective.to_bits());
        assert_eq!(s1.stats.pivot_fingerprint, s2.stats.pivot_fingerprint);
        assert_eq!(s1.stats.nan_recoveries, s2.stats.nan_recoveries);
    }
}
