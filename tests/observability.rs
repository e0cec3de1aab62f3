//! Observability integration tests: step tracing, the metrics registry,
//! deadline enforcement between steps, and the solver-accounting
//! invariants the bugfix sweep pinned down.

use std::time::{Duration, Instant};

use gplex::backends::CpuDenseBackend;
use gplex::trace::{StepKind, TraceRecorder};
use gplex::{
    Backend, BackendError, BackendKind, MetricValue, MetricsRegistry, NoopRecorder, RatioOutcome,
    RevisedSimplex, SolveError, SolveRequest, SolverOptions, Start, Status, Step,
};
use gpu_sim::{DeviceSpec, SimTime};
use lp::generator::{self, fixtures};
use lp::StandardForm;

fn backends() -> Vec<BackendKind> {
    vec![
        BackendKind::CpuDense,
        BackendKind::CpuSparse,
        BackendKind::GpuDense(DeviceSpec::gtx280()),
    ]
}

fn no_pipeline() -> SolverOptions {
    SolverOptions {
        presolve: false,
        scale: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Satellite: deadline checks between backend steps, not once per iteration.
// ---------------------------------------------------------------------------

/// A backend wrapper that makes each step take real host time: fast setup,
/// slow per-iteration ops, and one pathologically slow update. With the
/// deadline only checked at the top of the iteration loop, a timeout set
/// below one iteration's cost overshoots by the whole iteration (including
/// the slow update); with per-step checks it fires right after pricing.
struct SlowBackend<'a> {
    inner: &'a mut CpuDenseBackend<f64>,
    step_sleep: Duration,
    update_sleep: Duration,
}

impl Backend<f64> for SlowBackend<'_> {
    fn name(&self) -> &'static str {
        "slow-test"
    }
    fn clock(&self) -> SimTime {
        self.inner.clock()
    }
    fn m(&self) -> usize {
        self.inner.m()
    }
    fn n_active(&self) -> usize {
        self.inner.n_active()
    }
    fn set_phase_costs(&mut self, c: &[f64]) -> Result<(), BackendError> {
        self.inner.set_phase_costs(c)
    }
    fn set_basic_costs(&mut self, cb: &[f64]) -> Result<(), BackendError> {
        self.inner.set_basic_costs(cb)
    }
    fn compute_btran(&mut self) -> Result<(), BackendError> {
        std::thread::sleep(self.step_sleep);
        self.inner.compute_btran()
    }
    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError> {
        std::thread::sleep(self.step_sleep);
        self.inner.compute_pricing_window(start, len)
    }
    fn entering_dantzig_window(
        &mut self,
        tol: f64,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, f64)>, BackendError> {
        std::thread::sleep(self.step_sleep);
        self.inner.entering_dantzig_window(tol, start, len)
    }
    fn entering_bland(&mut self, tol: f64) -> Result<Option<(usize, f64)>, BackendError> {
        self.inner.entering_bland(tol)
    }
    fn compute_alpha(&mut self, q: usize) -> Result<(), BackendError> {
        std::thread::sleep(self.step_sleep);
        self.inner.compute_alpha(q)
    }
    fn ratio_test(&mut self, pivot_tol: f64) -> Result<RatioOutcome<f64>, BackendError> {
        std::thread::sleep(self.step_sleep);
        self.inner.ratio_test(pivot_tol)
    }
    fn pivot(&mut self, p: usize, q: usize, theta: f64, cost: f64) -> Result<(), BackendError> {
        std::thread::sleep(self.update_sleep);
        self.inner.pivot(p, q, theta, cost)
    }
    fn beta(&mut self) -> Result<Vec<f64>, BackendError> {
        self.inner.beta()
    }
    fn objective_now(&mut self) -> Result<f64, BackendError> {
        self.inner.objective_now()
    }
    fn refactorize(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        self.inner.refactorize(basis)
    }
    fn alpha_at(&mut self, i: usize) -> Result<f64, BackendError> {
        self.inner.alpha_at(i)
    }
}

/// Regression: the deadline must fire between steps. Each per-iteration op
/// sleeps 20 ms, the update sleeps 300 ms, and the limit is 50 ms — with
/// per-step checks the solve errors out well before the update runs
/// (≈60–80 ms); the pre-fix loop-top-only check sat through the whole
/// iteration (≥360 ms) first.
#[test]
fn time_limit_fires_between_steps_not_once_per_iteration() {
    let (model, _) = fixtures::wyndor(); // all ≤ rows: slack basis, no phase 1
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    assert_eq!(sf.num_artificials, 0, "fixture must skip phase 1");
    let n_active = sf.num_cols() - sf.num_artificials;
    let mut inner = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
    let mut be = SlowBackend {
        inner: &mut inner,
        step_sleep: Duration::from_millis(20),
        update_sleep: Duration::from_millis(300),
    };
    let opts = SolverOptions {
        time_limit: Some(0.05),
        ..no_pipeline()
    };
    let wall = Instant::now();
    let res = RevisedSimplex::new(
        &mut be,
        &sf,
        &opts,
        Start::Cold,
        None,
        None::<&mut NoopRecorder>,
    )
    .try_solve();
    let elapsed = wall.elapsed().as_secs_f64();
    match res {
        Err(SolveError::Timeout { limit_seconds, .. }) => {
            assert!((limit_seconds - 0.05).abs() < 1e-12)
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        elapsed < 0.2,
        "deadline overshot to {elapsed:.3}s — checked only at the iteration top?"
    );
}

// ---------------------------------------------------------------------------
// Satellite: per-phase counters partition the totals, on every backend.
// ---------------------------------------------------------------------------

#[test]
fn phase_counters_partition_totals_on_every_backend() {
    // Mix of one-phase, two-phase, and degenerate instances.
    let models = vec![
        fixtures::wyndor().0,
        fixtures::two_phase().0,
        fixtures::degenerate().0,
        fixtures::beale_cycling().0,
        generator::transportation(&[30.0, 70.0], &[40.0, 60.0], 3),
        generator::dense_random(12, 16, 9),
    ];
    for kind in backends() {
        for model in &models {
            let sf = StandardForm::<f64>::from_lp(model).unwrap();
            let res = SolveRequest::standard(&sf, &no_pipeline())
                .on(&kind)
                .run()
                .unwrap();
            res.stats
                .check_invariants()
                .unwrap_or_else(|e| panic!("{kind:?} on {}: {e}", model.name));
            assert_eq!(
                res.stats.iterations,
                res.stats.phase1_iterations + res.stats.phase2_iterations(),
                "{kind:?} on {}",
                model.name
            );
        }
    }
    // The suite must exercise both phases somewhere (a split that is
    // trivially all-phase-1 or all-phase-2 would not test the partition).
    let both_phases = models.iter().any(|model| {
        let sf = StandardForm::<f64>::from_lp(model).unwrap();
        let res = SolveRequest::standard(&sf, &no_pipeline())
            .on(&BackendKind::CpuDense)
            .run()
            .unwrap();
        res.stats.phase1_iterations > 0 && res.stats.phase2_iterations() > 0
    });
    assert!(both_phases, "no fixture iterated in both phases");
}

// ---------------------------------------------------------------------------
// Accounting: spans and legacy Step charges cover the whole solve.
// ---------------------------------------------------------------------------

/// On the CPU backend the modeled clock only advances inside charged ops,
/// so after the accounting-gap fixes (phase-1 objective read, artificial
/// guard, terminal β download) the per-step totals must equal the backend
/// clock exactly — nothing the backend did goes unattributed.
#[test]
fn cpu_step_totals_equal_backend_clock() {
    // Two-phase + artificials: exercises every formerly-uncharged path.
    let model = generator::transportation(&[30.0, 70.0], &[40.0, 60.0], 3);
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    let n_active = sf.num_cols() - sf.num_artificials;
    let mut be = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
    let res = RevisedSimplex::new(
        &mut be,
        &sf,
        &no_pipeline(),
        Start::Cold,
        None,
        None::<&mut NoopRecorder>,
    )
    .try_solve()
    .unwrap();
    assert_eq!(res.status, Status::Optimal);
    let clock = be.clock().as_nanos();
    let charged = res.stats.total_time().as_nanos();
    assert!(
        (clock - charged).abs() <= 1e-6 * clock.max(1.0),
        "backend clock {clock} ns vs charged {charged} ns — an op went uncharged"
    );
}

/// The trace sees the same simulated time as the legacy accounting, with
/// the documented kind↔step mapping, and recording does not perturb the
/// solve (identical iterate path and simulated clock with and without a
/// recorder).
#[test]
fn trace_spans_match_legacy_step_accounting() {
    let model = generator::dense_random(16, 24, 5);
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    for kind in backends() {
        let plain = SolveRequest::standard(&sf, &no_pipeline())
            .on(&kind)
            .run()
            .unwrap();
        let mut rec = TraceRecorder::new();
        let traced = SolveRequest::standard(&sf, &no_pipeline())
            .on(&kind)
            .recorder(&mut rec)
            .run()
            .unwrap();

        // Recording is invisible to the solve itself.
        assert_eq!(traced.status, plain.status, "{kind:?}");
        assert_eq!(traced.stats.iterations, plain.stats.iterations, "{kind:?}");
        assert_eq!(
            traced.stats.total_time(),
            plain.stats.total_time(),
            "{kind:?}"
        );

        // Span totals reproduce the Step ledger under the fixed mapping.
        let t = &rec.timings;
        let close = |a: SimTime, b: SimTime| (a.as_nanos() - b.as_nanos()).abs() < 1e-3;
        assert!(close(t.total_time(), traced.stats.total_time()), "{kind:?}");
        assert!(
            close(t.get(StepKind::Ftran).total, traced.stats.time(Step::Ftran)),
            "{kind:?}"
        );
        assert!(
            close(
                t.get(StepKind::RatioTest).total,
                traced.stats.time(Step::RatioTest)
            ),
            "{kind:?}"
        );
        assert!(
            close(
                t.get(StepKind::UpdateBasis).total,
                traced.stats.time(Step::Update)
            ),
            "{kind:?}"
        );
        assert!(
            close(
                t.get(StepKind::Refactorize).total,
                traced.stats.time(Step::Refactor)
            ),
            "{kind:?}"
        );
        assert!(
            close(
                t.get(StepKind::Transfer).total,
                traced.stats.time(Step::Other)
            ),
            "{kind:?}"
        );
        // BTRAN and window pricing split the legacy Pricing charge; the
        // selection scan is charged to Step::Selection but traced under the
        // Pricing kind.
        assert!(
            close(
                t.get(StepKind::Pricing).total + t.get(StepKind::Btran).total,
                traced.stats.time(Step::Pricing) + traced.stats.time(Step::Selection)
            ),
            "{kind:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Determinism and post-mortem traces.
// ---------------------------------------------------------------------------

/// Identical seeds produce bitwise-identical event traces (events carry only
/// deterministic simulated-clock data, never host time).
#[test]
fn same_seed_solves_produce_identical_event_traces() {
    let run = || {
        let model = generator::dense_random(20, 28, 11);
        let sf = StandardForm::<f32>::from_lp(&model).unwrap();
        let mut rec = TraceRecorder::with_events(1 << 14);
        SolveRequest::standard(&sf, &no_pipeline())
            .on(&BackendKind::GpuDense(DeviceSpec::gtx280()))
            .recorder(&mut rec)
            .run()
            .unwrap();
        rec
    };
    let (a, b) = (run(), run());
    assert!(!a.events.is_empty());
    assert_eq!(a.events.fingerprint(), b.events.fingerprint());
    assert_eq!(a.events.seen(), b.events.seen());
    for (ea, eb) in a.events.iter().zip(b.events.iter()) {
        assert_eq!(ea, eb);
    }
}

/// A solve that dies mid-flight leaves its partial trace with the caller:
/// the recorder outlives the failed solve, so the events up to the failure
/// are available for post-mortem.
#[test]
fn failed_solve_leaves_partial_trace_for_post_mortem() {
    let (model, _) = fixtures::wyndor();
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    let n_active = sf.num_cols() - sf.num_artificials;
    let mut inner = CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
    let mut be = SlowBackend {
        inner: &mut inner,
        step_sleep: Duration::from_millis(20),
        update_sleep: Duration::from_millis(300),
    };
    let opts = SolverOptions {
        time_limit: Some(0.05),
        ..no_pipeline()
    };
    let mut rec = TraceRecorder::with_events(256);
    let res =
        RevisedSimplex::new(&mut be, &sf, &opts, Start::Cold, None, Some(&mut rec)).try_solve();
    assert!(matches!(res, Err(SolveError::Timeout { .. })));
    assert!(
        rec.timings.spans() > 0,
        "partial trace must survive the error"
    );
    assert!(!rec.events.is_empty());
    // The trace shows pricing ran; the 300 ms update never did.
    assert!(rec.timings.get(StepKind::Btran).count > 0);
    assert_eq!(rec.timings.get(StepKind::UpdateBasis).count, 0);
}

// ---------------------------------------------------------------------------
// Metrics registry over real solves.
// ---------------------------------------------------------------------------

#[test]
fn metrics_snapshot_agrees_with_solve_stats() {
    let model = generator::transportation(&[30.0, 70.0], &[40.0, 60.0], 3);
    let sf = StandardForm::<f64>::from_lp(&model).unwrap();
    let mut rec = TraceRecorder::new();
    let res = SolveRequest::standard(&sf, &no_pipeline())
        .on(&BackendKind::CpuDense)
        .recorder(&mut rec)
        .run()
        .unwrap();

    let mut reg = MetricsRegistry::new();
    reg.observe_solve(&res.stats);
    reg.observe_timings(&rec.timings);
    let snap = reg.snapshot();

    assert_eq!(
        snap.get("solve.iterations"),
        Some(MetricValue::Counter(res.stats.iterations as u64))
    );
    assert_eq!(
        snap.get("solve.phase1.iterations"),
        Some(MetricValue::Counter(res.stats.phase1_iterations as u64))
    );
    assert_eq!(
        snap.get("solve.phase2.iterations"),
        Some(MetricValue::Counter(res.stats.phase2_iterations() as u64))
    );
    // Per-step counters mirror the trace.
    for kind in StepKind::ALL {
        let name = format!("trace.step.{}.count", kind.name());
        assert_eq!(
            snap.get(&name),
            Some(MetricValue::Counter(rec.timings.get(kind).count)),
            "{name}"
        );
    }
    // Gauge sums match the trace totals.
    let sim_sum: f64 = StepKind::ALL
        .iter()
        .map(
            |k| match snap.get(&format!("trace.step.{}.sim_seconds", k.name())) {
                Some(MetricValue::Gauge(g)) => g,
                other => panic!("missing gauge: {other:?}"),
            },
        )
        .sum();
    assert!((sim_sum - rec.timings.total_time().as_secs_f64()).abs() < 1e-12);
    // Exporters stay in sync with the snapshot.
    let csv = snap.to_csv();
    assert!(csv.lines().count() == snap.len() + 1);
    assert!(snap.to_json().contains("\"solve.iterations\""));
}
