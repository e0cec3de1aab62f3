//! The three workloads: what each generates from the seed, what it builds
//! at set-up, and what one measured round does and checks.

use std::sync::Arc;
use std::time::Instant;

use gplex::batch::PlacementPolicy;
use gplex::pdhg::{self, PdhgOptions};
use gplex::verify::check_solution;
use gplex::{
    try_solve_on, try_solve_on_recorded, AlgorithmChoice, BackendKind, BasisRepresentation,
    BatchOptions, BatchReport, BatchSolver, JobOutcome, LpSolution, ResilienceOptions,
    ResilientSolver, SolveError, SolverOptions, Status, Step, TraceRecorder, WarmStartPolicy,
};
use gplex_bench::workload::paper_options;
use gpu_sim::{Counters, DeviceSpec, FaultConfig, Gpu, TimeCategory};
use linalg::Scalar;
use lp::{generator, LinearProgram, StandardForm};

use crate::inputs::{mix, permuted};
use crate::report::{percentile, Fnv, Metrics};
use crate::trace::{pdhg_step, Tracer};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense square LPs in f32, GPU against the single-core CPU baseline.
    DensePaper,
    /// Large sparse LPs in f64, PDHG (via `Auto`) against SparseLU simplex.
    SparseLarge,
    /// One single-worker batch session: mega families, then a faulty mix.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::DensePaper, Workload::SparseLarge, Workload::Fleet];

    /// The command-line name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::DensePaper => "dense-paper",
            Workload::SparseLarge => "sparse-large",
            Workload::Fleet => "fleet",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a shrunken copy for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small models of the same kinds, for the determinism self-test.
    Shrunk,
}

/// The generated inputs of one run.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Every model, in solve order.
    pub models: Vec<LinearProgram>,
    /// `fleet`: the first `part_a` models form the mega-batch part.
    pub part_a: usize,
}

/// Dense-paper models per run.
const DENSE_MODELS: usize = 6;
/// Dense-paper size, inside the band where the simulated GTX 280 beats the
/// single CPU core.
const DENSE_M: usize = 448;
/// Sparse-large base instances (fixed generator seeds).
const SPARSE_BASES: [u64; 2] = [1, 2];
const SPARSE_M: usize = 1024;
const SPARSE_DENSITY: f64 = 0.004;
/// Fleet part (a): families × members of one dense shape.
const FLEET_FAMILIES: usize = 4;
const FLEET_WIDTH: usize = 16;
const FLEET_FAMILY_SHAPE: (usize, usize) = (48, 64);
/// Fleet part (b): distinct mixed models, plus two small families whose
/// members are interleaved with them.
const FLEET_MIXED: usize = 36;
const FLEET_MIXED_FAMILY: usize = 6;
/// Fleet part (b) faults: each per-iteration update chain (`update_fused`)
/// on the shared device faults with this probability, from a fixed seed.
/// Faults are scoped to that one chain because its count follows the
/// iteration count, which the seed's permutations leave unchanged. With
/// every device operation eligible, the faults struck different operations
/// for every seed, and `sim_s` spread by 14 % over ten seeds.
const FLEET_FAULT_P: f64 = 1.5e-3;
const FLEET_FAULT_SEED: u64 = 2026;

/// Generate the inputs of `workload` from `seed`.
pub fn plan(workload: Workload, seed: u64, scale: Scale) -> Plan {
    let full = scale == Scale::Full;
    let mut part_a = 0;
    let models = match workload {
        Workload::DensePaper => {
            let (k, m) = if full {
                (DENSE_MODELS, DENSE_M)
            } else {
                (2, 40)
            };
            (0..k)
                .map(|i| {
                    permuted(
                        &generator::dense_random(m, m, i as u64 + 1),
                        mix(seed, i as u64),
                    )
                })
                .collect()
        }
        Workload::SparseLarge => {
            let (bases, m, d): (&[u64], usize, f64) = if full {
                (&SPARSE_BASES, SPARSE_M, SPARSE_DENSITY)
            } else {
                (&SPARSE_BASES[..1], 300, 0.01)
            };
            bases
                .iter()
                .map(|&b| permuted(&generator::sparse_random(m, m, d, b), mix(seed, b)))
                .collect()
        }
        Workload::Fleet => {
            let (families, width, (fm, fn_), mixed, fam_b) = if full {
                (
                    FLEET_FAMILIES,
                    FLEET_WIDTH,
                    FLEET_FAMILY_SHAPE,
                    FLEET_MIXED,
                    FLEET_MIXED_FAMILY,
                )
            } else {
                (2, 4, (12, 16), 6, 2)
            };
            // One permutation per family keeps a family's members on one
            // constraint matrix, so they still share a warm-start key.
            let family = |count, (m, n), base: u64| -> Vec<LinearProgram> {
                generator::perturbed_family(count, m, n, base, 0.01)
                    .iter()
                    .map(|lp| permuted(lp, mix(seed, base)))
                    .collect()
            };
            let mut models = Vec::new();
            for f in 0..families {
                models.extend(family(width, (fm, fn_), 100 + f as u64));
            }
            part_a = models.len();
            let shapes: [(usize, usize, f64); 6] = if full {
                [
                    (24, 32, 1.0),
                    (64, 80, 1.0),
                    (96, 128, 1.0),
                    (120, 120, 1.0),
                    (150, 150, 0.04),
                    (200, 220, 0.03),
                ]
            } else {
                [
                    (8, 10, 1.0),
                    (12, 16, 1.0),
                    (16, 16, 1.0),
                    (20, 20, 1.0),
                    (30, 30, 0.2),
                    (40, 44, 0.1),
                ]
            };
            let family_shape = if full { (64, 80) } else { (10, 12) };
            let fam1 = family(fam_b, family_shape, 300);
            let fam2 = family(fam_b, family_shape, 301);
            let mut fam = fam1.into_iter().zip(fam2).flat_map(|(a, b)| [a, b]);
            for i in 0..mixed {
                let (m, n, d) = shapes[i % shapes.len()];
                let base = 200 + i as u64;
                let model = if d < 1.0 {
                    generator::sparse_random(m, n, d, base)
                } else {
                    generator::dense_random(m, n, base)
                };
                models.push(permuted(&model, mix(seed, base)));
                if i % 3 == 2 {
                    models.extend(fam.next());
                }
            }
            models.extend(fam);
            models
        }
    };
    Plan {
        workload,
        models,
        part_a,
    }
}

/// Everything built at set-up: the parsed models, the shared device and
/// the solvers.
pub struct State {
    /// Parsed models, in solve order.
    pub models: Vec<LinearProgram>,
    /// The shared simulated GTX 280.
    pub gpu: Arc<Gpu>,
    /// `sparse-large`: the `Auto` resilient solver.
    pub resilient: ResilientSolver,
    /// `fleet`: the mega-batch session part.
    pub batch_a: BatchSolver,
    /// `fleet`: the faulty mixed part.
    pub batch_b: BatchSolver,
}

impl State {
    /// Build the device and solvers around parsed `models`.
    pub fn build(models: Vec<LinearProgram>) -> State {
        let gpu = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let shared = BackendKind::GpuShared(gpu.clone());
        let resilient = ResilientSolver::new(ResilienceOptions {
            algorithm: AlgorithmChoice::Auto,
            ..Default::default()
        });
        let batch_a = BatchSolver::new(BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(shared.clone()),
            solver: SolverOptions::default(),
            warm_start: WarmStartPolicy::Family { tol: 1e-6 },
            mega_batch: true,
            ..Default::default()
        });
        let batch_b = BatchSolver::new(BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(shared),
            solver: SolverOptions::default(),
            resilience: Some(ResilienceOptions {
                faults: Some(
                    FaultConfig::uniform(FLEET_FAULT_SEED, FLEET_FAULT_P).only(&["update_fused"]),
                ),
                algorithm: AlgorithmChoice::Auto,
                quarantine_after: 3,
                ..Default::default()
            }),
            warm_start: WarmStartPolicy::Family { tol: 1e-6 },
            ..Default::default()
        });
        State {
            models,
            gpu,
            resilient,
            batch_a,
            batch_b,
        }
    }
}

/// What one measured round produced.
#[derive(Debug)]
pub struct Round {
    /// Host seconds of the solve phase (answer checks excluded).
    pub wall: f64,
    /// Host seconds of each timed call of the round (one solve, or one
    /// batch session), in call order; the same calls in every round.
    pub calls: Vec<f64>,
    /// Modeled seconds of every solve in the round.
    pub sim: f64,
    /// Solves (or batch jobs) attempted.
    pub attempted: usize,
    /// One line per failed solve or failed check.
    pub failures: Vec<String>,
    /// Hash over every solve's pivot fingerprint, modeled time and status.
    pub fingerprint: u64,
    /// Count-type and modeled per-layer metrics (repeat exactly).
    pub counts: Metrics,
    /// Host-time per-layer metrics measured without tracing.
    pub host: Metrics,
    /// Spans of a traced round.
    pub tracer: Option<Tracer>,
}

/// Host seconds and modeled seconds accrued by one backend in a round.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    jobs: f64,
    sim: f64,
    wall: f64,
}

/// Backend labels reported individually; anything else reports as `other`.
pub const BACKEND_LABELS: [&str; 7] = [
    "gpu-shared",
    "gpu-dense",
    "cpu-dense",
    "cpu-sparse",
    "batch-kernel",
    "pdhg-gpu-shared",
    "pdhg-cpu-sparse",
];

/// Labels whose host time runs the device simulator.
fn on_device(label: &str) -> bool {
    label.contains("gpu") || label == "batch-kernel"
}

fn backend_key(label: &str) -> &str {
    if BACKEND_LABELS.contains(&label) {
        label
    } else {
        "other"
    }
}

/// Per-round accumulator shared by the workloads.
#[derive(Default)]
struct Acc {
    counts: Metrics,
    host: Metrics,
    fp: Fnv,
    sim: f64,
    attempted: usize,
    failures: Vec<String>,
    tallies: std::collections::BTreeMap<String, Tally>,
}

impl Acc {
    /// Fold one solution's statistics into the layer counts and the
    /// fingerprint. PDHG solves (no pivots) count under `pdhg.*` only.
    fn solution(&mut self, sol: &LpSolution) {
        let s = &sol.stats;
        let sim = s.total_time().as_secs_f64();
        self.fp.mix(s.pivot_fingerprint);
        self.fp.mix(sim.to_bits());
        self.fp.mix(s.iterations as u64);
        self.fp.mix(s.pdhg_iterations);
        self.fp.mix(sol.status as u64);
        let c = &mut self.counts;
        if s.pdhg_iterations > 0 && s.iterations == 0 {
            c.add("pdhg.iterations", s.pdhg_iterations as f64, "count");
            c.add("pdhg.restarts", s.restarts as f64, "count");
            c.add("pdhg.sim_s", sim, "s");
            c.add("auto.pdhg_jobs", 1.0, "count");
        } else {
            c.add("simplex.iterations", s.iterations as f64, "count");
            c.add(
                "simplex.phase1_iterations",
                s.phase[0].iterations as f64,
                "count",
            );
            c.add(
                "simplex.degenerate_steps",
                s.degenerate_steps as f64,
                "count",
            );
            c.add(
                "simplex.refactorizations",
                s.refactorizations as f64,
                "count",
            );
            for step in Step::ALL {
                c.add(
                    format!("simplex.sim.{}", step.label()),
                    s.time(step).as_secs_f64(),
                    "s",
                );
            }
            c.add("lu.fill_in", s.lu_fill_in as f64, "count");
            c.add("lu.refactor_nnz", s.lu_refactor_nnz as f64, "count");
            c.add(
                "lu.markowitz_rejections",
                s.markowitz_rejections as f64,
                "count",
            );
            c.add("auto.simplex_jobs", 1.0, "count");
        }
    }

    fn tally(&mut self, label: &str, sim: f64, wall: f64) {
        let t = self
            .tallies
            .entry(backend_key(label).to_string())
            .or_default();
        t.jobs += 1.0;
        t.sim += sim;
        t.wall += wall;
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Close the round: backend tallies and device counters become metrics.
    fn finish(
        mut self,
        wall: f64,
        calls: Vec<f64>,
        before: &Counters,
        after: &Counters,
        tracer: Option<Tracer>,
    ) -> Round {
        let mut device_wall = 0.0;
        for (label, t) in &self.tallies {
            self.counts
                .set(format!("backend.{label}.jobs"), t.jobs, "count");
            self.counts
                .set(format!("backend.{label}.sim_s"), t.sim, "s");
            self.host
                .set(format!("backend.{label}.wall_s"), t.wall, "s");
            if on_device(label) {
                device_wall += t.wall;
            }
        }
        let c = &mut self.counts;
        let d = |f: fn(&Counters) -> u64| (f(after) - f(before)) as f64;
        let launches = d(|k| k.kernels_launched);
        c.set("gpu.kernels_launched", launches, "count");
        c.set("gpu.fused_groups", d(|k| k.fused_groups), "count");
        c.set("gpu.h2d_bytes", d(|k| k.h2d_bytes), "bytes");
        c.set("gpu.d2h_bytes", d(|k| k.d2h_bytes), "bytes");
        let mem = d(|k| k.mem_bytes);
        let flops = d(|k| k.flops);
        c.set("gpu.mem_bytes", mem, "bytes");
        c.set("gpu.flops", flops, "count");
        c.set(
            "gpu.flops_per_byte",
            if mem > 0.0 { flops / mem } else { 0.0 },
            "ratio",
        );
        for (cat, name) in [
            (TimeCategory::KernelBody, "kernel-body"),
            (TimeCategory::LaunchOverhead, "launch-overhead"),
            (TimeCategory::TransferH2D, "transfer-h2d"),
            (TimeCategory::TransferD2H, "transfer-d2h"),
        ] {
            let t =
                after.breakdown.get(cat).as_secs_f64() - before.breakdown.get(cat).as_secs_f64();
            c.set(format!("gpu.sim.{name}"), t, "s");
        }
        let active = d(|k| k.batch_lanes_active);
        let idle = d(|k| k.batch_lanes_idle);
        c.set(
            "mega.lane_util",
            if active + idle > 0.0 {
                active / (active + idle)
            } else {
                0.0
            },
            "ratio",
        );
        let device_sim = after.elapsed.as_secs_f64() - before.elapsed.as_secs_f64();
        self.host.set(
            "gpu.host_us_per_launch",
            if launches > 0.0 {
                1e6 * device_wall / launches
            } else {
                0.0
            },
            "us",
        );
        self.host.set(
            "gpu.sim_per_host",
            if device_wall > 0.0 {
                device_sim / device_wall
            } else {
                0.0
            },
            "ratio",
        );
        self.fp.mix(self.sim.to_bits());
        Round {
            wall,
            calls,
            sim: self.sim,
            attempted: self.attempted,
            failures: self.failures,
            fingerprint: self.fp.0,
            counts: self.counts,
            host: self.host,
            tracer,
        }
    }
}

/// One simplex solve through the high-level pipeline; traced rounds call
/// the recorded entry point inside a span and attach its step split.
fn simplex_solve<T: Scalar>(
    tracer: Option<&mut Tracer>,
    job: usize,
    model: &LinearProgram,
    opts: &SolverOptions,
    kind: &BackendKind,
) -> (Result<LpSolution, SolveError>, f64) {
    let label = kind.label();
    match tracer {
        None => {
            let t0 = Instant::now();
            let res = try_solve_on::<T>(model, opts, kind);
            (res, t0.elapsed().as_secs_f64())
        }
        Some(tr) => {
            let mut rec = TraceRecorder::new();
            let (res, id) = tr.call(
                "try_solve_on_recorded",
                format!("core::solver@{label}"),
                "pipeline",
                Some(job),
                || try_solve_on_recorded::<T, _>(model, opts, kind, &mut rec),
            );
            if let Ok(sol) = &res {
                tr.spans[id].sim = sol.stats.total_time().as_secs_f64();
            }
            tr.children_from_recorder(id, &format!("core::revised@{label}"), &rec, |k| k.name());
            (res, tr.spans[id].wall())
        }
    }
}

/// `lp` layer probes: presolve and standardize every model the way the
/// solve pipeline does, each call in its own span. Run before a traced
/// round's solve phase, so they add nothing to its wall time.
fn lp_probes<T: Scalar>(models: &[LinearProgram], presolve: bool) -> Tracer {
    let mut tr = Tracer::default();
    for (i, m) in models.iter().enumerate() {
        let reduced = if presolve {
            match tr
                .call(
                    "presolve::presolve",
                    "lp::presolve",
                    "presolve",
                    Some(i),
                    || lp::presolve::presolve(m),
                )
                .0
            {
                lp::presolve::PresolveResult::Reduced(p) => Some(p.lp),
                _ => None,
            }
        } else {
            None
        };
        let work = reduced.as_ref().unwrap_or(m);
        let _ = tr.call(
            "StandardForm::from_lp",
            "lp::standard",
            "standardize",
            Some(i),
            || StandardForm::<T>::from_lp(work).is_ok(),
        );
    }
    tr
}

/// Check a pair of answers to one model: each verified on the original
/// model, both optimal, objectives within `rel` of each other.
fn check_pair(
    acc: &mut Acc,
    model: &LinearProgram,
    a: (&str, &Result<LpSolution, SolveError>),
    b: (&str, &Result<LpSolution, SolveError>),
    tol: f64,
    rel: f64,
) {
    let name = &model.name;
    let mut ok = [None, None];
    for (slot, (label, res)) in ok.iter_mut().zip([a, b]) {
        match res {
            Err(e) => acc.fail(format!("{name} [{label}]: {e}")),
            Ok(sol) if sol.status != Status::Optimal => {
                acc.fail(format!("{name} [{label}]: status {}", sol.status.tag()))
            }
            Ok(sol) => match check_solution(model, sol, tol) {
                Err(e) => acc.fail(format!("{name} [{label}]: {e}")),
                Ok(()) => *slot = Some(sol.objective),
            },
        }
    }
    if let [Some(x), Some(y)] = ok {
        if (x - y).abs() > rel * y.abs().max(1.0) {
            acc.fail(format!(
                "{name}: {} objective {x} vs {} objective {y}",
                a.0, b.0
            ));
        }
    }
}

/// `dense-paper`: every model on the shared GPU and on one CPU core, f32,
/// paper configuration.
fn dense_round(st: &State, mut tracer: Option<Tracer>) -> Round {
    let opts = paper_options();
    let kinds = [
        BackendKind::GpuShared(st.gpu.clone()),
        BackendKind::CpuDense,
    ];
    let before = st.gpu.counters();
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(st.models.len());
    for (i, m) in st.models.iter().enumerate() {
        let pair: Vec<_> = kinds
            .iter()
            .map(|k| simplex_solve::<f32>(tracer.as_mut(), i, m, &opts, k))
            .collect();
        results.push(pair);
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = st.gpu.counters();

    let mut acc = Acc::default();
    let mut sims = [0.0f64; 2];
    for (m, pair) in st.models.iter().zip(&results) {
        for (j, (res, w)) in pair.iter().enumerate() {
            acc.attempted += 1;
            let sim = res
                .as_ref()
                .map_or(0.0, |s| s.stats.total_time().as_secs_f64());
            if let Ok(sol) = res {
                acc.solution(sol);
                acc.counts
                    .add("gpu.faults", sol.stats.device_faults as f64, "count");
            }
            acc.sim += sim;
            sims[j] += sim;
            acc.tally(kinds[j].label(), sim, *w);
        }
        check_pair(
            &mut acc,
            m,
            ("gpu-shared", &pair[0].0),
            ("cpu-dense", &pair[1].0),
            1e-4,
            1e-4,
        );
    }
    acc.counts.set(
        "backend.gpu_speedup",
        if sims[0] > 0.0 {
            sims[1] / sims[0]
        } else {
            0.0
        },
        "ratio",
    );
    let calls = results.iter().flatten().map(|(_, w)| *w).collect();
    acc.finish(wall, calls, &before, &after, tracer)
}

/// `sparse-large`: every model through the `Auto` resilient ladder on the
/// shared GPU, and by SparseLU simplex on the sparse CPU backend, f64.
///
/// `ResilientSolver::solve_job` takes no recorder, so a traced round
/// replays the ladder's first rung with the recorded entry point of the
/// family `Auto` picks; the run compares the replay's fingerprint with the
/// untraced rounds'.
fn sparse_round(st: &State, mut tracer: Option<Tracer>) -> Round {
    let opts = SolverOptions::default();
    let lu_opts = SolverOptions {
        basis_representation: BasisRepresentation::SparseLU,
        ..SolverOptions::default()
    };
    let gpu_kind = BackendKind::GpuShared(st.gpu.clone());
    let before = st.gpu.counters();
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(st.models.len());
    for (i, m) in st.models.iter().enumerate() {
        let first = match tracer.as_mut() {
            None => {
                let t = Instant::now();
                let out = st.resilient.solve_job::<f64>(i as u64, m, &opts, &gpu_kind);
                let w = t.elapsed().as_secs_f64();
                (
                    out.result,
                    w,
                    out.final_backend,
                    Some((
                        out.attempts,
                        out.retries,
                        out.degradations,
                        out.checkpoint_resumes,
                        out.wasted_iterations,
                    )),
                )
            }
            Some(tr) => {
                let prefers_pdhg = pdhg::crossover_prefers_pdhg(
                    m.num_constraints(),
                    m.num_vars(),
                    pdhg::model_density(m),
                );
                if prefers_pdhg {
                    let popts = PdhgOptions {
                        presolve: opts.presolve,
                        scale: opts.scale,
                        ..PdhgOptions::default()
                    };
                    let mut rec = TraceRecorder::new();
                    let (res, id) = tr.call(
                        "pdhg::try_solve_on_recorded",
                        "core::pdhg@gpu-shared",
                        "pipeline",
                        Some(i),
                        || pdhg::try_solve_on_recorded::<f64, _>(m, &popts, &gpu_kind, &mut rec),
                    );
                    if let Ok(sol) = &res {
                        tr.spans[id].sim = sol.stats.total_time().as_secs_f64();
                    }
                    tr.children_from_recorder(id, "core::pdhg@gpu-shared", &rec, pdhg_step);
                    (res, tr.spans[id].wall(), "pdhg-gpu-shared", None)
                } else {
                    let (res, w) = simplex_solve::<f64>(Some(tr), i, m, &opts, &gpu_kind);
                    (res, w, "gpu-shared", None)
                }
            }
        };
        let lu = simplex_solve::<f64>(tracer.as_mut(), i, m, &lu_opts, &BackendKind::CpuSparse);
        results.push((first, lu));
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = st.gpu.counters();

    let mut acc = Acc::default();
    for (m, ((res, w, label, ladder), (lu, lu_w))) in st.models.iter().zip(&results) {
        for (label, res, w) in [(*label, res, *w), ("cpu-sparse", lu, *lu_w)] {
            acc.attempted += 1;
            let sim = res
                .as_ref()
                .map_or(0.0, |s| s.stats.total_time().as_secs_f64());
            if let Ok(sol) = res {
                acc.solution(sol);
                acc.counts
                    .add("gpu.faults", sol.stats.device_faults as f64, "count");
            }
            acc.sim += sim;
            acc.tally(label, sim, w);
        }
        if let Some((attempts, retries, degradations, resumes, wasted)) = ladder {
            let c = &mut acc.counts;
            c.add("resilient.jobs", 1.0, "count");
            c.add("resilient.attempts", *attempts as f64, "count");
            c.add("resilient.retries", *retries as f64, "count");
            c.add("resilient.degradations", *degradations as f64, "count");
            c.add("resilient.checkpoint_resumes", *resumes as f64, "count");
            c.add("resilient.wasted_iterations", *wasted as f64, "count");
            c.add(
                "resilient.first_try",
                (*attempts == 1) as u8 as f64,
                "count",
            );
        }
        check_pair(&mut acc, m, (label, res), ("cpu-sparse", lu), 1e-6, 1e-6);
    }
    let calls = results
        .iter()
        .flat_map(|((_, w, _, _), (_, lu_w))| [*w, *lu_w])
        .collect();
    acc.finish(wall, calls, &before, &after, tracer)
}

/// `fleet`: part (a) on the mega path with family warm starts, then part
/// (b) through the resilient ladder under faults — one worker each.
fn fleet_round(plan_part_a: usize, st: &State, mut tracer: Option<Tracer>) -> Round {
    let (a, b) = st.models.split_at(plan_part_a);
    let before = st.gpu.counters();
    let t0 = Instant::now();
    let mut reports: Vec<(BatchReport, &str)> = Vec::with_capacity(2);
    let mut calls = Vec::with_capacity(2);
    for (solver, jobs, part) in [(&st.batch_a, a, "a"), (&st.batch_b, b, "b")] {
        let t = Instant::now();
        let rep = match tracer.as_mut() {
            None => solver.solve::<f64>(jobs),
            Some(tr) => {
                let (rep, id) = tr.call(
                    "BatchSolver::solve",
                    "core::batch",
                    "outside-jobs",
                    None,
                    || solver.solve::<f64>(jobs),
                );
                tr.spans[id].sim = rep.stats.sim_total.as_secs_f64();
                for r in &rep.results {
                    let layer = match (part, r.backend) {
                        (_, "batch-kernel") => "core::batch::mega".to_string(),
                        ("a", label) => format!("core::solver@{label}"),
                        (_, label) => format!("core::resilient@{label}"),
                    };
                    tr.child(
                        id,
                        "job",
                        layer,
                        "job",
                        r.wall_seconds,
                        r.sim_time.as_secs_f64(),
                    );
                }
                rep
            }
        };
        calls.push(t.elapsed().as_secs_f64());
        reports.push((rep, part));
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = st.gpu.counters();

    let mut acc = Acc::default();
    let mut job_walls = Vec::new();
    let models = a.iter().chain(b);
    let results = reports
        .iter()
        .flat_map(|(rep, part)| rep.results.iter().map(move |r| (r, *part)));
    for (m, (r, part)) in models.zip(results) {
        acc.attempted += 1;
        job_walls.push(r.wall_seconds);
        acc.tally(r.backend, r.sim_time.as_secs_f64(), r.wall_seconds);
        acc.fp.mix(r.backend.len() as u64);
        acc.fp.mix(r.warm_hit as u64);
        acc.fp.mix(r.retries as u64);
        acc.fp.mix(r.degradations as u64);
        acc.fp.mix(r.faults);
        if part == "b" {
            let c = &mut acc.counts;
            c.add("resilient.jobs", 1.0, "count");
            c.add(
                "resilient.attempts",
                (1 + r.retries + r.degradations) as f64,
                "count",
            );
            c.add("resilient.retries", r.retries as f64, "count");
            c.add("resilient.degradations", r.degradations as f64, "count");
            c.add(
                "resilient.wasted_iterations",
                r.wasted_iterations as f64,
                "count",
            );
            c.add(
                "resilient.first_try",
                (r.retries == 0 && r.degradations == 0) as u8 as f64,
                "count",
            );
            if let Some(sol) = r.outcome.solution() {
                c.add(
                    "resilient.checkpoint_resumes",
                    sol.stats.checkpoint_resumes as f64,
                    "count",
                );
            }
        }
        match &r.outcome {
            JobOutcome::Solved(sol) => {
                acc.solution(sol);
                if sol.status != Status::Optimal {
                    acc.fail(format!(
                        "{} (job {}): status {}",
                        m.name,
                        r.index,
                        sol.status.tag()
                    ));
                } else if let Err(e) = check_solution(m, sol, 1e-6) {
                    acc.fail(format!("{} (job {}): {e}", m.name, r.index));
                }
            }
            JobOutcome::Failed(e) | JobOutcome::Panicked(e) => {
                acc.fail(format!("{} (job {}): {}", m.name, r.index, e))
            }
        }
    }
    let c = &mut acc.counts;
    let mut outside = 0.0;
    for (rep, _) in &reports {
        let s = &rep.stats;
        acc.sim += s.sim_total.as_secs_f64();
        c.add("batch.sim_makespan_s", s.sim_makespan.as_secs_f64(), "s");
        c.add("mega.groups", s.mega_groups as f64, "count");
        c.add("mega.grouped_jobs", s.grouped_jobs as f64, "count");
        c.add("cache.hits", s.warm_hits as f64, "count");
        c.add("cache.misses", s.warm_misses as f64, "count");
        c.add("cache.rejected", s.warm_rejected as f64, "count");
        c.add(
            "cache.iterations_saved",
            s.warm_iterations_saved as f64,
            "count",
        );
        c.add("gpu.faults", s.device_faults as f64, "count");
        let jobs_wall: f64 = rep.results.iter().map(|r| r.wall_seconds).sum();
        outside += s.wall_seconds - jobs_wall;
    }
    acc.host.set("batch.outside_jobs_s", outside, "s");
    acc.host
        .set("batch.job_wall_p50_s", percentile(&job_walls, 0.5), "s");
    acc.host
        .set("batch.job_wall_p90_s", percentile(&job_walls, 0.9), "s");
    acc.counts
        .set("batch.job_wall_samples", job_walls.len() as f64, "count");
    acc.finish(wall, calls, &before, &after, tracer)
}

/// Run one measured round of `plan`'s workload on `st`. With `traced`, the
/// round records spans (and `lp` probes run first, outside its timing).
pub fn round(plan: &Plan, st: &State, traced: bool) -> (Round, Option<Tracer>) {
    let probes = traced.then(|| match plan.workload {
        Workload::DensePaper => lp_probes::<f32>(&st.models, paper_options().presolve),
        _ => lp_probes::<f64>(&st.models, true),
    });
    let tracer = traced.then(Tracer::default);
    let round = match plan.workload {
        Workload::DensePaper => dense_round(st, tracer),
        Workload::SparseLarge => sparse_round(st, tracer),
        Workload::Fleet => fleet_round(plan.part_a, st, tracer),
    };
    (round, probes)
}
