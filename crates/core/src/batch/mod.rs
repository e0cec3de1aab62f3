//! # Batched LP solving with a concurrent scheduler
//!
//! The paper solves one LP at a time; real deployments of the era
//! (portfolio rebalancing, per-scenario planning, branch-and-bound nodes)
//! solve *fleets* of independent LPs. This module adds that layer on top of
//! [`crate::SolveRequest`]:
//!
//! * [`BatchSolver`] takes a slice of [`LinearProgram`]s plus one
//!   [`SolverOptions`] for the batch and dispatches the solves across a
//!   pool of worker threads (crossbeam scoped threads pulling job indices
//!   from an MPMC channel — classic work stealing by queue contention).
//! * A [`PlacementPolicy`] maps each job to a [`BackendKind`]; its one
//!   arm pins every job to one backend, so *where* a job runs never
//!   depends on timing.
//! * Each solve runs under `catch_unwind`: a panicking job is recorded as
//!   [`JobOutcome::Panicked`] and the pool keeps draining the queue —
//!   one poisoned model cannot take down the batch. A solve that returns a
//!   [`SolveError`] is [`JobOutcome::Failed`].
//! * With [`BatchOptions::resilience`] set, each job instead runs through
//!   [`crate::ResilientSolver`]: seeded fault injection on GPU rungs,
//!   bounded retries with recorded backoff, and graceful degradation down
//!   to the dense CPU path. The scheduler additionally *quarantines* a
//!   backend after `quarantine_after` consecutive faulted jobs and
//!   re-places later jobs mapped there onto the CPU.
//! * Results come back in submission order with per-job wall/simulated
//!   times, and a [`BatchStats`] aggregate: throughput, per-backend
//!   utilization, and the simulated-time speedup (sequential cost over
//!   parallel makespan).
//!
//! GPU sharing: use [`BackendKind::GpuShared`] to hand every worker the
//! *same* simulated device — each solve then runs on its own
//! [`gpu_sim::Stream`], interleaving safely with per-solve counters intact
//! and device-wide memory capacity enforced.
//!
//! ```
//! use gplex::{BatchOptions, BatchSolver, BackendKind};
//! use gplex::batch::PlacementPolicy;
//! use lp::generator;
//!
//! let lps: Vec<_> = (0..8).map(|s| generator::dense_random(8, 10, s)).collect();
//! let batch = BatchSolver::new(BatchOptions {
//!     workers: 4,
//!     policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
//!     ..Default::default()
//! });
//! let report = batch.solve::<f64>(&lps);
//! assert_eq!(report.stats.jobs, 8);
//! assert!(report.results.iter().all(|r| r.outcome.solution().is_some()));
//! ```

pub mod cache;
pub mod mega;
pub mod policy;
pub mod report;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use gpu_sim::{DeviceSpec, FaultPlan, Gpu, SimTime};
use linalg::Scalar;
use lp::presolve::Presolved;
use lp::{LinearProgram, StandardForm};
use parking_lot::Mutex;

use crate::checkpoint::CheckpointSlot;
use crate::error::SolveError;
use crate::options::SolverOptions;
use crate::resilient::{ResilienceOptions, ResilientSolver};
use crate::result::StdResult;
use crate::solver::{
    finalize_simplex, prepare, settle_warm, BackendKind, Prepared, SimDevice, SolveRequest, Start,
    WarmContext,
};
use crate::trace::NoopRecorder;

use mega::LaneOutcome;

pub use cache::{cache_key, BasisCache, CacheStats, CachedBasis};
pub use policy::{PlacementPolicy, WarmStartPolicy};
pub use report::{BackendTally, BatchStats, JobOutcome, JobResult};

/// Distinct family keys the per-run basis cache retains (LRU beyond that).
const WARM_CACHE_CAPACITY: usize = 256;

/// Configuration for one batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Job → backend placement.
    pub policy: PlacementPolicy,
    /// Solver options applied to every job in the batch.
    pub solver: SolverOptions,
    /// Retry/degradation policy. `None` (the default) is the direct path:
    /// each job runs exactly once on its placed backend, panics caught.
    /// `Some` routes every job through [`ResilientSolver`], and — when
    /// [`ResilienceOptions::quarantine_after`] is `K > 0` — quarantines a
    /// backend after `K` consecutive jobs with device faults, re-placing
    /// later jobs that the policy maps there onto the dense CPU fallback.
    pub resilience: Option<ResilienceOptions>,
    /// Basis sharing across the batch (see [`WarmStartPolicy`]). With
    /// anything but `Off`, the scheduler owns one [`BasisCache`] for the
    /// run: every job consults it before solving and every `Optimal`
    /// terminal basis is written back, so later family members skip most of
    /// their simplex work. `Off` (the default) preserves the historical
    /// cold-start behavior exactly.
    pub warm_start: WarmStartPolicy,
    /// Group same-shape jobs into SoA super-jobs and solve each group in
    /// lockstep on the block-per-LP [`crate::BatchKernelBackend`] — one
    /// kernel chain per simplex iteration for the whole group instead of
    /// one per member. Jobs the mega path cannot take (shape singletons,
    /// presolve-decided models, out-of-scope options — see
    /// [`mega::mega_compatible`] — or a whole group whose device setup
    /// failed) fall back to the stream-per-job pool; they are never
    /// errors. Off by default.
    pub mega_batch: bool,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(BackendKind::CpuDense),
            solver: SolverOptions::default(),
            resilience: None,
            warm_start: WarmStartPolicy::Off,
            mega_batch: false,
        }
    }
}

/// Consecutive-fault ledger behind backend quarantine. With one worker the
/// walk order is the submission order, so quarantine decisions are fully
/// deterministic; with several workers the *policy* is deterministic but
/// which job tips a backend over the threshold can depend on completion
/// order (the ledger is keyed by backend, not by job).
#[derive(Debug, Default)]
struct QuarantineLedger {
    consecutive_faults: BTreeMap<&'static str, usize>,
    quarantined: BTreeMap<&'static str, bool>,
}

impl QuarantineLedger {
    fn is_quarantined(&self, label: &'static str) -> bool {
        self.quarantined.get(label).copied().unwrap_or(false)
    }

    fn record(&mut self, label: &'static str, had_faults: bool, threshold: usize) {
        let entry = self.consecutive_faults.entry(label).or_insert(0);
        if had_faults {
            *entry += 1;
            if threshold > 0 && *entry >= threshold {
                self.quarantined.insert(label, true);
            }
        } else {
            *entry = 0;
        }
    }
}

/// Full output of [`BatchSolver::solve`].
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub results: Vec<JobResult>,
    /// Aggregate statistics.
    pub stats: BatchStats,
}

impl BatchReport {
    /// True when every job returned a solution (any status, no failures,
    /// no panics).
    pub fn all_solved(&self) -> bool {
        self.stats.panicked == 0 && self.stats.failed == 0
    }
}

/// Solves batches of independent LPs across a worker pool. See the module
/// docs for the scheduling model.
#[derive(Debug, Clone)]
pub struct BatchSolver {
    opts: BatchOptions,
}

impl BatchSolver {
    /// A solver with the given batch options.
    pub fn new(opts: BatchOptions) -> Self {
        BatchSolver { opts }
    }

    /// The options this solver runs with.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// Solve every LP in `jobs`; blocks until the batch drains.
    ///
    /// Worker threads pull job indices from a shared queue, so the
    /// *assignment of jobs to workers* is timing-dependent — but placement,
    /// per-job results, and the submission-order result vector are not.
    pub fn solve<T: Scalar>(&self, jobs: &[LinearProgram]) -> BatchReport {
        let workers = self.opts.workers.max(1);
        let start = Instant::now();

        // Slot per job, filled by whichever worker runs it.
        let slots: Mutex<Vec<Option<JobResult>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        // Simulated time executed per worker, for the makespan.
        let worker_sim: Mutex<Vec<SimTime>> = Mutex::new(vec![SimTime::ZERO; workers]);
        // Shared across workers: which backends have been benched.
        let quarantine: Mutex<QuarantineLedger> = Mutex::new(QuarantineLedger::default());
        // One basis cache per run (not per solver): families only make
        // sense within a batch, and dropping the cache with the report
        // keeps repeated `solve` calls independent.
        let cache = self
            .opts
            .warm_start
            .is_enabled()
            .then(|| BasisCache::new(WARM_CACHE_CAPACITY));

        // Mega pre-pass: group same-shape jobs into SoA super-jobs solved in
        // lockstep; everything it cannot take flows into the normal queue.
        let mega = if self.opts.mega_batch
            && self.opts.resilience.is_none()
            && mega::mega_compatible(&self.opts.solver)
        {
            mega_prepass::<T>(jobs, &self.opts, cache.as_ref(), &slots)
        } else {
            MegaOutcome {
                remaining: (0..jobs.len()).collect(),
                sim: SimTime::ZERO,
                groups: 0,
                faults: 0,
            }
        };

        let (tx, rx) = crossbeam::channel::unbounded::<usize>();
        for idx in mega.remaining {
            tx.send(idx).expect("receiver alive");
        }
        drop(tx); // workers exit when the queue drains

        crossbeam::thread::scope(|s| {
            for worker in 0..workers {
                let rx = rx.clone();
                let slots = &slots;
                let worker_sim = &worker_sim;
                let quarantine = &quarantine;
                let opts = &self.opts;
                let cache = &cache;
                s.spawn(move |_| {
                    let resilient = opts.resilience.clone().map(ResilientSolver::new);
                    let warm_ctx = cache.as_ref().map(|cache| WarmContext {
                        cache,
                        policy: opts.warm_start,
                    });
                    let mut executed = SimTime::ZERO;
                    for idx in rx.iter() {
                        let job = &jobs[idx];
                        let mut kind = opts.policy.place();
                        let mut backend = kind.label();
                        let t0 = Instant::now();
                        let (outcome, faults, retries, degradations) = match &resilient {
                            None => {
                                // Direct path: one attempt, panics caught so
                                // one poisoned model cannot take down the
                                // batch (and a panic inside a shared Stream
                                // leaves the job terminally Panicked — it is
                                // never re-run).
                                let outcome = match catch_unwind(AssertUnwindSafe(|| {
                                    SolveRequest::model(job, &opts.solver)
                                        .on(&kind)
                                        .warm(warm_ctx.as_ref())
                                        .run::<T>()
                                })) {
                                    Ok(Ok(sol)) => JobOutcome::Solved(Box::new(sol)),
                                    Ok(Err(e)) => JobOutcome::Failed(e.to_string()),
                                    Err(payload) => JobOutcome::Panicked(panic_message(&*payload)),
                                };
                                let faults = outcome
                                    .solution()
                                    .map(|s| s.stats.device_faults)
                                    .unwrap_or(0);
                                (outcome, faults, 0, 0)
                            }
                            Some(solver) => {
                                let threshold = solver.options.quarantine_after;
                                if threshold > 0
                                    && quarantine.lock().is_quarantined(backend)
                                    && !matches!(kind, BackendKind::CpuDense)
                                {
                                    // Re-place off the benched backend; the
                                    // dense CPU rung is the one place every
                                    // ladder bottoms out, so it can never
                                    // itself be fault-quarantined.
                                    kind = BackendKind::CpuDense;
                                }
                                let out = solver.run::<T>(
                                    idx as u64,
                                    SolveRequest::model(job, &opts.solver)
                                        .on(&kind)
                                        .warm(warm_ctx.as_ref()),
                                );
                                quarantine
                                    .lock()
                                    .record(kind.label(), out.faults > 0, threshold);
                                backend = out.final_backend;
                                let outcome = match out.result {
                                    Ok(sol) => JobOutcome::Solved(Box::new(sol)),
                                    Err(SolveError::Panicked(msg)) => JobOutcome::Panicked(msg),
                                    Err(e) => JobOutcome::Failed(e.to_string()),
                                };
                                (outcome, out.faults, out.retries, out.degradations)
                            }
                        };
                        let jr = JobResult {
                            worker,
                            wall_seconds: t0.elapsed().as_secs_f64(),
                            faults,
                            retries,
                            degradations,
                            ..job_result(idx, backend, outcome)
                        };
                        executed += jr.sim_time;
                        slots.lock()[idx] = Some(jr);
                        // Cooperative fairness: on hosts with fewer cores
                        // than workers, one thread can otherwise drain the
                        // queue before its siblings are ever scheduled,
                        // which skews per-worker load (and the makespan
                        // metric built on it). A yield per job lets the OS
                        // rotate ready workers; on unoversubscribed hosts
                        // it is a no-op in practice.
                        std::thread::yield_now();
                    }
                    worker_sim.lock()[worker] = executed;
                });
            }
        })
        .expect("batch workers must not panic (solves are unwind-isolated)");

        let wall_seconds = start.elapsed().as_secs_f64();
        let results: Vec<JobResult> = slots
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("every job index was dispatched exactly once"))
            .collect();
        // The mega pre-pass ran on the calling thread before the pool
        // started; its simulated time folds into worker 0's lane so the
        // makespan still covers all executed work.
        let mut worker_sim = worker_sim.into_inner();
        worker_sim[0] += mega.sim;
        let mut stats = aggregate(
            &results,
            workers,
            wall_seconds,
            &worker_sim,
            cache.as_ref().map(|c| c.stats()),
            mega.groups,
        );
        // Group-level device faults are shared by every lane of a family,
        // so they fold in at batch level rather than per job.
        stats.device_faults += mega.faults;
        BatchReport { results, stats }
    }
}

/// What the mega pre-pass left behind: job indices for the stream pool,
/// the simulated time the grouped solves executed, how many super-jobs
/// ran, and the device faults the group devices observed.
struct MegaOutcome {
    remaining: Vec<usize>,
    sim: SimTime,
    groups: usize,
    faults: u64,
}

/// The record of job `idx` with `outcome` on `backend`: modeled time, warm
/// and checkpoint accounting read from the solution's own stats (an
/// accepted warm start has attempted > rejected; a rejected one fell back
/// cold), zero without a solution. Callers override the fields they know
/// better (worker, wall time, faults, retries, ...).
fn job_result(idx: usize, backend: &'static str, outcome: JobOutcome) -> JobResult {
    let mut jr = JobResult {
        index: idx,
        backend,
        worker: 0,
        wall_seconds: 0.0,
        sim_time: SimTime::ZERO,
        faults: 0,
        retries: 0,
        degradations: 0,
        warm_hit: false,
        warm_rejected: false,
        warm_iterations_saved: 0,
        evacuated: false,
        resumed: false,
        wasted_iterations: 0,
        outcome,
    };
    if let Some(sol) = jr.outcome.solution() {
        let s = &sol.stats;
        jr.sim_time = s.total_time();
        jr.warm_hit = s.warm_start_attempted > s.warm_start_rejected;
        jr.warm_rejected = s.warm_start_rejected > 0;
        jr.warm_iterations_saved = s.warm_iterations_saved;
        jr.resumed = s.checkpoint_resumes > 0;
        jr.wasted_iterations = s.wasted_iterations;
    }
    jr
}

/// Run presolve/standardize per job on the calling thread, group the
/// same-shape survivors, and solve each group of two or more in lockstep on
/// the block-per-LP backend. Results land directly in `slots`; whatever the
/// mega path cannot take — shape singletons, presolve-decided models, a
/// group whose device machinery failed — comes back as `remaining` for the
/// stream-per-job pool.
fn mega_prepass<T: Scalar>(
    jobs: &[LinearProgram],
    opts: &BatchOptions,
    cache: Option<&BasisCache>,
    slots: &Mutex<Vec<Option<JobResult>>>,
) -> MegaOutcome {
    let warm_ctx = cache.map(|cache| WarmContext {
        cache,
        policy: opts.warm_start,
    });
    let mut remaining = Vec::new();
    let mut sim = SimTime::ZERO;
    let mut groups_run = 0usize;
    let mut faults_total = 0u64;
    let mut group_counter = 0u64;
    // Evacuated lanes re-dispatch on the fault-free dense CPU rung — the
    // same place the resilience ladder bottoms out, so the salvaged answer
    // is bit-identical to a fault-free solo cpu-dense solve.
    let salvage_opts = {
        let mut o = opts.solver.clone();
        o.faults = None;
        o
    };

    // Per-job pipeline front half, unwind-isolated: a poisoned model
    // panics in standardization and must fail alone, exactly as on the
    // stream path.
    type Job<T> = (usize, StandardForm<T>, Option<Presolved>);
    let mut ready: Vec<Job<T>> = Vec::new();
    let placed = opts.policy.place().label();
    for (idx, job) in jobs.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| {
            prepare::<T>(job, opts.solver.presolve, opts.solver.scale)
        })) {
            Err(payload) => {
                slots.lock()[idx] = Some(job_result(
                    idx,
                    placed,
                    JobOutcome::Panicked(panic_message(&*payload)),
                ));
            }
            Ok(Prepared::Early(sol)) => {
                slots.lock()[idx] = Some(job_result(idx, placed, JobOutcome::Solved(sol)));
            }
            Ok(Prepared::Ready { sf, restore }) => ready.push((idx, *sf, restore)),
        }
    }

    // Shape groups over the standardized forms (post-presolve: that is the
    // space the lockstep solve runs in).
    let mut groups: BTreeMap<(usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for (pos, (_, sf, _)) in ready.iter().enumerate() {
        groups
            .entry((sf.num_rows(), sf.num_cols(), sf.num_artificials))
            .or_default()
            .push(pos);
    }

    for members in groups.into_values() {
        if members.len() < 2 {
            // A shape singleton gains nothing from lockstep; stream it.
            remaining.push(ready[members[0]].0);
            continue;
        }
        // One device per group, mirroring the stream path's placement:
        // a shared device gets a stream (counters fold into the device on
        // retirement), a fixed spec gets a fresh device of that spec.
        let gpu = SimDevice::open(&opts.policy.place())
            .unwrap_or_else(|| SimDevice::Fresh(Gpu::new(DeviceSpec::gtx280())));
        // Arm the group device with a per-group reseeded plan, mirroring
        // the stream path's per-solve arming (deterministic: groups walk in
        // BTreeMap shape order).
        if let Some(cfg) = &opts.solver.faults {
            gpu.set_fault_plan(FaultPlan::new(cfg.reseed(crate::resilient::mix(
                cfg.seed,
                0x6d65_6761, // "mega"
                group_counter,
            ))));
        }
        group_counter += 1;

        // Warm-seed the whole group from a single family lookup: one cache
        // probe on the first member's key, the candidate offered to every
        // member keyed identically. (Per-member validation still applies —
        // a lane that rejects the basis falls back cold alone.)
        let member_keys: Vec<Option<u64>> = members
            .iter()
            .map(|&p| {
                warm_ctx
                    .as_ref()
                    .and_then(|w| cache_key(&ready[p].1, &w.policy))
            })
            .collect();
        let family = warm_ctx.as_ref().zip(member_keys[0]).and_then(|(w, k)| {
            let sf = &ready[members[0]].1;
            let n_active = sf.num_cols() - sf.num_artificials;
            w.cache.lookup(k, sf.num_rows(), n_active)
        });
        let baseline = family.as_ref().map(|c| c.cold_iterations);
        let offered: Vec<bool> = member_keys
            .iter()
            .map(|k| family.is_some() && k.is_some() && *k == member_keys[0])
            .collect();
        let warm_vec: Vec<Option<Vec<usize>>> = offered
            .iter()
            .map(|&o| {
                o.then(|| {
                    family
                        .as_ref()
                        .expect("offered implies a family hit")
                        .basis
                        .clone()
                })
            })
            .collect();

        // One member's record from its standard-form result on `backend`
        // (the lockstep lane, or its dense-CPU salvage): warm accounting
        // settled against the group's family lookup, then the pipeline's
        // back half through the member's own presolve and scaling.
        let member_result = |i: usize, backend, res: Result<StdResult<T>, SolveError>| {
            let (idx, sf, restore) = &ready[members[i]];
            let outcome = match res {
                Ok(mut r) => {
                    let offered_baseline = if offered[i] { baseline } else { None };
                    settle_warm(warm_ctx.as_ref(), member_keys[i], offered_baseline, &mut r);
                    let sol = finalize_simplex(&jobs[*idx], sf, restore, r);
                    JobOutcome::Solved(Box::new(sol))
                }
                Err(e) => JobOutcome::Failed(e.to_string()),
            };
            job_result(*idx, backend, outcome)
        };

        let sfs: Vec<&StandardForm<T>> = members.iter().map(|&p| &ready[p].1).collect();
        let gt0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            mega::try_solve_family_mega::<T, NoopRecorder>(&gpu, &sfs, &opts.solver, warm_vec, None)
        }));
        match outcome {
            Ok(Ok(run)) => {
                groups_run += 1;
                let wall_share = gt0.elapsed().as_secs_f64() / members.len() as f64;
                for (i, lane_out) in run.lanes.into_iter().enumerate() {
                    let mut jr = match lane_out {
                        LaneOutcome::Done(res) => member_result(i, "batch-kernel", res.map(|r| *r)),
                        // Lane evacuation: the device fault stopped this
                        // lane mid-solve. Salvage it stream-per-job —
                        // resumed from its checkpoint when it has one, from
                        // scratch otherwise — never an error.
                        LaneOutcome::Evacuated {
                            checkpoint,
                            died_at_iteration,
                        } => {
                            let resumed = checkpoint.is_some();
                            let ckpt_iters =
                                checkpoint.as_ref().map_or(0, |cp| cp.stats.iterations);
                            let wasted = died_at_iteration.saturating_sub(ckpt_iters) as u64;
                            let start = checkpoint.map_or(Start::Cold, Start::Resume);
                            let slot = CheckpointSlot::new();
                            let salvage = catch_unwind(AssertUnwindSafe(|| {
                                SolveRequest::standard(&ready[members[i]].1, &salvage_opts)
                                    .on(&BackendKind::CpuDense)
                                    .start(start)
                                    .checkpoint(&slot)
                                    .run()
                            }));
                            let mut jr = match salvage {
                                Ok(res) => member_result(
                                    i,
                                    "cpu-dense",
                                    res.map(|mut r| {
                                        r.stats.wasted_iterations += wasted;
                                        r
                                    }),
                                ),
                                Err(payload) => job_result(
                                    ready[members[i]].0,
                                    "cpu-dense",
                                    JobOutcome::Panicked(panic_message(&*payload)),
                                ),
                            };
                            jr.evacuated = !resumed;
                            jr.resumed = resumed;
                            jr.wasted_iterations = wasted;
                            jr
                        }
                    };
                    sim += jr.sim_time;
                    jr.wall_seconds = wall_share;
                    let idx = jr.index;
                    slots.lock()[idx] = Some(jr);
                }
            }
            // Family-level machinery failure before any lane state existed
            // (construction fault, or a panic in the lockstep driver): the
            // whole group falls back to stream-per-job, which re-prepares
            // each member from the original model.
            Ok(Err(_)) | Err(_) => {
                remaining.extend(members.iter().map(|&p| ready[p].0));
            }
        }
        faults_total += gpu.fault_counts().total();
    }
    MegaOutcome {
        remaining,
        sim,
        groups: groups_run,
        faults: faults_total,
    }
}

fn aggregate(
    results: &[JobResult],
    workers: usize,
    wall_seconds: f64,
    worker_sim: &[SimTime],
    cache: Option<cache::CacheStats>,
    mega_groups: usize,
) -> BatchStats {
    let mut stats = BatchStats {
        jobs: results.len(),
        solved: 0,
        failed: 0,
        panicked: 0,
        workers,
        device_faults: 0,
        retries: 0,
        degradations: 0,
        wall_seconds,
        sim_total: SimTime::ZERO,
        sim_makespan: worker_sim.iter().copied().fold(SimTime::ZERO, SimTime::max),
        // Hits/misses come from the cache itself — it saw every lookup,
        // including those of jobs that later panicked and reported nothing.
        warm_hits: cache.map(|c| c.hits).unwrap_or(0),
        warm_misses: cache.map(|c| c.misses).unwrap_or(0),
        warm_rejected: 0,
        warm_iterations_saved: 0,
        grouped_jobs: 0,
        ungrouped_jobs: 0,
        mega_groups,
        evacuated_jobs: 0,
        resumed_jobs: 0,
        wasted_iterations: 0,
        per_backend: Default::default(),
    };
    for r in results {
        match r.outcome {
            JobOutcome::Solved(_) => stats.solved += 1,
            JobOutcome::Failed(_) => stats.failed += 1,
            JobOutcome::Panicked(_) => stats.panicked += 1,
        }
        stats.device_faults += r.faults;
        stats.retries += r.retries;
        stats.degradations += r.degradations;
        stats.warm_rejected += r.warm_rejected as u64;
        stats.warm_iterations_saved += r.warm_iterations_saved;
        stats.evacuated_jobs += r.evacuated as usize;
        stats.resumed_jobs += r.resumed as usize;
        stats.wasted_iterations += r.wasted_iterations;
        stats.sim_total += r.sim_time;
        let tally = stats.per_backend.entry(r.backend).or_default();
        tally.jobs += 1;
        tally.sim_time += r.sim_time;
        // Active host time counts failed/panicked jobs too: the backend was
        // occupied even though no modeled solve came out.
        tally.wall_seconds += r.wall_seconds;
        if r.backend == "batch-kernel" {
            stats.grouped_jobs += 1;
        }
    }
    stats.ungrouped_jobs = stats.jobs - stats.grouped_jobs;
    stats
}

/// Best-effort human message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Status;
    use crate::solver::SolveRequest;
    use lp::generator::{self, fixtures};

    fn batch_of(n: usize) -> Vec<LinearProgram> {
        (0..n)
            .map(|s| generator::dense_random(6, 8, s as u64))
            .collect()
    }

    #[test]
    fn results_in_submission_order_and_match_sequential() {
        let jobs = batch_of(12);
        let solver = BatchSolver::new(BatchOptions {
            workers: 4,
            ..Default::default()
        });
        let report = solver.solve::<f64>(&jobs);
        assert_eq!(report.results.len(), 12);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
            let seq = SolveRequest::model(&jobs[i], &SolverOptions::default())
                .on(&BackendKind::CpuDense)
                .run::<f64>()
                .unwrap();
            let sol = r.outcome.solution().expect("no panic");
            assert_eq!(sol.status, seq.status);
            assert!((sol.objective - seq.objective).abs() < 1e-12);
        }
        assert!(report.all_solved());
        assert_eq!(report.stats.solved, 12);
        assert_eq!(report.stats.workers, 4);
    }

    #[test]
    fn makespan_bounded_by_total_and_at_least_max_job() {
        let jobs = batch_of(8);
        let report = BatchSolver::new(BatchOptions {
            workers: 3,
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        let max_job = report
            .results
            .iter()
            .map(|r| r.sim_time)
            .fold(SimTime::ZERO, SimTime::max);
        assert!(report.stats.sim_makespan <= report.stats.sim_total);
        assert!(report.stats.sim_makespan >= max_job);
        assert!(report.stats.speedup() >= 1.0 - 1e-12);
        assert!(report.stats.speedup() <= 3.0 + 1e-12);
    }

    #[test]
    fn single_worker_makespan_equals_total() {
        let jobs = batch_of(5);
        let report = BatchSolver::new(BatchOptions::default()).solve::<f64>(&jobs);
        assert_eq!(report.stats.sim_makespan, report.stats.sim_total);
        assert!((report.stats.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn statuses_are_answers_not_failures() {
        let jobs = vec![
            fixtures::wyndor().0,
            fixtures::infeasible(),
            fixtures::unbounded(),
            fixtures::degenerate().0,
        ];
        let report = BatchSolver::new(BatchOptions {
            workers: 2,
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert!(report.all_solved());
        let statuses: Vec<Status> = report
            .results
            .iter()
            .map(|r| r.outcome.solution().unwrap().status)
            .collect();
        assert_eq!(
            statuses,
            [
                Status::Optimal,
                Status::Infeasible,
                Status::Unbounded,
                Status::Optimal
            ]
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = BatchSolver::new(BatchOptions::default()).solve::<f64>(&[]);
        assert_eq!(report.stats.jobs, 0);
        assert!(report.all_solved());
        assert_eq!(report.stats.sim_makespan, SimTime::ZERO);
    }

    #[test]
    fn poisoned_job_on_shared_gpu_stays_terminal_panicked() {
        // Regression: a panic inside a job running on a shared device's
        // Stream must leave that job terminally Panicked (never re-run,
        // never reported Solved) while its siblings on the same device
        // finish normally.
        let gpu = std::sync::Arc::new(gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280()));
        let jobs = vec![
            fixtures::wyndor().0,
            fixtures::poisoned(),
            fixtures::diet().0,
        ];
        let report = BatchSolver::new(BatchOptions {
            workers: 2,
            policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert_eq!(report.stats.panicked, 1);
        assert_eq!(report.stats.solved, 2);
        assert!(!report.all_solved());
        assert!(matches!(report.results[1].outcome, JobOutcome::Panicked(_)));
        assert_eq!(report.results[1].outcome.status_label(), "panicked");
        for i in [0, 2] {
            let sol = report.results[i]
                .outcome
                .solution()
                .expect("sibling solved");
            assert_eq!(sol.status, Status::Optimal);
        }
    }

    #[test]
    fn poisoned_job_stays_panicked_under_resilience() {
        // Same guarantee through the resilient path: the panic repeats on
        // every rung, so the terminal outcome is Panicked, not Failed.
        let gpu = std::sync::Arc::new(gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280()));
        let jobs = vec![fixtures::wyndor().0, fixtures::poisoned()];
        let report = BatchSolver::new(BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
            resilience: Some(crate::resilient::ResilienceOptions::default()),
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert!(matches!(report.results[1].outcome, JobOutcome::Panicked(_)));
        assert_eq!(report.stats.panicked, 1);
        assert_eq!(report.stats.solved, 1);
    }

    #[test]
    fn resilient_batch_under_heavy_faults_drains_with_every_job_terminal() {
        let gpu = std::sync::Arc::new(gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280()));
        let jobs = batch_of(10);
        let report = BatchSolver::new(BatchOptions {
            workers: 2,
            policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
            resilience: Some(ResilienceOptions {
                faults: Some(gpu_sim::FaultConfig::uniform(99, 0.5)),
                ..Default::default()
            }),
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert_eq!(report.results.len(), 10);
        assert_eq!(report.stats.panicked, 0);
        assert_eq!(report.stats.failed, 0);
        assert_eq!(report.stats.solved, 10);
        assert!(report.stats.device_faults > 0);
        // Every faulted-then-recovered job still matches the CPU answer.
        for (i, r) in report.results.iter().enumerate() {
            let sol = r.outcome.solution().expect("terminal solution");
            let seq = SolveRequest::model(&jobs[i], &SolverOptions::default())
                .on(&BackendKind::CpuDense)
                .run::<f64>()
                .unwrap();
            assert_eq!(sol.status, seq.status, "job {i}");
            assert!(
                (sol.objective - seq.objective).abs() < 1e-6 * (1.0 + seq.objective.abs()),
                "job {i}: {} vs {}",
                sol.objective,
                seq.objective
            );
        }
    }

    #[test]
    fn quarantine_benches_a_faulting_backend_at_one_worker() {
        let gpu = std::sync::Arc::new(gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280()));
        let jobs = batch_of(8);
        let report = BatchSolver::new(BatchOptions {
            workers: 1,
            policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
            resilience: Some(ResilienceOptions {
                // Certain faults: every GPU job faults, so after 2 jobs the
                // shared device is benched and the rest run on CPU directly.
                faults: Some(gpu_sim::FaultConfig::uniform(5, 1.0)),
                quarantine_after: 2,
                ..Default::default()
            }),
            ..Default::default()
        })
        .solve::<f64>(&jobs);
        assert!(report.all_solved());
        // Every job ends on the CPU (via degradation or quarantine), and at
        // least the post-quarantine jobs never saw a fault.
        for r in &report.results {
            assert_eq!(r.backend, "cpu-dense");
        }
        let faulted = report.results.iter().filter(|r| r.faults > 0).count();
        assert_eq!(faulted, 2, "exactly the pre-quarantine jobs fault");
        for r in &report.results[2..] {
            assert_eq!(r.faults, 0);
            assert_eq!(
                r.degradations, 0,
                "quarantined jobs are placed on CPU, not degraded"
            );
        }
    }

    #[test]
    fn faulted_batches_are_deterministic_from_seed() {
        let run = || {
            let gpu = std::sync::Arc::new(gpu_sim::Gpu::new(gpu_sim::DeviceSpec::gtx280()));
            let jobs = batch_of(6);
            let report = BatchSolver::new(BatchOptions {
                workers: 1,
                policy: PlacementPolicy::Fixed(BackendKind::GpuShared(gpu)),
                resilience: Some(ResilienceOptions {
                    faults: Some(gpu_sim::FaultConfig::uniform(21, 0.4)),
                    ..Default::default()
                }),
                ..Default::default()
            })
            .solve::<f64>(&jobs);
            let per_job: Vec<_> = report
                .results
                .iter()
                .map(|r| (r.faults, r.retries, r.degradations, r.backend))
                .collect();
            (
                report.stats.device_faults,
                report.stats.retries,
                report.stats.degradations,
                per_job,
            )
        };
        assert_eq!(run(), run());
    }

    /// Names every field with no `..`: a new option fails to compile here
    /// until the DESIGN.md option table is updated with it.
    #[test]
    fn option_list_is_reviewed() {
        let BatchOptions {
            workers,
            policy,
            solver,
            resilience,
            warm_start,
            mega_batch,
        } = BatchOptions::default();
        assert_eq!(workers, 1);
        assert_eq!(policy.place().label(), "cpu-dense");
        assert_eq!(solver, SolverOptions::default());
        assert!(resilience.is_none());
        assert_eq!(warm_start, WarmStartPolicy::Off);
        assert!(!mega_batch);
    }
}
