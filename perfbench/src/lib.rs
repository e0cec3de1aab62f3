//! # perfbench — end-to-end and per-layer benchmark of gplex
//!
//! One command runs a named workload from a seed, checks every answer and
//! prints every metric by name and unit. It measures the program from the
//! outside: it times calls into the public functions of `lp`, `gplex` and
//! `gpu-sim` and reads the counters those calls return. It runs closed-loop
//! from one process with one client, with no wall-clock limit on any solve,
//! so no decision of the program depends on thread timing or host speed and
//! every modeled number repeats bit for bit for a given seed.
//!
//! A run generates its models from the seed, writes them as MPS text, and
//! then sets up several times (parse every text, build the shared device
//! and the solvers) to report the median set-up time. It then repeats
//! measured rounds — one solve of every model per round — until the
//! requested seconds have passed. Untraced rounds give the end-to-end
//! metrics: `wall_s` sums each timed call's fastest time over them, and
//! `setup_s` is the median set-up. A traced run alternates untraced and
//! traced rounds and reports the per-layer metrics and the tracing
//! overhead. See `DESIGN.md`.

pub mod inputs;
pub mod report;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use report::{median, Fnv, Metrics};
use trace::Tracer;
use workloads::{Round, Scale, State, Workload, BACKEND_LABELS};

/// Command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds of measured rounds (at least one round always runs).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
    /// Model sizes.
    pub scale: Scale,
}

/// The end-to-end metrics, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
    ("device_peak_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics of a traced run, with units. Every workload
/// reports every one of them (zero where the layer does no work).
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| out.push((name.to_string(), unit));
    for (name, unit) in [
        ("lp.mps_parse_s", "s"),
        ("lp.nnz", "count"),
        ("lp.presolve_s", "s"),
        ("lp.standardize_s", "s"),
        ("simplex.iterations", "count"),
        ("simplex.phase1_iterations", "count"),
        ("simplex.degenerate_steps", "count"),
        ("simplex.refactorizations", "count"),
    ] {
        push(name, unit);
    }
    for step in gplex::Step::ALL {
        push(&format!("simplex.sim.{}", step.label()), "s");
    }
    for kind in gplex::StepKind::ALL {
        push(&format!("simplex.wall.{}", kind.name()), "s");
    }
    for (name, unit) in [
        ("lu.fill_in", "count"),
        ("lu.refactor_nnz", "count"),
        ("lu.markowitz_rejections", "count"),
        ("pdhg.iterations", "count"),
        ("pdhg.restarts", "count"),
        ("pdhg.sim_s", "s"),
        ("pdhg.wall_s", "s"),
        ("auto.pdhg_jobs", "count"),
        ("auto.simplex_jobs", "count"),
        ("resilient.attempts", "count"),
        ("resilient.retries", "count"),
        ("resilient.degradations", "count"),
        ("resilient.checkpoint_resumes", "count"),
        ("resilient.wasted_iterations", "count"),
        ("resilient.first_try_frac", "ratio"),
    ] {
        push(name, unit);
    }
    for label in BACKEND_LABELS.iter().copied().chain(["other"]) {
        push(&format!("backend.{label}.jobs"), "count");
        push(&format!("backend.{label}.sim_s"), "s");
        push(&format!("backend.{label}.wall_s"), "s");
    }
    for (name, unit) in [
        ("backend.gpu_speedup", "ratio"),
        ("gpu.kernels_launched", "count"),
        ("gpu.fused_groups", "count"),
        ("gpu.h2d_bytes", "bytes"),
        ("gpu.d2h_bytes", "bytes"),
        ("gpu.mem_bytes", "bytes"),
        ("gpu.flops", "count"),
        ("gpu.flops_per_byte", "ratio"),
        ("gpu.sim.kernel-body", "s"),
        ("gpu.sim.launch-overhead", "s"),
        ("gpu.sim.transfer-h2d", "s"),
        ("gpu.sim.transfer-d2h", "s"),
        ("gpu.faults", "count"),
        ("gpu.host_us_per_launch", "us"),
        ("gpu.sim_per_host", "ratio"),
        ("batch.job_wall_p50_s", "s"),
        ("batch.job_wall_p90_s", "s"),
        ("batch.job_wall_samples", "count"),
        ("batch.sim_makespan_s", "s"),
        ("batch.outside_jobs_s", "s"),
        ("mega.groups", "count"),
        ("mega.grouped_jobs", "count"),
        ("mega.lane_util", "ratio"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.rejected", "count"),
        ("cache.hit_rate", "ratio"),
        ("cache.iterations_saved", "count"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
        ("ledger.top1_share", "ratio"),
        ("ledger.top2_share", "ratio"),
        ("ledger.top3_share", "ratio"),
        ("rounds.untraced", "count"),
        ("rounds.wall_p50_s", "s"),
        ("rounds.traced", "count"),
        ("fail_frac", "ratio"),
        ("sim_fingerprint", "hash"),
    ] {
        push(name, unit);
    }
    out
}

/// Per-layer metrics whose value is a count or a modeled quantity: they
/// must repeat exactly for a given seed. Host-time metrics are excluded.
pub fn is_exact(name: &str, unit: &str) -> bool {
    let host = name.starts_with("lp.mps")
        || name.starts_with("lp.presolve")
        || name.starts_with("lp.standardize")
        || name.starts_with("simplex.wall.")
        || name == "pdhg.wall_s"
        || name.ends_with(".wall_s")
        || name.starts_with("gpu.host")
        || name == "gpu.sim_per_host"
        || name.starts_with("batch.job_wall_p")
        || name == "batch.outside_jobs_s"
        || name.starts_with("trace.")
        || name.starts_with("ledger.")
        || name.starts_with("rounds.");
    !host && matches!(unit, "count" | "bytes" | "ratio" | "s" | "hash")
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer passed its checks and every round repeated the first.
    pub correct: bool,
    /// Solves (or batch jobs) attempted over all rounds.
    pub attempted: usize,
    /// Of those, the ones that failed or failed a check.
    pub failed: usize,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Metrics,
    /// Human-readable lines: failures, the fingerprint, the ledger's top rows.
    pub notes: Vec<String>,
    /// Every span of the run, as JSON lines (traced runs only).
    pub spans: String,
}

/// Peak resident memory of this process so far, in MB (0 when unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Restart the peak-resident-memory mark, so the peak covers only what
/// follows (no-op where the kernel does not support it).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap pages back to the kernel, so resident memory is what
/// is live.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` releases free heap memory; it touches no live
    // allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Set-ups per measured round: as many as fill about this many seconds
/// (at least one, at most 20), so short set-ups are sampled often enough
/// for a steady median.
const SETUP_SECONDS_PER_ROUND: f64 = 0.05;

/// Write every model as an MPS file into a fresh directory under `out/`.
fn write_inputs(
    workload: Workload,
    seed: u64,
    models: &[lp::LinearProgram],
) -> std::io::Result<(PathBuf, Vec<PathBuf>)> {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "inputs-{}-s{seed}-{}-{}",
            workload.name(),
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir)?;
    let mut paths = Vec::with_capacity(models.len());
    for (i, m) in models.iter().enumerate() {
        let path = dir.join(format!("{i:03}.mps"));
        std::fs::write(&path, lp::mps::write(m))?;
        paths.push(path);
    }
    Ok((dir, paths))
}

/// One set-up: parse every input text, then build the device and solvers.
/// The texts are read before the clock starts and dropped once parsed.
/// Returns the state, the set-up seconds and the parse seconds.
fn set_up(paths: &[PathBuf], tracer: Option<&mut Tracer>) -> Result<(State, f64, f64), String> {
    let texts: Vec<String> = paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let parsed: Result<Vec<_>, _> = match tracer {
        Some(tr) => texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                tr.call("mps::parse", "lp::mps", "parse", Some(i), || {
                    lp::mps::parse(t)
                })
                .0
            })
            .collect(),
        None => texts.iter().map(|t| lp::mps::parse(t)).collect(),
    };
    let parse_s = t0.elapsed().as_secs_f64();
    drop(texts);
    let models = parsed.map_err(|e| format!("MPS parse failed: {e}"))?;
    let state = State::build(models);
    Ok((state, t0.elapsed().as_secs_f64(), parse_s))
}

/// Run one workload per `cfg`.
///
/// After one warm-up iteration (set-up plus round, checked but not timed
/// into any metric), each iteration sets up afresh and runs one untraced
/// round — and, when tracing, one traced round on the same state — until
/// `cfg.seconds` have passed. Interleaving the set-ups with the rounds
/// samples host load over the whole run for both timings.
pub fn run(cfg: &Config) -> Outcome {
    let mut plan = workloads::plan(cfg.workload, cfg.seed, cfg.scale);
    let workload = plan.workload;
    let generated = std::mem::take(&mut plan.models);
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    let fail = |notes: Vec<String>| Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Metrics::default(),
        notes,
        spans: String::new(),
    };
    let (dir, paths) = match write_inputs(workload, cfg.seed, &generated) {
        Ok(x) => x,
        Err(e) => return fail(vec![format!("FAILED writing the inputs: {e}")]),
    };
    let nnz: usize = generated.iter().map(|m| m.nnz()).sum();
    for (g, path) in generated.iter().zip(&paths) {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|t| lp::mps::parse(&t).map_err(|e| e.to_string()));
        match parsed {
            Ok(p) => failures.extend(inputs::round_trip_mismatch(g, &p)),
            Err(e) => failures.push(format!("{}: {e}", path.display())),
        }
    }
    drop(generated);

    let mut setup_times = Vec::new();
    let mut parse_times = Vec::new();
    let mut setup_reps = 1;
    let mut peak_rss = 0.0;
    let mut device_peak_mb = 0.0f64;
    let mut setup_tracer = Tracer::default();
    let mut untraced: Vec<Round> = Vec::new();
    let mut traced: Vec<(Round, Tracer, Tracer)> = Vec::new();
    let mut measure_start = Instant::now();
    loop {
        let warm_up = untraced.is_empty();
        let mut state = None;
        for _ in 0..if warm_up { 1 } else { setup_reps } {
            drop(state.take());
            let (st, setup_s, parse_s) =
                match set_up(&paths, cfg.trace.then_some(&mut setup_tracer)) {
                    Ok(x) => x,
                    Err(e) => {
                        let _ = std::fs::remove_dir_all(&dir);
                        return fail(vec![format!("FAILED {e}")]);
                    }
                };
            if warm_up {
                setup_reps = (SETUP_SECONDS_PER_ROUND / setup_s).ceil().clamp(1.0, 20.0) as usize;
            } else {
                setup_times.push(setup_s);
                parse_times.push(parse_s);
            }
            state = Some(st);
        }
        let state = state.expect("at least one set-up per round");
        if warm_up {
            // The peak covers the live models and solvers plus one round.
            release_free_memory();
            reset_peak_rss();
        }
        untraced.push(workloads::round(&plan, &state, false).0);
        if warm_up {
            peak_rss = peak_rss_mb();
        }
        if cfg.trace {
            let (mut r, probes) = workloads::round(&plan, &state, true);
            let tracer = r.tracer.take().expect("traced round keeps its spans");
            traced.push((r, tracer, probes.expect("traced round runs the lp probes")));
        }
        device_peak_mb = device_peak_mb.max(state.gpu.counters().peak_allocated_bytes as f64 / 1e6);
        if warm_up {
            measure_start = Instant::now();
        } else if measure_start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // ---- answers and repeatability --------------------------------------
    let first = &untraced[0];
    let mut attempted = 0;
    let mut failed = 0;
    for (k, r) in untraced
        .iter()
        .chain(traced.iter().map(|(r, _, _)| r))
        .enumerate()
    {
        attempted += r.attempted;
        failed += r.failures.len().min(r.attempted);
        // Rounds repeat, so one failing round's messages stand for all.
        if failures.is_empty() {
            failures.extend(r.failures.iter().cloned());
        }
        if r.fingerprint != first.fingerprint || r.sim.to_bits() != first.sim.to_bits() {
            failed += 1;
            failures.push(format!(
                "round {k} is not a repeat of round 0: fingerprint {:016x} vs {:016x}, sim {} vs {}",
                r.fingerprint, first.fingerprint, r.sim, first.sim
            ));
        }
    }
    let correct = failures.is_empty();
    notes.extend(failures.iter().map(|f| format!("FAILED {f}")));
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    let wall_s = best_case(
        &untraced[1..]
            .iter()
            .map(|r| r.calls.as_slice())
            .collect::<Vec<_>>(),
    );

    // The fingerprint covers every solve's pivot path and modeled time, the
    // count-type layer metrics, and the device peak.
    let mut fp = Fnv(first.fingerprint);
    for (name, (v, unit)) in &first.counts.values {
        if is_exact(name, unit) {
            fp.mix(name.len() as u64);
            fp.mix(v.to_bits());
        }
    }
    fp.mix(device_peak_mb.to_bits());
    let sim_fingerprint = fp.0 >> 12;
    notes.push(format!(
        "{} seed {}: sim_fingerprint {sim_fingerprint:013x}, sim_s {}, {} untraced rounds",
        workload.name(),
        cfg.seed,
        first.sim,
        untraced.len() - 1
    ));

    notes.push(format!(
        "untraced round walls (s): {:?}; set-up times (s): {:?}",
        untraced[1..].iter().map(|r| r.wall).collect::<Vec<_>>(),
        setup_times
    ));
    let mut metrics = Metrics::default();
    let mut spans = String::new();
    if !cfg.trace {
        metrics.set("setup_s", median(&setup_times), "s");
        metrics.set("wall_s", wall_s, "s");
        metrics.set("sim_s", first.sim, "s");
        metrics.set("peak_rss_mb", peak_rss, "MB");
        metrics.set("device_peak_mb", device_peak_mb, "MB");
        metrics.set("ok_frac", 1.0 - fail_frac, "ratio");
    } else {
        let mut m = first.counts.clone();
        m.extend(&Metrics::median_of(
            &untraced[1..]
                .iter()
                .map(|r| r.host.clone())
                .collect::<Vec<_>>(),
        ));
        let measured = &traced[1..];
        let traced_metrics: Vec<Metrics> = measured
            .iter()
            .map(|(r, tr, probes)| traced_round_metrics(r, tr, probes))
            .collect();
        m.extend(&Metrics::median_of(&traced_metrics));
        let traced_wall = best_case(
            &measured
                .iter()
                .map(|(r, _, _)| r.calls.as_slice())
                .collect::<Vec<_>>(),
        );
        m.set("trace.overhead_s", traced_wall - wall_s, "s");
        m.set("lp.mps_parse_s", median(&parse_times), "s");
        m.set("lp.nnz", nnz as f64, "count");
        let jobs = m.get("resilient.jobs");
        m.set(
            "resilient.first_try_frac",
            if jobs > 0.0 {
                m.get("resilient.first_try") / jobs
            } else {
                0.0
            },
            "ratio",
        );
        let lookups = m.get("cache.hits") + m.get("cache.misses");
        m.set(
            "cache.hit_rate",
            if lookups > 0.0 {
                m.get("cache.hits") / lookups
            } else {
                0.0
            },
            "ratio",
        );
        m.set("rounds.untraced", (untraced.len() - 1) as f64, "count");
        m.set(
            "rounds.wall_p50_s",
            median(&untraced[1..].iter().map(|r| r.wall).collect::<Vec<_>>()),
            "s",
        );
        m.set("rounds.traced", measured.len() as f64, "count");
        m.set("fail_frac", fail_frac, "ratio");
        m.set("sim_fingerprint", sim_fingerprint as f64, "hash");
        for (name, unit) in per_layer_metrics() {
            let v = m.get(&name);
            metrics.set(name, v, unit);
        }

        // The median traced round names the ledger's top rows.
        let mid = median_index(&measured.iter().map(|(r, _, _)| r.wall).collect::<Vec<_>>());
        let (r, tr, _) = &measured[mid];
        let ledger = tr.ledger();
        for (rank, ((layer, step), row)) in ledger.by_wall().into_iter().take(3).enumerate() {
            notes.push(format!(
                "ledger top{} by host time: {layer} / {step}: {:.4} s ({:.1}% of the traced round), {:.6} s modeled",
                rank + 1,
                row.wall,
                100.0 * row.wall / r.wall,
                row.sim
            ));
        }
        for (rank, ((layer, step), row)) in ledger.by_sim().into_iter().take(3).enumerate() {
            notes.push(format!(
                "ledger top{} by modeled time: {layer} / {step}: {:.6} s modeled, {:.4} s host",
                rank + 1,
                row.sim,
                row.wall
            ));
        }
        spans.push_str(&setup_tracer.to_json_lines());
        for (_, tr, probes) in &traced {
            spans.push_str(&probes.to_json_lines());
            spans.push_str(&tr.to_json_lines());
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
        spans,
    }
}

/// Per-layer host metrics of one traced round, from its spans.
fn traced_round_metrics(r: &Round, tr: &Tracer, probes: &Tracer) -> Metrics {
    let mut m = Metrics::default();
    for kind in gplex::StepKind::ALL {
        m.set(format!("simplex.wall.{}", kind.name()), 0.0, "s");
    }
    m.set("pdhg.wall_s", 0.0, "s");
    for s in tr.spans.iter().filter(|s| s.name == "recorder-step") {
        if s.layer.starts_with("core::revised") {
            m.add(format!("simplex.wall.{}", s.step), s.wall(), "s");
        } else if s.layer.starts_with("core::pdhg") {
            m.add("pdhg.wall_s", s.wall(), "s");
        }
    }
    m.set("lp.presolve_s", 0.0, "s");
    m.set("lp.standardize_s", 0.0, "s");
    for s in &probes.spans {
        match s.layer.as_str() {
            "lp::presolve" => m.add("lp.presolve_s", s.wall(), "s"),
            "lp::standard" => m.add("lp.standardize_s", s.wall(), "s"),
            _ => {}
        }
    }
    m.set("trace.coverage", tr.covered_wall() / r.wall, "ratio");
    m.set("trace.spans", tr.spans.len() as f64, "count");
    let ledger = tr.ledger();
    let rows = ledger.by_wall();
    for k in 0..3 {
        let share = rows.get(k).map_or(0.0, |(_, row)| row.wall / r.wall);
        m.set(format!("ledger.top{}_share", k + 1), share, "ratio");
    }
    m
}

/// Best-case round time, reported as `wall_s`: the sum over the round's
/// timed calls of each call's fastest time over `rounds`.
///
/// Neighbouring load on a shared host only ever adds time, and it comes
/// and goes over seconds to minutes, so the median of a run's rounds
/// follows the load of that run. A call's fastest time is its least
/// disturbed one, and a slower program slows every call, the fastest
/// included. Taking the fastest per call rather than per round lets each
/// call find its own quiet moment.
fn best_case(rounds: &[&[f64]]) -> f64 {
    let calls = rounds.first().map_or(0, |r| r.len());
    (0..calls)
        .map(|j| rounds.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Index of the median element of `xs` (lower median).
fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(idx.len() - 1) / 2]
}
