//! O1 (observability): per-step profile of the solver through the trace
//! subsystem — the measurement that motivates the paper's offload story.
//!
//! The primary table profiles the **CPU reference model** (the paper's
//! serial baseline) on rectangular `n = 3m` dense instances: there, basis
//! update and pricing dominate the iteration — exactly the two steps the
//! paper moves to the GPU. The simulated-GPU profile is reported as a
//! supplement: it shows what the offload does to the profile (the fixed
//! per-launch and per-transfer costs lift the cheap steps' shares); see
//! EXPERIMENTS.md §O1 for the discussion.
//!
//! Alongside the shares the run validates the trace subsystem itself:
//!
//! * **coverage** — summed per-span host wall time vs the solve's measured
//!   wall time (spans must account for ≥95% of where the time went);
//! * **consistency** — summed per-span simulated time vs the legacy
//!   [`gplex::Step`] accounting (byte-identical clock sampling);
//! * **determinism** — two same-seed GPU solves must produce bitwise-equal
//!   event-trace fingerprints; a guard fails the run otherwise.
//!
//! Writes `results/o1_step_breakdown.csv`, a GPU supplement CSV and
//! `results/o1_determinism.csv`.

use gplex::trace::{StepKind, TraceRecorder};
use lp::{generator, StandardForm};

use crate::measure::{run_standard_traced, Measurement, Target};
use crate::table::Table;
use crate::workload;

use super::{ExpReport, Guard};

/// One profiled solve: the measurement plus its recorder.
struct Profile {
    m: usize,
    n: usize,
    meas: Measurement,
    rec: TraceRecorder,
    /// Driver-measured wall seconds (excludes backend construction).
    solve_wall: f64,
}

/// Event-trace ring capacity: enough for the full tail of the largest run
/// while keeping the post-mortem buffer bounded.
const EVENT_CAP: usize = 4096;

fn profile(m: usize, n: usize, seed: u64, target: &Target) -> Profile {
    let model = generator::dense_random(m, n, seed);
    let sf = StandardForm::<f32>::from_lp(&model).expect("generated model standardizes");
    let opts = workload::paper_options();
    let mut rec = TraceRecorder::with_events(EVENT_CAP);
    let (meas, res) = run_standard_traced(&sf, target, &opts, &mut rec);
    Profile {
        m,
        n,
        meas,
        rec,
        solve_wall: res.stats.wall_seconds,
    }
}

fn share_row(p: &Profile) -> Vec<String> {
    let t = &p.rec.timings;
    let mut row = vec![
        p.m.to_string(),
        p.n.to_string(),
        p.meas.iterations.to_string(),
        format!("{:.6}", p.meas.sim_seconds),
    ];
    for kind in StepKind::ALL {
        row.push(format!("{:.1}", 100.0 * t.fraction(kind)));
    }
    let ranked = t.ranked();
    row.push(format!("{}+{}", ranked[0].name(), ranked[1].name()));
    row.push(format!("{:.1}", 100.0 * wall_coverage(p)));
    row
}

/// Fraction of the solve's wall time accounted for by spans.
fn wall_coverage(p: &Profile) -> f64 {
    if p.solve_wall == 0.0 {
        return 1.0;
    }
    p.rec.timings.total_wall_seconds() / p.solve_wall
}

/// Column headers for [`share_row`]: one share column per
/// [`StepKind::ALL`] entry, in the same order.
fn headers() -> Vec<String> {
    let mut h: Vec<String> = ["m", "n", "iters", "sim-s"].map(String::from).to_vec();
    h.extend(StepKind::ALL.iter().map(|k| format!("{}-%", k.name())));
    h.push("top-2".into());
    h.push("wall-cover-%".into());
    h
}

/// Same-seed GPU traces must fingerprint bitwise-equal.
fn guards(fingerprints: (u64, u64)) -> Vec<Guard> {
    vec![Guard::new(
        "same-seed GPU trace fingerprints equal",
        fingerprints.0 == fingerprints.1,
        format!("{:016x} vs {:016x}", fingerprints.0, fingerprints.1),
    )]
}

pub fn run(quick: bool) -> ExpReport {
    // Rectangular n = 3m: the paper's motivating shape (more columns than
    // rows keeps pricing honest while the m×m update still bites).
    let sizes: &[usize] = if quick { &[128, 256] } else { &[256, 512, 768] };
    let seed = 7;

    // ---- primary: CPU reference profile -----------------------------------
    let cpu_profiles: Vec<Profile> = sizes
        .iter()
        .map(|&m| profile(m, 3 * m, seed, &Target::cpu()))
        .collect();
    let mut t = Table::new(headers());
    for p in &cpu_profiles {
        t.push(share_row(p));
    }

    // ---- supplement: simulated-GPU profile --------------------------------
    // Smaller shapes: the GPU share pattern is shape-stable and the point
    // is the contrast with the CPU profile, not another full sweep.
    let gpu_sizes: &[usize] = if quick { &[96] } else { &[128, 256] };
    let gpu_profiles: Vec<Profile> = gpu_sizes
        .iter()
        .map(|&m| profile(m, 3 * m, seed, &Target::gpu()))
        .collect();
    let mut tg = Table::new(headers());
    for p in &gpu_profiles {
        tg.push(share_row(p));
    }

    // ---- determinism check: same-seed GPU traces are bitwise-equal --------
    let fp_m = 64;
    let fp_a = profile(fp_m, 3 * fp_m, seed, &Target::gpu());
    let fp_b = profile(fp_m, 3 * fp_m, seed, &Target::gpu());
    let fp = (fp_a.rec.events.fingerprint(), fp_b.rec.events.fingerprint());
    let mut td = Table::new(vec![
        "m",
        "n",
        "fingerprint-a",
        "fingerprint-b",
        "determinism",
    ]);
    td.push(vec![
        fp_m.to_string(),
        (3 * fp_m).to_string(),
        format!("{:016x}", fp.0),
        format!("{:016x}", fp.1),
        if fp.0 == fp.1 { "equal" } else { "DIFFERENT" }.to_string(),
    ]);

    ExpReport {
        id: "o1",
        guards: guards(fp),
        tables: vec![
            (
                "O1: per-step profile, CPU reference model (n = 3m dense) — update + pricing \
                 dominate the serial iteration"
                    .into(),
                "o1_step_breakdown".into(),
                t,
            ),
            (
                "O1b: per-step profile, simulated GPU (supplement — what the offload does \
                 to the profile)"
                    .into(),
                "o1_gpu_supplement".into(),
                tg,
            ),
            (
                "O1c: trace determinism — two same-seed GPU solves".into(),
                "o1_determinism".into(),
                td,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_cover_every_step_kind() {
        assert_eq!(headers().len(), 4 + StepKind::ALL.len() + 2);
    }

    #[test]
    fn determinism_guard_fails_on_a_fingerprint_mismatch() {
        assert!(guards((7, 7))[0].pass);
        assert!(!guards((7, 8))[0].pass);
    }
}
