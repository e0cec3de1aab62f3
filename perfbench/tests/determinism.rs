//! Determinism self-test: a shrunken copy of each workload, run twice with
//! one seed, must repeat every modeled and count-type metric bit for bit;
//! a different seed must change the inputs.

use perfbench::workloads::{plan, Scale, Workload};
use perfbench::{is_exact, per_layer_metrics, run, Config, Outcome, END_TO_END};

fn shrunk(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Shrunk,
    });
    assert!(out.correct, "{workload:?} seed {seed}: {:#?}", out.notes);
    out
}

fn assert_same(a: &Outcome, b: &Outcome, names: &[&str], what: &str) {
    for name in names {
        assert_eq!(
            a.metrics.get(name).to_bits(),
            b.metrics.get(name).to_bits(),
            "{what}: {name} differs between two runs of one seed ({} vs {})",
            a.metrics.get(name),
            b.metrics.get(name)
        );
    }
}

#[test]
fn end_to_end_modeled_metrics_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b) = (shrunk(w, 7, false), shrunk(w, 7, false));
        assert_same(&a, &b, &["sim_s", "device_peak_mb", "ok_frac"], w.name());
        assert!(a.metrics.get("sim_s") > 0.0);
        for (name, _) in END_TO_END {
            assert!(
                a.metrics.values.contains_key(name),
                "{}: {name} missing",
                w.name()
            );
        }
    }
}

#[test]
fn count_type_layer_metrics_repeat_exactly() {
    for w in Workload::ALL {
        let (a, b) = (shrunk(w, 7, true), shrunk(w, 7, true));
        let exact: Vec<String> = per_layer_metrics()
            .into_iter()
            .filter(|(n, u)| is_exact(n, u))
            .map(|(n, _)| n)
            .collect();
        let names: Vec<&str> = exact.iter().map(String::as_str).collect();
        assert_same(&a, &b, &names, w.name());
        assert_eq!(a.metrics.get("fail_frac"), 0.0);
        assert!(a.metrics.get("sim_fingerprint") > 0.0);
        assert!(
            a.metrics.get("trace.coverage") > 0.9,
            "{}: coverage {}",
            w.name(),
            a.metrics.get("trace.coverage")
        );
        for (name, _) in per_layer_metrics() {
            assert!(
                a.metrics.values.contains_key(&name),
                "{}: {name} missing",
                w.name()
            );
        }
    }
}

#[test]
fn a_different_seed_changes_the_inputs() {
    for w in Workload::ALL {
        let text = |seed| -> Vec<String> {
            plan(w, seed, Scale::Shrunk)
                .models
                .iter()
                .map(lp::mps::write)
                .collect()
        };
        assert_eq!(text(7), text(7), "{}: one seed, two inputs", w.name());
        assert_ne!(text(7), text(8), "{}: two seeds, one input", w.name());
    }
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let metrics = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_metrics());
    for (name, unit) in metrics {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
