//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero when an answer fails its check.

use std::process::ExitCode;

use perfbench::workloads::{Scale, Workload};
use perfbench::{report, run, Config};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <dense-paper|sparse-large|fleet> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    };
    let out = run(&cfg);
    for note in &out.notes {
        println!("{note}");
    }
    if trace && !out.spans.is_empty() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-s{seed}.jsonl", workload.name()));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out.spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
