//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--exp <id>[,<id>…]|all] [--quick] [--out <dir>]
//! ```
//!
//! Experiment ids are listed by `experiments::all_ids()` (DESIGN.md §3 and
//! EXPERIMENTS.md); with no `--exp`, every one runs. `--quick` shrinks the
//! grids for smoke runs; `--out` defaults to `results/`.
//!
//! Each experiment prints one line per guard it checks on its own rows.
//! The exit code is 1 if any guard failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use gplex_bench::experiments;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--exp <id>[,<id>...]|all] [--quick] [--out <dir>]\n\
         experiments: {}",
        experiments::all_ids().join(" ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut exps: Vec<String> = Vec::new();
    let mut quick = false;
    let mut out = PathBuf::from("results");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => {
                let v = args.next().unwrap_or_else(|| usage());
                exps.extend(v.split(',').map(|s| s.trim().to_lowercase()));
            }
            "--quick" => quick = true,
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if exps.is_empty() || exps.iter().any(|e| e == "all") {
        exps = experiments::all_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
        // t1 already prints the derived f1; avoid duplicating the runs.
        exps.retain(|e| e != "f1");
    }

    println!(
        "gplex reproduction harness — {} mode, writing CSVs to {}/\n",
        if quick { "quick" } else { "full" },
        out.display()
    );
    let mut failed = 0;
    for id in &exps {
        let started = std::time::Instant::now();
        match experiments::run(id, quick) {
            Some(report) => {
                report.print_and_save(&out);
                failed += report.failed_guards();
                println!("[{} done in {:.1}s]\n", id, started.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::from(2);
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} guard(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
