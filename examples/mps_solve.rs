//! MPS round trip: write a model to MPS, parse it back, solve both and
//! compare — or solve an MPS file given on the command line.
//!
//! ```text
//! cargo run --release --example mps_solve [path/to/model.mps]
//! ```

use gplex::{SolveRequest, SolverOptions, Status};
use lp::{generator, mps};

fn main() {
    let model = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            mps::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
        }
        None => {
            // No file given: demonstrate the round trip on a generated model.
            let original = generator::dense_random(8, 12, 21);
            let text = mps::write(&original);
            println!("generated model as MPS ({} bytes):\n", text.len());
            for line in text.lines().take(12) {
                println!("  {line}");
            }
            println!("  ... ({} lines total)\n", text.lines().count());

            let reparsed = mps::parse(&text).expect("round trip parses");
            let a = SolveRequest::model(&original, &SolverOptions::default())
                .run::<f64>()
                .unwrap();
            let b = SolveRequest::model(&reparsed, &SolverOptions::default())
                .run::<f64>()
                .unwrap();
            assert_eq!(a.status, Status::Optimal);
            assert_eq!(b.status, Status::Optimal);
            assert!((a.objective - b.objective).abs() < 1e-9);
            println!(
                "original objective {:.6} == reparsed objective {:.6} ✓\n",
                a.objective, b.objective
            );
            reparsed
        }
    };

    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    println!("model      : {}", model.name);
    println!("status     : {:?}", sol.status);
    if sol.status == Status::Optimal {
        println!("objective  : {:.6}", sol.objective);
        let nonzero = sol.x.iter().filter(|&&v| v.abs() > 1e-9).count();
        println!("nonzeros   : {nonzero} of {} variables", sol.x.len());
    }
    if let Some(reason) = &sol.reason {
        println!("reason     : {reason}");
    }
    println!("iterations : {}", sol.stats.iterations);
}
