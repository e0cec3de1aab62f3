//! Quickstart: build a small LP, solve it, inspect the solution.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gplex::{SolveRequest, SolverOptions, Status};
use lp::{LinearProgram, Rel, Sense};

fn main() {
    // The classic Wyndor Glass product-mix problem:
    //   maximize 3x + 5y
    //   subject to  x ≤ 4,  2y ≤ 12,  3x + 2y ≤ 18,  x, y ≥ 0.
    let mut model = LinearProgram::new("wyndor").with_sense(Sense::Max);
    let x = model.add_var_nonneg("doors", 3.0);
    let y = model.add_var_nonneg("windows", 5.0);
    model.add_constraint("plant1", &[(x, 1.0)], Rel::Le, 4.0);
    model.add_constraint("plant2", &[(y, 2.0)], Rel::Le, 12.0);
    model.add_constraint("plant3", &[(x, 3.0), (y, 2.0)], Rel::Le, 18.0);

    let solution = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();

    assert_eq!(solution.status, Status::Optimal);
    println!("status     : {:?}", solution.status);
    println!("objective  : {}", solution.objective);
    for (var, value) in model.vars().iter().zip(&solution.x) {
        println!("  {:<8} = {value}", var.name);
    }
    println!(
        "iterations : {} ({} in phase 1)",
        solution.stats.iterations, solution.stats.phase1_iterations
    );
    println!("\nper-step modeled time:\n{}", solution.stats);
}
