//! Production planning: a multi-product, multi-resource plan with a
//! contractual minimum — exercises all three constraint senses, the
//! two-phase path, and pivot-rule comparison.
//!
//! ```text
//! cargo run --release --example production_planning
//! ```

use gplex::{PivotRule, SolveRequest, SolverOptions, Status};
use lp::{LinearProgram, Rel, Sense, VarId};

fn build_model() -> (LinearProgram, Vec<VarId>) {
    // Four products, three shared resources, one contract row.
    let profit = [8.0, 11.0, 9.0, 6.5];
    let machine_hours = [2.0, 3.5, 2.5, 1.5];
    let labor_hours = [3.0, 4.0, 2.0, 2.5];
    let raw_material = [1.5, 2.0, 3.0, 1.0];

    let mut model = LinearProgram::new("production-planning").with_sense(Sense::Max);
    let vars: Vec<VarId> = (0..4)
        .map(|p| model.add_var(format!("product{}", p + 1), 0.0, 400.0, profit[p]))
        .collect();
    let row = |coeffs: &[f64]| -> Vec<(VarId, f64)> {
        vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)).collect()
    };
    model.add_constraint("machine", &row(&machine_hours), Rel::Le, 1_500.0);
    model.add_constraint("labor", &row(&labor_hours), Rel::Le, 2_000.0);
    model.add_constraint("material", &row(&raw_material), Rel::Le, 1_200.0);
    // Contractual delivery: at least 100 units of product 1 and 2 combined.
    model.add_constraint(
        "contract",
        &[(vars[0], 1.0), (vars[1], 1.0)],
        Rel::Ge,
        100.0,
    );
    (model, vars)
}

fn main() {
    let (model, vars) = build_model();

    println!(
        "solving {} ({} vars, {} rows)\n",
        model.name,
        model.num_vars(),
        model.num_constraints()
    );
    for rule in [PivotRule::Dantzig, PivotRule::Bland, PivotRule::Hybrid] {
        let opts = SolverOptions {
            pivot_rule: rule,
            ..Default::default()
        };
        let sol = SolveRequest::model(&model, &opts).run::<f64>().unwrap();
        assert_eq!(sol.status, Status::Optimal);
        println!(
            "{rule:?}: profit = {:.2} in {} iterations ({} phase-1, {} degenerate)",
            sol.objective,
            sol.stats.iterations,
            sol.stats.phase1_iterations,
            sol.stats.degenerate_steps
        );
    }

    // Final plan under the default configuration.
    let sol = SolveRequest::model(&model, &SolverOptions::default())
        .run::<f64>()
        .unwrap();
    println!("\noptimal plan:");
    for (&v, value) in vars.iter().zip(&sol.x) {
        println!("  {:<10} {:>8.2} units", model.var(v).name, value);
    }
    println!("  {:<10} {:>8.2}", "profit", sol.objective);

    // Resource usage report.
    println!("\nresource usage:");
    for c in model.constraints() {
        let used: f64 = c.coeffs.iter().map(|&(v, a)| a * sol.x[v.0]).sum();
        println!("  {:<10} {used:>9.2} {} {:>9.2}", c.name, c.rel, c.rhs);
    }
}
