//! The reproduced experiments, one module per table/figure of DESIGN.md §3.

mod b1_batch;
mod b2_mega_batch;
mod f2f3;
mod f4;
mod f5;
mod f6_fusion;
mod o1_observe;
mod p1_regime_split;
mod r2_resilience;
mod r3_chaos;
mod t1f1;
mod t2;
mod t3;
mod t4;
mod t5;
mod u1_basis;
mod u2_sparse_lu;
mod w1_warm_cache;

use std::path::Path;

use crate::table::Table;

/// One named pass/fail check an experiment runs over its own rows.
pub(crate) struct Guard {
    /// What is checked, e.g. `m=256: fused launches/iter < unfused`.
    pub(crate) name: String,
    /// Whether the check held.
    pub(crate) pass: bool,
    /// The numbers behind the verdict, on one line.
    pub(crate) detail: String,
}

impl Guard {
    pub(crate) fn new(name: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        Guard {
            name: name.into(),
            pass,
            detail: detail.into(),
        }
    }
}

/// Output of one experiment: titled tables, printed and saved as CSV,
/// plus the guards that check the experiment's claims on those rows.
pub struct ExpReport {
    /// Experiment id (`t1`, `f1`, …).
    pub id: &'static str,
    /// Tables in presentation order: `(title, file stem, table)`.
    pub tables: Vec<(String, String, Table)>,
    /// Guards in check order; empty for unguarded experiments.
    pub(crate) guards: Vec<Guard>,
}

impl ExpReport {
    /// Print every table, write CSVs under `results_dir`, then print one
    /// line per guard.
    pub fn print_and_save(&self, results_dir: &Path) {
        for (title, stem, table) in &self.tables {
            println!("{}", table.render(title));
            let path = results_dir.join(format!("{stem}.csv"));
            match table.write_csv(&path) {
                Ok(()) => println!("   -> {}\n", path.display()),
                Err(e) => eprintln!("   !! could not write {}: {e}\n", path.display()),
            }
        }
        for g in &self.guards {
            let verdict = if g.pass { "pass" } else { "FAIL" };
            println!("   guard {verdict} {} {}: {}", self.id, g.name, g.detail);
        }
    }

    /// Number of guards that failed.
    pub fn failed_guards(&self) -> usize {
        self.guards.iter().filter(|g| !g.pass).count()
    }
}

/// All experiment ids, in DESIGN.md order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "t1", "t1b", "f1", "f2", "t2", "t3", "f3", "f4", "t4", "f5", "t5", "f6", "b1", "r2", "o1",
        "w1", "b2", "r3", "u1", "u2", "p1",
    ]
}

/// Run one experiment by id. `quick` shrinks the grids for smoke runs.
pub fn run(id: &str, quick: bool) -> Option<ExpReport> {
    match id {
        "t1" | "f1" => Some(t1f1::run(id == "f1", quick)),
        "t1b" => Some(t1f1::run_t1b(quick)),
        "f2" => Some(f2f3::run_f2(quick)),
        "f3" => Some(f2f3::run_f3(quick)),
        "t2" => Some(t2::run(quick)),
        "t3" => Some(t3::run(quick)),
        "f4" => Some(f4::run(quick)),
        "t4" => Some(t4::run(quick)),
        "f5" => Some(f5::run(quick)),
        "t5" => Some(t5::run(quick)),
        "f6" => Some(f6_fusion::run(quick)),
        "b1" => Some(b1_batch::run(quick)),
        "r2" => Some(r2_resilience::run(quick)),
        "o1" => Some(o1_observe::run(quick)),
        "w1" => Some(w1_warm_cache::run(quick)),
        "b2" => Some(b2_mega_batch::run(quick)),
        "r3" => Some(r3_chaos::run(quick)),
        "u1" => Some(u1_basis::run(quick)),
        "u2" => Some(u2_sparse_lu::run(quick)),
        "p1" => Some(p1_regime_split::run(quick)),
        _ => None,
    }
}

/// Names of the failed guards, for tests that feed a guard a failing row.
#[cfg(test)]
fn failed_names(guards: Vec<Guard>) -> Vec<String> {
    guards
        .into_iter()
        .filter(|g| !g.pass)
        .map(|g| g.name)
        .collect()
}
