//! Spans recorded around the benchmark's calls into the program, and the
//! per-layer ledger built from them.
//!
//! A top-level span brackets one public call (`try_solve_on_recorded`,
//! `BatchSolver::solve`, ...). Its children are aggregates the call hands
//! back: the per-step totals of a `TraceRecorder`, or the per-job records
//! of a batch report. Children carry a duration but no timestamps of their
//! own, so they are laid out back to back from the parent's start. A span's
//! self time is its duration minus its children's; every span, parent or
//! child, charges its self time to one (layer, step) row of the ledger.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use gplex::{StepKind, TraceRecorder};

/// One recorded span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call or aggregate this span stands for.
    pub name: &'static str,
    /// Ledger layer (a module of the program, qualified by backend).
    pub layer: String,
    /// Ledger step within the layer.
    pub step: String,
    /// Job (model index within the round) the span belongs to.
    pub job: Option<usize>,
    /// Host start, seconds since the tracer's origin.
    pub start: f64,
    /// Host end, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Modeled seconds charged inside the span (children included).
    pub sim: f64,
}

impl Span {
    /// Host duration in seconds.
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store for one traced round.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, parents before their children.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a top-level span and return its result with the span
    /// index (so the caller can attach children and the modeled time).
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: impl Into<String>,
        step: impl Into<String>,
        job: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer: layer.into(),
            step: step.into(),
            job,
            start,
            end,
            parent: None,
            sim: 0.0,
        });
        (out, self.spans.len() - 1)
    }

    /// Attach an aggregate child of `wall` host seconds and `sim` modeled
    /// seconds to `parent`, placed right after the parent's previous child.
    pub fn child(
        &mut self,
        parent: usize,
        name: &'static str,
        layer: impl Into<String>,
        step: impl Into<String>,
        wall: f64,
        sim: f64,
    ) {
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end)
            .fold(self.spans[parent].start, f64::max);
        let job = self.spans[parent].job;
        self.spans.push(Span {
            name,
            layer: layer.into(),
            step: step.into(),
            job,
            start,
            end: start + wall,
            parent: Some(parent),
            sim,
        });
    }

    /// Attach one child per recorded step kind of `rec` to `parent`.
    /// `step_name` maps a kind to the ledger's step name for the layer.
    pub fn children_from_recorder(
        &mut self,
        parent: usize,
        layer: &str,
        rec: &TraceRecorder,
        step_name: fn(StepKind) -> &'static str,
    ) {
        for kind in StepKind::ALL {
            let stat = rec.timings.get(kind);
            if stat.count > 0 {
                self.child(
                    parent,
                    "recorder-step",
                    layer,
                    step_name(kind),
                    stat.wall_seconds,
                    stat.total.as_secs_f64(),
                );
            }
        }
    }

    /// Sum of top-level span durations.
    pub fn covered_wall(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::wall)
            .sum()
    }

    /// Self time and self modeled time per (layer, step) row.
    pub fn ledger(&self) -> Ledger {
        let mut child_wall = vec![0.0; self.spans.len()];
        let mut child_sim = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_wall[p] += s.wall();
                child_sim[p] += s.sim;
            }
        }
        let mut rows: BTreeMap<(String, String), Row> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = rows.entry((s.layer.clone(), s.step.clone())).or_default();
            row.wall += s.wall() - child_wall[i];
            row.sim += s.sim - child_sim[i];
        }
        Ledger { rows }
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"step\":\"{}\",\"job\":{},\"start_s\":{},\"end_s\":{},\"parent\":{},\"sim_s\":{}}}",
                s.name,
                s.layer,
                s.step,
                s.job.map_or("null".to_string(), |j| j.to_string()),
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.sim
            );
        }
        out
    }
}

/// One ledger row: self time charged to a (layer, step).
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    /// Host seconds.
    pub wall: f64,
    /// Modeled seconds.
    pub sim: f64,
}

/// Self time per (layer, step) row of one traced round.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Rows keyed by (layer, step).
    pub rows: BTreeMap<(String, String), Row>,
}

impl Ledger {
    /// Rows ordered by descending host self time.
    pub fn by_wall(&self) -> Vec<(&(String, String), &Row)> {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.wall.total_cmp(&a.1.wall));
        rows
    }

    /// Rows ordered by descending modeled self time.
    pub fn by_sim(&self) -> Vec<(&(String, String), &Row)> {
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by(|a, b| b.1.sim.total_cmp(&a.1.sim));
        rows
    }
}

/// Ledger step names for PDHG's recorder spans. The PDHG driver reports
/// its fused iteration blocks as `UpdateBasis`, its iterate downloads as
/// `Transfer` and its restarts as `Refactorize`; the ledger names them for
/// what they are so PDHG time never reads as simplex work.
pub fn pdhg_step(kind: StepKind) -> &'static str {
    match kind {
        StepKind::UpdateBasis => "iteration-block",
        StepKind::Transfer => "iterate-transfer",
        StepKind::Refactorize => "restart",
        other => other.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let (_, id) = t.call("call", "a", "outer", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.spans[id].sim = 3.0;
        let wall = t.spans[id].wall();
        t.child(id, "c", "b", "inner", wall / 2.0, 2.0);
        let ledger = t.ledger();
        let outer = ledger.rows[&("a".to_string(), "outer".to_string())];
        let inner = ledger.rows[&("b".to_string(), "inner".to_string())];
        assert!((outer.wall - wall / 2.0).abs() < 1e-12);
        assert_eq!(outer.sim, 1.0);
        assert_eq!(inner.sim, 2.0);
        let total: f64 = ledger.rows.values().map(|r| r.wall).sum();
        assert!((total - t.covered_wall()).abs() < 1e-12);
    }
}
