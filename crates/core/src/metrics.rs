//! A registry of monotonic counters and gauges with stable dotted names.
//!
//! One [`MetricsRegistry`] aggregates everything the stack already counts —
//! solver iteration/step counters ([`crate::SolveStats`]), gpu-sim op and
//! fault counters ([`gpu_sim::Counters`] / [`gpu_sim::FaultCounts`]), batch
//! throughput ([`crate::BatchStats`]), and resilience retry/degradation
//! events — into a single snapshot. Names are part of the public contract:
//! tests pin them, exporters key on them, and downstream dashboards can rely
//! on them not drifting between releases.
//!
//! Counters are monotonic `u64`s (observing twice adds); gauges are
//! last-write-wins `f64`s. The same three exporters as
//! [`crate::trace::StepTimings`]: prose table, CSV, single-line JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gpu_sim::{Counters, FaultCounts, TimeCategory};

use crate::batch::BatchStats;
use crate::stats::SolveStats;
use crate::trace::{StepKind, StepTimings};

/// A point-in-time value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last observed level.
    Gauge(f64),
}

impl MetricValue {
    /// The value as `f64` regardless of flavor.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
        }
    }
}

/// Aggregating registry; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the counter `name` (creating it at zero).
    pub fn inc(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Set the gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Add `v` to the gauge `name` (gauges that accumulate seconds).
    pub fn add_gauge(&mut self, name: &str, v: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Fold one solve's statistics in under `solve.*`.
    pub fn observe_solve(&mut self, stats: &SolveStats) {
        self.inc("solve.count", 1);
        self.inc("solve.iterations", stats.iterations as u64);
        self.inc("solve.phase1.iterations", stats.phase1_iterations as u64);
        self.inc("solve.phase2.iterations", stats.phase2_iterations() as u64);
        self.inc("solve.refactorizations", stats.refactorizations as u64);
        self.inc("solve.degenerate_steps", stats.degenerate_steps as u64);
        self.inc("solve.bland_iterations", stats.bland_iterations as u64);
        self.inc("solve.nan_recoveries", stats.nan_recoveries as u64);
        self.inc("solve.device_faults", stats.device_faults);
        self.inc("solve.retries", stats.retries as u64);
        self.inc("solve.degradations", stats.degradations as u64);
        self.inc(
            "solve.warm_start.attempted",
            stats.warm_start_attempted as u64,
        );
        self.inc(
            "solve.warm_start.rejected",
            stats.warm_start_rejected as u64,
        );
        self.inc(
            "solve.warm_start.iterations_saved",
            stats.warm_iterations_saved,
        );
        self.inc("solve.checkpoints_taken", stats.checkpoints_taken as u64);
        self.inc("solve.checkpoint_resumes", stats.checkpoint_resumes as u64);
        self.inc("solve.wasted_iterations", stats.wasted_iterations);
        self.inc("solve.eta_pivots", stats.eta_pivots as u64);
        self.inc("solve.perturbations", stats.perturbations as u64);
        self.inc("solve.lu.markowitz_rejections", stats.markowitz_rejections);
        self.inc("solve.pdhg.iterations", stats.pdhg_iterations);
        self.inc("solve.pdhg.restarts", stats.restarts);
        self.set_gauge("solve.pdhg.final_gap", stats.final_gap);
        self.set_gauge("solve.max_eta_chain", stats.max_eta_chain as f64);
        self.set_gauge("solve.lu.fill_in", stats.lu_fill_in as f64);
        self.set_gauge("solve.lu.refactor_nnz", stats.lu_refactor_nnz as f64);
        self.add_gauge("solve.sim_seconds", stats.total_time().as_secs_f64());
        self.add_gauge("solve.wall_seconds", stats.wall_seconds);
        self.add_gauge("solve.backoff_seconds", stats.backoff_seconds);
    }

    /// Fold a step-timing histogram in under `trace.step.*`.
    pub fn observe_timings(&mut self, timings: &StepTimings) {
        for kind in StepKind::ALL {
            let s = timings.get(kind);
            self.inc(&format!("trace.step.{}.count", kind.name()), s.count);
            self.add_gauge(
                &format!("trace.step.{}.sim_seconds", kind.name()),
                s.total.as_secs_f64(),
            );
        }
    }

    /// Fold one batch run's aggregate statistics in under `batch.*`.
    pub fn observe_batch(&mut self, stats: &BatchStats) {
        self.inc("batch.runs", 1);
        self.inc("batch.jobs", stats.jobs as u64);
        self.inc("batch.solved", stats.solved as u64);
        self.inc("batch.failed", stats.failed as u64);
        self.inc("batch.panicked", stats.panicked as u64);
        self.inc("batch.device_faults", stats.device_faults);
        self.inc("batch.retries", stats.retries as u64);
        self.inc("batch.degradations", stats.degradations as u64);
        self.inc("batch.warm.hits", stats.warm_hits);
        self.inc("batch.warm.misses", stats.warm_misses);
        self.inc("batch.warm.rejected", stats.warm_rejected);
        self.inc("batch.warm.iterations_saved", stats.warm_iterations_saved);
        self.inc("batch.evacuated", stats.evacuated_jobs as u64);
        self.inc("batch.resumed", stats.resumed_jobs as u64);
        self.inc("batch.wasted_iterations", stats.wasted_iterations);
        self.add_gauge("batch.wall_seconds", stats.wall_seconds);
        self.add_gauge("batch.sim_total_seconds", stats.sim_total.as_secs_f64());
        self.add_gauge(
            "batch.sim_makespan_seconds",
            stats.sim_makespan.as_secs_f64(),
        );
        self.set_gauge("batch.speedup", stats.speedup());
        self.set_gauge("batch.throughput_lps", stats.throughput());
        for (label, tally) in &stats.per_backend {
            self.inc(&format!("batch.backend.{label}.jobs"), tally.jobs as u64);
            self.add_gauge(
                &format!("batch.backend.{label}.sim_seconds"),
                tally.sim_time.as_secs_f64(),
            );
            self.add_gauge(
                &format!("batch.backend.{label}.active_seconds"),
                tally.wall_seconds,
            );
        }
    }

    /// Fold a simulated device's op counters in under `device.*`.
    pub fn observe_device(&mut self, c: &Counters) {
        self.inc("device.kernels_launched", c.kernels_launched);
        self.inc("device.h2d.count", c.h2d_count);
        self.inc("device.h2d.bytes", c.h2d_bytes);
        self.inc("device.d2h.count", c.d2h_count);
        self.inc("device.d2h.bytes", c.d2h_bytes);
        self.inc("device.transactions", c.transactions);
        self.inc("device.mem_bytes", c.mem_bytes);
        self.inc("device.flops", c.flops);
        self.inc("device.streams_retired", c.streams_retired);
        self.inc("device.pool.allocs", c.pool_allocs);
        self.inc("device.pool.recycles", c.pool_recycles);
        self.add_gauge("device.elapsed_seconds", c.elapsed.as_secs_f64());
        self.set_gauge("device.peak_allocated_bytes", c.peak_allocated_bytes as f64);
        for cat in TimeCategory::ALL {
            let name = match cat {
                TimeCategory::KernelBody => "device.time.kernel_body_seconds",
                TimeCategory::LaunchOverhead => "device.time.launch_overhead_seconds",
                TimeCategory::TransferH2D => "device.time.h2d_seconds",
                TimeCategory::TransferD2H => "device.time.d2h_seconds",
            };
            self.add_gauge(name, c.breakdown.get(cat).as_secs_f64());
        }
    }

    /// Fold a device's injected-fault counters in under `device.faults.*`.
    pub fn observe_faults(&mut self, f: &FaultCounts) {
        self.inc("device.faults.oom", f.oom);
        self.inc("device.faults.transfer_timeout", f.transfer_timeouts);
        self.inc("device.faults.kernel", f.kernel_faults);
        self.inc("device.faults.corruption", f.corruptions);
        self.inc("device.faults.stream_death", f.stream_deaths);
        self.inc("device.faults.total", f.total());
        self.inc("device.faults.ops_checked", f.ops_checked);
    }

    /// Counter value (None when never incremented).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value (None when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Point-in-time snapshot, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<(String, MetricValue)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), MetricValue::Counter(*v)))
            .chain(
                self.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), MetricValue::Gauge(*v))),
            )
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { entries }
    }
}

/// Sorted point-in-time view of a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// All entries, sorted by name.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Value by exact name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the registry had no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Prose table, one row per metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name:<44} {v:>16}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name:<44} {v:>16.6}");
                }
            }
        }
        out
    }

    /// CSV: `name,kind,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,value\n");
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name},counter,{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name},gauge,{v:.9}");
                }
            }
        }
        out
    }

    /// Single-line JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"{name}\":{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"{name}\":{v:.9}");
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimTime;

    #[test]
    fn counters_are_monotonic_and_gauges_overwrite() {
        let mut reg = MetricsRegistry::new();
        reg.inc("solve.count", 1);
        reg.inc("solve.count", 2);
        reg.set_gauge("batch.speedup", 1.5);
        reg.set_gauge("batch.speedup", 2.5);
        assert_eq!(reg.counter("solve.count"), Some(3));
        assert_eq!(reg.gauge("batch.speedup"), Some(2.5));
        assert_eq!(reg.counter("missing"), None);
    }

    #[test]
    fn solve_metric_names_are_stable() {
        let mut reg = MetricsRegistry::new();
        reg.observe_solve(&SolveStats::default());
        let names: Vec<&str> = reg.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "solve.bland_iterations",
                "solve.checkpoint_resumes",
                "solve.checkpoints_taken",
                "solve.count",
                "solve.degenerate_steps",
                "solve.degradations",
                "solve.device_faults",
                "solve.eta_pivots",
                "solve.iterations",
                "solve.lu.markowitz_rejections",
                "solve.nan_recoveries",
                "solve.pdhg.iterations",
                "solve.pdhg.restarts",
                "solve.perturbations",
                "solve.phase1.iterations",
                "solve.phase2.iterations",
                "solve.refactorizations",
                "solve.retries",
                "solve.warm_start.attempted",
                "solve.warm_start.iterations_saved",
                "solve.warm_start.rejected",
                "solve.wasted_iterations",
            ]
        );
        for g in [
            "solve.sim_seconds",
            "solve.wall_seconds",
            "solve.backoff_seconds",
            "solve.max_eta_chain",
            "solve.pdhg.final_gap",
            "solve.lu.fill_in",
            "solve.lu.refactor_nnz",
        ] {
            assert!(reg.gauge(g).is_some(), "missing gauge {g}");
        }
    }

    #[test]
    fn fault_metric_names_are_stable() {
        let mut reg = MetricsRegistry::new();
        reg.observe_faults(&FaultCounts::default());
        let names: Vec<&str> = reg.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "device.faults.corruption",
                "device.faults.kernel",
                "device.faults.oom",
                "device.faults.ops_checked",
                "device.faults.stream_death",
                "device.faults.total",
                "device.faults.transfer_timeout",
            ]
        );
    }

    #[test]
    fn empty_batch_metrics_stay_finite() {
        // A zero-job batch (every job filtered out, or a dry run) must not
        // leak NaN rates into the exporters — `NaN` is not valid JSON and
        // poisons any downstream comparison.
        let mut reg = MetricsRegistry::new();
        reg.observe_batch(&BatchStats::default());
        reg.observe_solve(&SolveStats::default());
        let snap = reg.snapshot();
        for (name, value) in snap.entries() {
            assert!(value.as_f64().is_finite(), "{name} is not finite");
        }
        assert!(!snap.to_json().contains("NaN"));
        assert!(!snap.to_csv().contains("NaN"));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let mut reg = MetricsRegistry::new();
        reg.inc("z.last", 9);
        reg.set_gauge("a.first", 0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.entries()[0].0, "a.first");
        assert_eq!(snap.get("z.last"), Some(MetricValue::Counter(9)));
        assert_eq!(snap.get("nope"), None);
        assert_eq!(snap.get("a.first").unwrap().as_f64(), 0.5);
    }

    #[test]
    fn exporters_agree_on_entry_count() {
        let mut reg = MetricsRegistry::new();
        reg.observe_solve(&SolveStats::default());
        let snap = reg.snapshot();
        assert_eq!(snap.render_table().lines().count(), snap.len());
        assert_eq!(snap.to_csv().lines().count(), snap.len() + 1);
        let json = snap.to_json();
        assert!(!json.contains('\n'));
        assert_eq!(json.matches(':').count(), snap.len());
    }

    #[test]
    fn observe_timings_records_counts_and_seconds() {
        let mut t = StepTimings::new();
        t.record(StepKind::UpdateBasis, SimTime::from_secs(2.0), 0.0);
        let mut reg = MetricsRegistry::new();
        reg.observe_timings(&t);
        assert_eq!(reg.counter("trace.step.update-basis.count"), Some(1));
        assert_eq!(reg.gauge("trace.step.update-basis.sim_seconds"), Some(2.0));
        assert_eq!(reg.counter("trace.step.pricing.count"), Some(0));
    }
}
