//! Modeled single-core CPU baseline.
//!
//! The paper's comparison is GPU versus *one core* of a 2008/2009 desktop
//! CPU running a tuned serial BLAS (ATLAS). The reproduction cannot wall-clock
//! that machine, so CPU time — like GPU time — is charged from a roofline
//! model: `max(flops / F, bytes / B) + overhead`, with constants calibrated
//! to a Core 2 quad-era core (see `EXPERIMENTS.md` for calibration notes).

use gpu_sim::SimTime;
use parking_lot_free::Cell64;

/// A tiny `Cell<f64>`-based accumulator so [`CpuClock`] stays `Send`-free and
/// dependency-free (module-private shim; `parking_lot` is overkill here).
mod parking_lot_free {
    use std::cell::Cell;

    /// Interior-mutable f64 accumulator.
    #[derive(Debug, Default)]
    pub struct Cell64(Cell<f64>);

    impl Cell64 {
        /// Add to the accumulator.
        pub fn add(&self, v: f64) {
            self.0.set(self.0.get() + v);
        }
        /// Read the accumulator.
        pub fn get(&self) -> f64 {
            self.0.get()
        }
        /// Zero the accumulator.
        pub fn reset(&self) {
            self.0.set(0.0);
        }
    }
}

/// Roofline constants for a modeled serial CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Model name for reports.
    pub name: &'static str,
    /// Sustained single-core FLOP/s for streaming f32 kernels.
    pub flops_per_sec: f64,
    /// Sustained memory bandwidth from one core, bytes/s.
    pub mem_bandwidth: f64,
    /// Fixed overhead per BLAS call, ns (call + loop setup).
    pub call_overhead_ns: f64,
    /// Multiplier on FLOP cost for double precision (SSE2 does half the
    /// lanes of single precision).
    pub fp64_flop_factor: f64,
}

impl CpuModel {
    /// Paper-era (early-2009) desktop single core with tuned serial BLAS —
    /// a Core i7-920-class machine: ~5 GFLOP/s sustained f32 SIMD, ~10 GB/s
    /// streaming from one core. Calibration notes in `EXPERIMENTS.md`.
    pub fn core2_era() -> Self {
        CpuModel {
            name: "2009 desktop single core (ATLAS-like)",
            flops_per_sec: 5.0e9,
            mem_bandwidth: 10.0e9,
            call_overhead_ns: 60.0,
            fp64_flop_factor: 2.0,
        }
    }

    /// Modeled time for an operation moving `bytes` through memory and
    /// retiring `flops` floating-point operations.
    pub fn op_time(&self, flops: u64, bytes: u64, fp64: bool) -> SimTime {
        let f = if fp64 { self.fp64_flop_factor } else { 1.0 };
        let compute = flops as f64 * f / self.flops_per_sec;
        let memory = bytes as f64 / self.mem_bandwidth;
        SimTime::from_ns(self.call_overhead_ns) + SimTime::from_secs(compute.max(memory))
    }
}

/// Accumulates modeled CPU time, split by caller-chosen phase labels.
#[derive(Debug, Default)]
pub struct CpuClock {
    total_ns: Cell64,
}

impl CpuClock {
    /// New zeroed clock.
    pub fn new() -> Self {
        CpuClock::default()
    }

    /// Charge a modeled duration.
    pub fn charge(&self, t: SimTime) {
        self.total_ns.add(t.as_nanos());
    }

    /// Total modeled time so far.
    pub fn elapsed(&self) -> SimTime {
        SimTime::from_ns(self.total_ns.get())
    }

    /// Zero the clock.
    pub fn reset(&self) {
        self.total_ns.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_bound_gemv() {
        // f32 gemv 1000×1000: 2e6 flops, 4e6 bytes — the memory term
        // dominates (0.4 ms at 10 GB/s vs 0.4 ms... flops: 2e6/5e9 = 0.4 ms
        // too; use a clearly bandwidth-bound op instead: 0 flops).
        let m = CpuModel::core2_era();
        let t = m.op_time(0, 4_000_000, false);
        let mem = 4e6 / 10.0e9;
        assert!((t.as_secs_f64() - mem).abs() / mem < 1e-3);
    }

    #[test]
    fn fp64_doubles_compute_cost() {
        let m = CpuModel::core2_era();
        // Pure-compute op (no memory traffic).
        let t32 = m.op_time(1 << 30, 0, false);
        let t64 = m.op_time(1 << 30, 0, true);
        let overhead = 60.0;
        let r = (t64.as_nanos() - overhead) / (t32.as_nanos() - overhead);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clock_accumulates_and_resets() {
        let c = CpuClock::new();
        c.charge(SimTime::from_us(2.0));
        c.charge(SimTime::from_us(3.0));
        assert!((c.elapsed().as_micros() - 5.0).abs() < 1e-12);
        c.reset();
        assert_eq!(c.elapsed().as_nanos(), 0.0);
    }

    #[test]
    fn tiny_ops_pay_call_overhead() {
        let m = CpuModel::core2_era();
        let t = m.op_time(2, 8, false);
        assert!(t.as_nanos() >= 60.0);
    }
}
