//! The cost model: turning kernel cost descriptors and transfer sizes into
//! simulated time.
//!
//! Per launch, the model takes the maximum of three classic roofline-style
//! bounds, then adds the fixed launch overhead:
//!
//! ```text
//! T_launch   = overhead
//! T_compute  = (flops · divergence / fp64_scale + int_ops) / (peak_ops · eff_c)
//! T_bandwidth= bytes_moved / (peak_bw · eff_b)
//! T_latency  = (mem_instructions / SMs) · L / clock / resident_warps
//! T          = T_launch + max(T_compute, T_bandwidth, T_latency)
//! ```
//!
//! `T_latency` models the fact that a memory instruction stalls its warp for
//! `L` cycles and an SM can only hide that stall behind other *resident*
//! warps: launches with few warps (small vectors, small matrices) cannot
//! stream at anything near peak bandwidth. This term — together with the
//! launch overhead — is what makes the GPU *lose* on small LPs in the
//! reproduction, matching the paper's crossover behaviour.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Sub};

use crate::device::DeviceSpec;
use crate::dim::LaunchConfig;
use crate::kernel::KernelCost;

/// Simulated elapsed time. Internally nanoseconds in `f64`, which keeps
/// sub-nanosecond precision for tiny kernels while spanning hours.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime {
    ns: f64,
}

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime { ns: 0.0 };

    /// Construct from nanoseconds.
    pub fn from_ns(ns: f64) -> Self {
        debug_assert!(ns.is_finite() && ns >= 0.0, "invalid SimTime: {ns}");
        SimTime { ns }
    }

    /// Construct from microseconds.
    pub fn from_us(us: f64) -> Self {
        SimTime::from_ns(us * 1e3)
    }

    /// Construct from seconds.
    pub fn from_secs(s: f64) -> Self {
        SimTime::from_ns(s * 1e9)
    }

    /// Nanoseconds as `f64`.
    pub fn as_nanos(&self) -> f64 {
        self.ns
    }

    /// Microseconds as `f64`.
    pub fn as_micros(&self) -> f64 {
        self.ns / 1e3
    }

    /// Milliseconds as `f64`.
    pub fn as_millis(&self) -> f64 {
        self.ns / 1e6
    }

    /// Seconds as `f64`.
    pub fn as_secs_f64(&self) -> f64 {
        self.ns / 1e9
    }

    /// Pointwise maximum.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime {
            ns: self.ns.max(other.ns),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            ns: self.ns + rhs.ns,
        }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.ns += rhs.ns;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime {
            ns: (self.ns - rhs.ns).max(0.0),
        }
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    fn div(self, rhs: SimTime) -> f64 {
        self.ns / rhs.ns
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ns < 1e3 {
            write!(f, "{:.1} ns", self.ns)
        } else if self.ns < 1e6 {
            write!(f, "{:.2} µs", self.ns / 1e3)
        } else if self.ns < 1e9 {
            write!(f, "{:.3} ms", self.ns / 1e6)
        } else {
            write!(f, "{:.4} s", self.ns / 1e9)
        }
    }
}

/// Detailed timing of one kernel launch, for per-step breakdowns (F2/F3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchTiming {
    /// Fixed dispatch overhead.
    pub overhead: SimTime,
    /// Roofline compute bound.
    pub compute: SimTime,
    /// Roofline bandwidth bound.
    pub bandwidth: SimTime,
    /// Occupancy-limited latency bound.
    pub latency: SimTime,
    /// Memory transactions the launch issues (segment granularity).
    pub transactions: u64,
    /// Bytes the bandwidth bound was charged for.
    pub bytes: u64,
}

impl LaunchTiming {
    /// Total simulated time for the launch.
    pub fn total(&self) -> SimTime {
        self.overhead + self.compute.max(self.bandwidth).max(self.latency)
    }

    /// Which bound dominated, for diagnostics.
    pub fn dominant(&self) -> &'static str {
        let body = self.compute.max(self.bandwidth).max(self.latency);
        if self.overhead.as_nanos() > body.as_nanos() {
            "launch-overhead"
        } else if body == self.compute {
            "compute"
        } else if body == self.bandwidth {
            "bandwidth"
        } else {
            "latency"
        }
    }
}

/// Compute the simulated timing of launching `cost` under `cfg` on `spec`,
/// with the launch's memory traffic (walked once, here, for both the
/// bandwidth bound and the device counters).
pub fn kernel_timing(spec: &DeviceSpec, cfg: &LaunchConfig, cost: &KernelCost) -> LaunchTiming {
    let overhead = SimTime::from_ns(spec.launch_overhead_ns);

    // --- compute bound -----------------------------------------------------
    let fp64_scale = if cost.fp64 {
        spec.fp64_throughput_ratio
    } else {
        1.0
    };
    let eff_ops = spec.peak_flops() * spec.compute_efficiency;
    let fp_time = cost.flops as f64 * cost.divergence / (eff_ops * fp64_scale);
    // Integer/control ops retire one per core-cycle.
    let int_rate = spec.total_cores() as f64 * spec.clock_hz() * spec.compute_efficiency;
    let int_time = cost.int_ops as f64 * cost.divergence / int_rate;
    // Shared-memory ops: ~1 per core-cycle as well (bank-conflict free).
    let smem_time = cost.smem_accesses as f64 / int_rate;
    let compute = SimTime::from_secs(fp_time + int_time + smem_time);

    // --- bandwidth bound ---------------------------------------------------
    let (transactions, bytes) = cost.traffic(spec.warp_size, spec.segment_bytes);
    let bandwidth =
        SimTime::from_secs(bytes as f64 / (spec.mem_bandwidth * spec.bandwidth_efficiency));

    // --- latency bound -----------------------------------------------------
    let total_warps = match cost.active_threads {
        0 => cfg.total_warps(spec.warp_size),
        n => n.div_ceil(spec.warp_size as u64),
    }
    .max(1);
    let resident = total_warps
        .div_ceil(spec.sm_count as u64)
        .min(spec.max_warps_per_sm as u64)
        .max(1);
    let mem_instr = cost.mem_instructions(spec.warp_size);
    let instr_per_sm = mem_instr as f64 / spec.sm_count as f64;
    let latency = SimTime::from_secs(
        instr_per_sm * spec.mem_latency_cycles / spec.clock_hz() / resident as f64,
    );

    LaunchTiming {
        overhead,
        compute,
        bandwidth,
        latency,
        transactions,
        bytes,
    }
}

/// Simulated time of a host↔device transfer of `bytes`.
pub fn transfer_time(spec: &DeviceSpec, bytes: u64) -> SimTime {
    SimTime::from_ns(spec.pcie_latency_ns) + SimTime::from_secs(bytes as f64 / spec.pcie_bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::AccessPattern;

    fn spec() -> DeviceSpec {
        DeviceSpec::gtx280()
    }

    #[test]
    fn simtime_arithmetic_and_display() {
        let a = SimTime::from_us(1.5);
        let b = SimTime::from_ns(500.0);
        assert!((a + b).as_micros() - 2.0 < 1e-12);
        assert_eq!((b - a).as_nanos(), 0.0); // saturating
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.0000 s");
        assert_eq!(format!("{}", SimTime::from_ns(12.0)), "12.0 ns");
        let total: SimTime = [a, b, b].into_iter().sum();
        assert!((total.as_nanos() - 2500.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_kernel_is_overhead_dominated() {
        let cfg = LaunchConfig::for_elems(64, 64);
        let cost = KernelCost::new()
            .flops_total(64)
            .read(AccessPattern::coalesced::<f32>(64))
            .write(AccessPattern::coalesced::<f32>(64))
            .active_threads(&cfg, 64);
        let t = kernel_timing(&spec(), &cfg, &cost);
        assert_eq!(t.dominant(), "launch-overhead");
        assert!(t.total().as_micros() >= 7.0);
    }

    #[test]
    fn low_occupancy_gemv_is_latency_bound() {
        // gemv 2048×2048, one thread per row: only 64 warps on 30 SMs.
        let n = 2048u64;
        let cfg = LaunchConfig::for_elems(n as usize, 128);
        let cost = KernelCost::new()
            .flops_total(2 * n * n)
            .read(AccessPattern::coalesced::<f32>(n * n))
            .read(AccessPattern::broadcast::<f32>(n * n))
            .write(AccessPattern::coalesced::<f32>(n))
            .active_threads(&cfg, n);
        let t = kernel_timing(&spec(), &cfg, &cost);
        assert_eq!(t.dominant(), "latency");
        // Should be hundreds of microseconds, not milliseconds.
        assert!(t.total().as_micros() > 100.0 && t.total().as_millis() < 5.0);
    }

    #[test]
    fn high_occupancy_elementwise_is_bandwidth_bound() {
        // 2048² threads streaming 3 arrays: classic bandwidth-bound kernel.
        let n = 2048u64 * 2048;
        let cfg = LaunchConfig::for_elems(n as usize, 256);
        let cost = KernelCost::new()
            .flops_total(2 * n)
            .read(AccessPattern::coalesced::<f32>(n))
            .read(AccessPattern::coalesced::<f32>(n))
            .write(AccessPattern::coalesced::<f32>(n))
            .active_threads(&cfg, n);
        let t = kernel_timing(&spec(), &cfg, &cost);
        assert_eq!(t.dominant(), "bandwidth");
        let ideal = 3.0 * n as f64 * 4.0 / (141.7e9 * 0.72);
        assert!((t.bandwidth.as_secs_f64() - ideal).abs() / ideal < 1e-9);
    }

    #[test]
    fn fp64_flops_are_eight_times_slower_on_gt200() {
        let cfg = LaunchConfig::for_elems(1 << 20, 256);
        let c32 = KernelCost::new()
            .flops_total(1 << 30)
            .active_threads(&cfg, 1 << 20);
        let mut c64 = c32.clone();
        c64.fp64 = true;
        let t32 = kernel_timing(&spec(), &cfg, &c32).compute;
        let t64 = kernel_timing(&spec(), &cfg, &c64).compute;
        assert!((t64.as_nanos() / t32.as_nanos() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn divergence_scales_compute() {
        let cfg = LaunchConfig::for_elems(1 << 20, 256);
        let base = KernelCost::new()
            .flops_total(1 << 30)
            .active_threads(&cfg, 1 << 20);
        let div = base.clone().divergence(2.0);
        let t1 = kernel_timing(&spec(), &cfg, &base).compute;
        let t2 = kernel_timing(&spec(), &cfg, &div).compute;
        assert!((t2.as_nanos() / t1.as_nanos() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let t = transfer_time(&spec(), 8);
        assert!(t.as_micros() >= 12.0);
        let big = transfer_time(&spec(), 1 << 30);
        // 1 GiB at 5.2 GB/s ≈ 0.206 s.
        assert!((big.as_secs_f64() - (1u64 << 30) as f64 / 5.2e9).abs() < 1e-3);
    }

    #[test]
    fn strided_access_is_slower_than_coalesced() {
        let n = 1024u64 * 1024;
        let cfg = LaunchConfig::for_elems(n as usize, 256);
        let good = KernelCost::new()
            .read(AccessPattern::coalesced::<f32>(n))
            .active_threads(&cfg, n);
        let bad = KernelCost::new()
            .read(AccessPattern::strided::<f32>(n, 4096))
            .active_threads(&cfg, n);
        let tg = kernel_timing(&spec(), &cfg, &good).total();
        let tb = kernel_timing(&spec(), &cfg, &bad).total();
        assert!(
            tb.as_nanos() > 4.0 * tg.as_nanos(),
            "strided {tb} should be much slower than coalesced {tg}"
        );
    }
}
