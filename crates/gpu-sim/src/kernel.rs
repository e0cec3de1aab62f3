//! The kernel abstraction: per-thread functions plus analytic cost
//! descriptors.
//!
//! A [`Kernel`]'s [`Kernel::run`] is executed once per thread of its
//! *functional* launch grid, as a CUDA `__global__` function is, except that
//! *time* is not measured — it is charged from the [`KernelCost`] the kernel
//! reports for the launch. The cost descriptor lists total FLOPs and the
//! global-memory [`AccessPattern`]s; the engine feeds those through the
//! coalescing and timing models. Keeping cost declarative (instead of
//! instrumenting every access) is what makes simulating thousands of simplex
//! iterations on 2048×2048 matrices tractable; unit tests in the `linalg`
//! crate validate each kernel's descriptor against hand-counted traffic.
//!
//! The functional grid need not be the modeled one. A kernel either runs
//! one host call per modeled thread (a thread-per-element grid such as
//! [`LaunchConfig::for_elems`]), or it is a *sweep*: it launches on the
//! one-thread [`LaunchConfig::sweep`] grid, builds every output element in
//! one host loop with exactly its modeled thread's expression and order,
//! and declares the modeled threads with [`KernelCost::active_threads_raw`].
//! Both forms compute the same bits and are charged the same time; the sweep
//! only skips the per-thread host call.

use crate::coalesce::AccessPattern;
use crate::dim::{Dim3, LaunchConfig};

/// Per-thread execution context (CUDA's builtin index variables).
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    /// Index of this thread within its block.
    pub thread_idx: Dim3,
    /// Index of this thread's block within the grid.
    pub block_idx: Dim3,
    /// Block extent.
    pub block_dim: Dim3,
    /// Grid extent.
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    /// Flattened 1-D global thread index:
    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    #[inline]
    pub fn global_id(&self) -> usize {
        self.block_idx.x as usize * self.block_dim.x as usize + self.thread_idx.x as usize
    }

    /// Global x index (same as [`ThreadCtx::global_id`] for 1-D launches).
    #[inline]
    pub fn gx(&self) -> usize {
        self.global_id()
    }

    /// Global y index: `blockIdx.y * blockDim.y + threadIdx.y`.
    #[inline]
    pub fn gy(&self) -> usize {
        self.block_idx.y as usize * self.block_dim.y as usize + self.thread_idx.y as usize
    }

    /// Lane index within the warp.
    #[inline]
    pub fn lane(&self, warp_size: u32) -> u32 {
        (self.thread_idx.x
            + self.thread_idx.y * self.block_dim.x
            + self.thread_idx.z * self.block_dim.x * self.block_dim.y)
            % warp_size
    }
}

/// Analytic cost of one kernel launch.
///
/// Built with a fluent API; see the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct KernelCost {
    /// Total floating-point operations across all threads.
    pub flops: u64,
    /// Global-memory read traffic.
    pub reads: Vec<AccessPattern>,
    /// Global-memory write traffic.
    pub writes: Vec<AccessPattern>,
    /// Threads that perform useful work (≤ launched threads). Drives the
    /// occupancy/latency-hiding term. Zero means "use the launch total".
    pub active_threads: u64,
    /// Compute-time multiplier for warp divergence (1.0 = divergence-free).
    pub divergence: f64,
    /// Extra integer/control operations per active thread (loop overhead,
    /// index arithmetic); charged at one op/cycle like FLOPs.
    pub int_ops: u64,
    /// Count of shared-memory (on-chip) accesses; charged at register speed
    /// with a small per-access cost, used by the reduction algorithms.
    pub smem_accesses: u64,
    /// True when `flops` are double-precision (GT200 runs fp64 at 1/8 rate).
    pub fp64: bool,
}

impl KernelCost {
    /// Empty cost (zero everything, divergence 1.0).
    pub fn new() -> Self {
        KernelCost {
            divergence: 1.0,
            ..Default::default()
        }
    }

    /// Set total FLOPs for the launch.
    pub fn flops_total(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Add a global-memory read pattern.
    pub fn read(mut self, p: AccessPattern) -> Self {
        self.reads.push(p);
        self
    }

    /// Add a global-memory write pattern.
    pub fn write(mut self, p: AccessPattern) -> Self {
        self.writes.push(p);
        self
    }

    /// Declare how many launched threads do useful work (the tail block's
    /// excess threads exit immediately and are not charged for memory, but
    /// do occupy scheduler slots).
    pub fn active_threads(mut self, cfg: &LaunchConfig, useful: u64) -> Self {
        self.active_threads = useful.min(cfg.total_threads());
        self
    }

    /// Set the warp-divergence multiplier (≥ 1.0).
    pub fn divergence(mut self, factor: f64) -> Self {
        debug_assert!(factor >= 1.0, "divergence factor must be >= 1");
        self.divergence = factor;
        self
    }

    /// Add integer/control ops for the launch.
    pub fn int_ops_total(mut self, ops: u64) -> Self {
        self.int_ops = ops;
        self
    }

    /// Add shared-memory accesses for the launch.
    pub fn smem(mut self, accesses: u64) -> Self {
        self.smem_accesses = accesses;
        self
    }

    /// Mark the FLOPs as double precision.
    pub fn fp64(mut self, is_fp64: bool) -> Self {
        self.fp64 = is_fp64;
        self
    }

    /// Declare the *modeled* device-thread count directly.
    ///
    /// The engine allows a kernel's functional execution to run on a coarser
    /// grid than the device kernel it models — usually the one-thread
    /// [`LaunchConfig::sweep`] grid, whose host thread walks the whole
    /// product in a tight slice loop while modeling a thread-per-element
    /// CUDA kernel. The cost descriptor must then state the modeled thread
    /// count here, since `cfg.total_threads()` reflects only the functional
    /// grid. For `n ≥ 1` useful threads this equals
    /// `active_threads(&LaunchConfig::for_elems(n, b), n)`, so a kernel moved
    /// onto the sweep grid keeps its modeled time.
    pub fn active_threads_raw(mut self, modeled_threads: u64) -> Self {
        self.active_threads = modeled_threads;
        self
    }

    /// Total `(transactions, bytes)` across all read+write patterns.
    pub fn traffic(&self, warp_size: u32, seg_bytes: u64) -> (u64, u64) {
        let mut tx = 0;
        let mut bytes = 0;
        for p in self.reads.iter().chain(self.writes.iter()) {
            let (t, b) = p.traffic(warp_size, seg_bytes);
            tx += t;
            bytes += b;
        }
        (tx, bytes)
    }

    /// Total warp-level memory instructions (for the latency-bound term).
    pub fn mem_instructions(&self, warp_size: u32) -> u64 {
        self.reads
            .iter()
            .chain(self.writes.iter())
            .map(|p| p.warp_instructions(warp_size))
            .sum()
    }
}

/// A device kernel: a pure per-thread function plus its cost descriptor.
///
/// Implementations must be `Sync`: the engine may execute blocks on multiple
/// host threads (blocks are independent, per the CUDA contract).
pub trait Kernel: Sync {
    /// Kernel name for reports and per-kernel accounting.
    fn name(&self) -> &'static str;

    /// The per-thread body. Threads whose indices fall outside the problem
    /// domain must return without side effects (the usual `if i < n` guard).
    fn run(&self, t: &ThreadCtx);

    /// Analytic cost of launching this kernel with `cfg`.
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_ctx_indexing() {
        let t = ThreadCtx {
            thread_idx: Dim3::x(5),
            block_idx: Dim3::x(3),
            block_dim: Dim3::x(128),
            grid_dim: Dim3::x(10),
        };
        assert_eq!(t.global_id(), 3 * 128 + 5);
        assert_eq!(t.lane(32), 5);
    }

    #[test]
    fn ctx_2d_indexing() {
        let t = ThreadCtx {
            thread_idx: Dim3::xy(1, 2),
            block_idx: Dim3::xy(3, 4),
            block_dim: Dim3::xy(8, 8),
            grid_dim: Dim3::xy(16, 16),
        };
        assert_eq!(t.gx(), 3 * 8 + 1);
        assert_eq!(t.gy(), 4 * 8 + 2);
        assert_eq!(t.lane(32), (1 + 2 * 8));
    }

    #[test]
    fn cost_builder_accumulates_traffic() {
        let cfg = LaunchConfig::for_elems(64, 32);
        let c = KernelCost::new()
            .flops_total(128)
            .read(AccessPattern::coalesced::<f32>(64))
            .write(AccessPattern::coalesced::<f32>(64))
            .active_threads(&cfg, 64);
        let (tx, bytes) = c.traffic(32, 128);
        assert_eq!(tx, 4); // 2 warps × (1 read + 1 write)
        assert_eq!(bytes, 4 * 128);
        assert_eq!(c.mem_instructions(32), 4);
        assert_eq!(c.active_threads, 64);
    }

    #[test]
    fn active_threads_clamped_to_launch() {
        let cfg = LaunchConfig::for_elems(10, 32);
        let c = KernelCost::new().active_threads(&cfg, 1000);
        assert_eq!(c.active_threads, 32);
    }
}
