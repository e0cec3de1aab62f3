//! # gpu-sim — a SIMT GPU simulator for reproducing GPU-era systems papers
//!
//! This crate substitutes for the CUDA runtime + a GT200-class GPU
//! (GeForce GTX 280) in the reproduction of *"Linear optimization on modern
//! GPUs"* (IPDPS 2009). No real GPU is available in the reproduction
//! environment, so the device is simulated: kernels are written as pure
//! per-thread Rust functions (the CUDA independent-blocks contract), executed
//! functionally on the host, while **time** is charged by a deterministic
//! analytic cost model built from the same mechanics the paper's performance
//! story depends on:
//!
//! * **kernel-launch overhead** (a fixed per-launch cost — why small LPs lose),
//! * **PCIe host↔device transfers** (latency + bandwidth),
//! * **global-memory coalescing** (128-byte segment transactions computed
//!   from per-warp access patterns — why matrix layout matters),
//! * **compute throughput** (SM count × cores × clock),
//! * **latency hiding by occupancy** (low-occupancy launches stall on memory
//!   latency instead of streaming at full bandwidth).
//!
//! ## Design: functional execution, analytic costing
//!
//! A per-access (instruction-level) simulation of a dense simplex solve at
//! m = n = 2048 would process >10¹⁰ memory events; instead each [`Kernel`]
//! provides a [`KernelCost`] descriptor (flops + a list of
//! [`AccessPattern`]s). The coalescing math that turns a pattern into memory
//! transactions is closed-form and is property-tested against brute-force
//! enumeration of warp addresses (see `coalesce`). Execution of the kernel
//! body is plain Rust and computes real answers on real data.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{Gpu, DeviceSpec, LaunchConfig, Kernel, ThreadCtx, KernelCost, AccessPattern};
//!
//! struct Saxpy { a: f32, x: gpu_sim::DView<f32>, y: gpu_sim::DViewMut<f32>, n: usize }
//! impl Kernel for Saxpy {
//!     fn name(&self) -> &'static str { "saxpy" }
//!     fn run(&self, t: &ThreadCtx) {
//!         let i = t.global_id();
//!         if i < self.n { self.y.set(i, self.a * self.x.get(i) + self.y.get(i)); }
//!     }
//!     fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
//!         KernelCost::new()
//!             .flops_total(2 * self.n as u64)
//!             .read(AccessPattern::coalesced::<f32>(self.n as u64))
//!             .read(AccessPattern::coalesced::<f32>(self.n as u64))
//!             .write(AccessPattern::coalesced::<f32>(self.n as u64))
//!             .active_threads(cfg, self.n as u64)
//!     }
//! }
//!
//! let gpu = Gpu::new(DeviceSpec::gtx280());
//! let x = gpu.htod(&vec![1.0f32; 1024]);
//! let mut y = gpu.htod(&vec![2.0f32; 1024]);
//! gpu.launch(LaunchConfig::for_elems(1024, 256),
//!            &Saxpy { a: 3.0, x: x.view(), y: y.view_mut(), n: 1024 });
//! let out = gpu.dtoh(&y);
//! assert_eq!(out[0], 5.0);
//! assert!(gpu.elapsed().as_nanos() > 0.0);
//! ```

pub mod coalesce;
pub mod counters;
pub mod device;
pub mod dim;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod pool;
pub mod stream;
pub mod timing;

pub use coalesce::{AccessPattern, PatternKind};
pub use counters::{Counters, TimeBreakdown, TimeCategory};
pub use device::DeviceSpec;
pub use dim::{Dim3, LaunchConfig};
pub use exec::{FusedLaunch, Gpu, Launcher};
pub use fault::{DeviceError, FaultConfig, FaultCounts, FaultPlan};
pub use kernel::{Kernel, KernelCost, ThreadCtx};
pub use memory::{DView, DViewMut, DeviceBuffer, Pod};
pub use pool::BufferPool;
pub use stream::Stream;
pub use timing::SimTime;
