//! The device handle and launch engine.
//!
//! [`Gpu`] owns the clock, the counters, and the allocation tracker. Launches
//! are synchronous: `launch` executes every thread of the grid functionally
//! (optionally across host threads — CUDA blocks are independent by
//! contract) and charges simulated time from the kernel's cost descriptor.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::counters::{Counters, TimeCategory};
use crate::device::DeviceSpec;
use crate::dim::{Dim3, LaunchConfig};
use crate::fault::{DeviceError, FaultCounts, FaultPlan, Injection, OpKind};
use crate::kernel::{Kernel, ThreadCtx};
use crate::memory::{AllocTracker, DeviceBuffer, Pod};
use crate::timing::{kernel_timing, transfer_time, LaunchTiming, SimTime};

/// How the launch engine executes blocks on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Execute all blocks on the calling thread (deterministic, default).
    Sequential,
    /// Execute blocks across `n` host threads via `crossbeam::scope`.
    /// Requires the kernel to be free of cross-block races, exactly as the
    /// real device does.
    Parallel(usize),
}

/// A simulated GPU: device spec + clock + counters + memory accounting.
///
/// All mutation is internal (behind a mutex), so `&Gpu` can be shared freely;
/// library layers stack on top without threading `&mut` everywhere — the same
/// ergonomics as a CUDA context.
pub struct Gpu {
    spec: DeviceSpec,
    mode: ExecMode,
    counters: Mutex<Counters>,
    tracker: Arc<AllocTracker>,
    /// Armed fault plan, if any. `None` (the default) means every `try_*`
    /// operation succeeds unless the device genuinely runs out of memory.
    faults: Mutex<Option<FaultPlan>>,
    /// Set when an injected corruption fired on a launch; the library layer
    /// polls it via [`Gpu::take_corruption`] and poisons the output.
    corrupted: AtomicBool,
}

impl Gpu {
    /// Create a device with the default sequential engine.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu::with_mode(spec, ExecMode::Sequential)
    }

    /// Create a device with an explicit execution mode.
    pub fn with_mode(spec: DeviceSpec, mode: ExecMode) -> Self {
        Gpu {
            spec,
            mode,
            counters: Mutex::new(Counters::default()),
            tracker: Arc::new(AllocTracker::default()),
            faults: Mutex::new(None),
            corrupted: AtomicBool::new(false),
        }
    }

    /// Create a context that shares an existing device's allocation
    /// tracker (capacity is a device-wide resource) but keeps its own
    /// clock and counters. Used by [`crate::stream::Stream`].
    pub(crate) fn with_shared_tracker(
        spec: DeviceSpec,
        mode: ExecMode,
        tracker: Arc<AllocTracker>,
    ) -> Self {
        Gpu {
            spec,
            mode,
            counters: Mutex::new(Counters::default()),
            tracker,
            faults: Mutex::new(None),
            corrupted: AtomicBool::new(false),
        }
    }

    /// Arm a fault plan on this device/stream. Every later `try_*` operation
    /// rolls against it; the infallible API panics where `try_*` would
    /// return `Err`.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.faults.lock() = Some(plan);
    }

    /// Disarm and return the current fault plan (with its counters), if any.
    pub fn clear_fault_plan(&self) -> Option<FaultPlan> {
        self.faults.lock().take()
    }

    /// Injected-fault counts of the armed plan (zeros when unarmed).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults
            .lock()
            .as_ref()
            .map(|p| p.counts())
            .unwrap_or_default()
    }

    /// Poll-and-clear the silent-corruption flag. The device BLAS layer
    /// calls this after launches and poisons the kernel's output with NaN
    /// when it returns `true` — modeling a kernel that "succeeded" but
    /// wrote garbage.
    pub fn take_corruption(&self) -> bool {
        self.corrupted.swap(false, Ordering::Relaxed)
    }

    /// Roll the armed fault plan (if any) for one operation.
    fn fault_check(&self, op: OpKind, kernel: &'static str) -> Result<(), DeviceError> {
        let mut guard = self.faults.lock();
        let Some(plan) = guard.as_mut() else {
            return Ok(());
        };
        match plan.before_op(op, kernel)? {
            Injection::Corrupt => {
                self.corrupted.store(true, Ordering::Relaxed);
                Ok(())
            }
            Injection::None => Ok(()),
        }
    }

    /// Handle to the device-wide allocation tracker.
    pub(crate) fn tracker_handle(&self) -> Arc<AllocTracker> {
        Arc::clone(&self.tracker)
    }

    /// The execution mode of this device.
    pub(crate) fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Fold a retired stream's counters into this device's aggregate.
    pub(crate) fn retire_stream(&self, stream_counters: &Counters) {
        let mut c = self.counters.lock();
        c.merge(stream_counters);
        c.streams_retired += 1;
        // "Current allocated" is a device-wide quantity owned by the
        // shared tracker, not a per-stream delta — refresh it.
        c.allocated_bytes = self.tracker.current();
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Total simulated time elapsed on this device.
    pub fn elapsed(&self) -> SimTime {
        self.counters.lock().elapsed
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> Counters {
        self.counters.lock().clone()
    }

    /// Reset the clock and counters (allocation accounting is preserved).
    pub fn reset_counters(&self) {
        let mut c = self.counters.lock();
        let alloc = c.allocated_bytes;
        let peak = c.peak_allocated_bytes;
        *c = Counters::default();
        c.allocated_bytes = alloc;
        c.peak_allocated_bytes = peak;
    }

    /// Advance the simulated clock by an externally computed amount, charged
    /// to `cat`. Used by library layers for costs the engine cannot see
    /// (e.g. host-side pivot bookkeeping charged as transfer-latency).
    pub fn charge(&self, cat: TimeCategory, t: SimTime) {
        let mut c = self.counters.lock();
        c.elapsed += t;
        c.breakdown.add(cat, t);
    }

    /// Record one lockstep mega-batch round: `active` lane slots advanced a
    /// member by one simplex iteration, `idle` slots were masked out
    /// (converged members riding along). Pure accounting; charges no time.
    pub fn record_batch_round(&self, active: u64, idle: u64) {
        let mut c = self.counters.lock();
        c.batch_rounds += 1;
        c.batch_lanes_active += active;
        c.batch_lanes_idle += idle;
    }

    /// Record one [`crate::BufferPool`] request: `recycled` says whether it
    /// was served from the free list (no `cudaMalloc`) or by a fresh device
    /// allocation. Pure accounting; the allocation itself is charged by the
    /// regular `try_alloc` path.
    pub fn record_pool_request(&self, recycled: bool) {
        let mut c = self.counters.lock();
        if recycled {
            c.pool_recycles += 1;
        } else {
            c.pool_allocs += 1;
        }
    }

    /// Record an allocation of `bytes`, enforcing device capacity. Called
    /// *before* host-side materialization so a simulated OOM is cheap.
    fn try_record_alloc(&self, bytes: u64) -> Result<(), DeviceError> {
        let oom = |requested| DeviceError::Oom {
            requested,
            allocated: self.tracker.current(),
            capacity: self.spec.memory_capacity,
        };
        // Injected OOM carries the same real numbers as a genuine one.
        self.fault_check(OpKind::Alloc, "").map_err(|e| match e {
            DeviceError::Oom { .. } => oom(bytes),
            other => other,
        })?;
        if self.tracker.current() + bytes > self.spec.memory_capacity {
            return Err(oom(bytes));
        }
        let current = self.tracker.add(bytes);
        let mut c = self.counters.lock();
        c.allocated_bytes = current;
        c.peak_allocated_bytes = c.peak_allocated_bytes.max(current);
        Ok(())
    }

    /// Fallible [`Gpu::alloc`].
    pub fn try_alloc<T: Pod>(&self, len: usize, fill: T) -> Result<DeviceBuffer<T>, DeviceError> {
        self.try_record_alloc(len as u64 * T::BYTES)?;
        let mut buf = DeviceBuffer::new(len, fill);
        buf.set_tracker(Arc::clone(&self.tracker));
        Ok(buf)
    }

    /// Allocate `len` elements filled with `fill`. Charges no transfer time
    /// (as `cudaMalloc` does not move data). Panics on (injected or real)
    /// device OOM; fault-aware callers use [`Gpu::try_alloc`].
    pub fn alloc<T: Pod>(&self, len: usize, fill: T) -> DeviceBuffer<T> {
        self.try_alloc(len, fill)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }

    /// Fallible [`Gpu::htod`].
    pub fn try_htod<T: Pod>(&self, src: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = src.len() as u64 * T::BYTES;
        self.try_record_alloc(bytes)?;
        if let Err(e) = self.try_transfer(TimeCategory::TransferH2D, bytes) {
            // Release the reservation: the buffer was never materialized.
            self.tracker.sub(bytes);
            self.counters.lock().allocated_bytes = self.tracker.current();
            return Err(e);
        }
        let mut buf = DeviceBuffer::from_slice(src);
        buf.set_tracker(Arc::clone(&self.tracker));
        Ok(buf)
    }

    /// Allocate and upload from a host slice, charging PCIe time.
    pub fn htod<T: Pod>(&self, src: &[T]) -> DeviceBuffer<T> {
        self.try_htod(src)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }

    /// Fallible [`Gpu::htod_into`].
    pub fn try_htod_into<T: Pod>(
        &self,
        src: &[T],
        dst: &mut DeviceBuffer<T>,
    ) -> Result<(), DeviceError> {
        self.try_transfer(TimeCategory::TransferH2D, src.len() as u64 * T::BYTES)?;
        dst.write_from(src);
        Ok(())
    }

    /// Overwrite an existing buffer from the host, charging PCIe time.
    pub fn htod_into<T: Pod>(&self, src: &[T], dst: &mut DeviceBuffer<T>) {
        self.try_htod_into(src, dst)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name));
    }

    /// Fallible [`Gpu::htod_elem`].
    pub fn try_htod_elem<T: Pod>(
        &self,
        dst: &mut DeviceBuffer<T>,
        idx: usize,
        val: T,
    ) -> Result<(), DeviceError> {
        self.try_transfer(TimeCategory::TransferH2D, T::BYTES)?;
        dst.view_mut().set(idx, val);
        Ok(())
    }

    /// Overwrite a single element from the host — the `cudaMemcpy` of one
    /// scalar that 2009 solvers issued for basis bookkeeping. It pays the
    /// full per-transfer latency for a few bytes, which is why the revised
    /// simplex backends pass such scalars as kernel arguments instead; the
    /// full-tableau baseline still pays it once per pivot.
    pub fn htod_elem<T: Pod>(&self, dst: &mut DeviceBuffer<T>, idx: usize, val: T) {
        self.try_htod_elem(dst, idx, val)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name));
    }

    /// Fallible [`Gpu::dtoh`].
    pub fn try_dtoh<T: Pod>(&self, src: &DeviceBuffer<T>) -> Result<Vec<T>, DeviceError> {
        self.try_transfer(TimeCategory::TransferD2H, src.bytes())?;
        Ok(src.to_host_vec())
    }

    /// Download a buffer to the host, charging PCIe time.
    pub fn dtoh<T: Pod>(&self, src: &DeviceBuffer<T>) -> Vec<T> {
        self.try_dtoh(src)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }

    /// Fallible [`Gpu::dtoh_range`].
    pub fn try_dtoh_range<T: Pod>(
        &self,
        src: &DeviceBuffer<T>,
        offset: usize,
        count: usize,
    ) -> Result<Vec<T>, DeviceError> {
        assert!(offset + count <= src.len(), "dtoh_range out of bounds");
        self.try_transfer(TimeCategory::TransferD2H, count as u64 * T::BYTES)?;
        let v = src.view();
        Ok((offset..offset + count).map(|i| v.get(i)).collect())
    }

    /// Download `count` elements starting at `offset`, charging PCIe time
    /// for just those bytes (plus the fixed transfer latency).
    pub fn dtoh_range<T: Pod>(&self, src: &DeviceBuffer<T>, offset: usize, count: usize) -> Vec<T> {
        self.try_dtoh_range(src, offset, count)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }

    /// Fault-roll then charge one transfer. A timed-out transfer charges
    /// nothing (the failure is detected before data moves in the model).
    fn try_transfer(&self, cat: TimeCategory, bytes: u64) -> Result<(), DeviceError> {
        self.fault_check(OpKind::Transfer, "")
            .map_err(|e| match e {
                DeviceError::TransferTimeout { .. } => DeviceError::TransferTimeout { bytes },
                other => other,
            })?;
        self.charge_transfer(cat, bytes);
        Ok(())
    }

    fn charge_transfer(&self, cat: TimeCategory, bytes: u64) {
        let t = transfer_time(&self.spec, bytes);
        let mut c = self.counters.lock();
        c.elapsed += t;
        c.breakdown.add(cat, t);
        match cat {
            TimeCategory::TransferH2D => {
                c.h2d_count += 1;
                c.h2d_bytes += bytes;
            }
            TimeCategory::TransferD2H => {
                c.d2h_count += 1;
                c.d2h_bytes += bytes;
            }
            _ => unreachable!("transfer charged to non-transfer category"),
        }
    }

    /// Fallible [`Gpu::launch`]. An injected [`DeviceError::KernelFault`]
    /// aborts before any thread runs or any time is charged; an injected
    /// corruption lets the launch complete and raises the flag polled by
    /// [`Gpu::take_corruption`].
    pub fn try_launch<K: Kernel>(
        &self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<LaunchTiming, DeviceError> {
        self.fault_check(OpKind::Kernel, kernel.name())?;
        Ok(self.launch_unchecked(cfg, kernel))
    }

    /// Launch a kernel: execute every thread functionally and charge the
    /// simulated time from its cost descriptor. Returns the launch timing
    /// (already recorded) for callers that keep per-step breakdowns.
    /// Panics on injected kernel faults; fault-aware callers use
    /// [`Gpu::try_launch`].
    pub fn launch<K: Kernel>(&self, cfg: LaunchConfig, kernel: &K) -> LaunchTiming {
        self.try_launch(cfg, kernel)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }

    fn launch_unchecked<K: Kernel>(&self, cfg: LaunchConfig, kernel: &K) -> LaunchTiming {
        let cost = kernel.cost(&cfg);
        let timing = kernel_timing(&self.spec, &cfg, &cost);

        {
            let mut c = self.counters.lock();
            c.kernels_launched += 1;
            c.elapsed += timing.total();
            c.breakdown
                .add(TimeCategory::LaunchOverhead, timing.overhead);
            c.breakdown
                .add(TimeCategory::KernelBody, timing.total() - timing.overhead);
            c.transactions += timing.transactions;
            c.mem_bytes += timing.bytes;
            c.flops += cost.flops;
            let st = c.per_kernel.entry(kernel.name()).or_default();
            st.launches += 1;
            st.time += timing.total();
            st.transactions += timing.transactions;
            st.bytes += timing.bytes;
            st.flops += cost.flops;
        }

        match self.mode {
            ExecMode::Sequential => self.run_blocks(cfg, kernel, 0, cfg.total_blocks()),
            ExecMode::Parallel(workers) => self.run_blocks_parallel(cfg, kernel, workers.max(1)),
        }
        timing
    }

    fn run_blocks<K: Kernel>(&self, cfg: LaunchConfig, kernel: &K, first: u64, count: u64) {
        let g = cfg.grid;
        let b = cfg.block;
        for flat in first..first + count {
            let bz = (flat / (g.x as u64 * g.y as u64)) as u32;
            let rem = flat % (g.x as u64 * g.y as u64);
            let by = (rem / g.x as u64) as u32;
            let bx = (rem % g.x as u64) as u32;
            let block_idx = Dim3 {
                x: bx,
                y: by,
                z: bz,
            };
            for tz in 0..b.z {
                for ty in 0..b.y {
                    for tx in 0..b.x {
                        let ctx = ThreadCtx {
                            thread_idx: Dim3 {
                                x: tx,
                                y: ty,
                                z: tz,
                            },
                            block_idx,
                            block_dim: b,
                            grid_dim: g,
                        };
                        kernel.run(&ctx);
                    }
                }
            }
        }
    }

    fn run_blocks_parallel<K: Kernel>(&self, cfg: LaunchConfig, kernel: &K, workers: usize) {
        let total = cfg.total_blocks();
        let chunk = total.div_ceil(workers as u64).max(1);
        crossbeam::thread::scope(|s| {
            let mut start = 0;
            while start < total {
                let count = chunk.min(total - start);
                let first = start;
                s.spawn(move |_| self.run_blocks(cfg, kernel, first, count));
                start += count;
            }
        })
        .expect("kernel block worker panicked");
    }

    /// Fallible [`Gpu::begin_fused`]. The fault plan is rolled once for the
    /// whole group (as `OpKind::Kernel` under the group's name): a stream of
    /// fused kernels is one dispatch in the model, so it presents one fault
    /// surface. An error here charges nothing and runs nothing.
    pub fn try_begin_fused(&self, name: &'static str) -> Result<FusedLaunch<'_>, DeviceError> {
        self.fault_check(OpKind::Kernel, name)?;
        Ok(FusedLaunch {
            gpu: self,
            name,
            kernels: 0,
            timing: LaunchTiming {
                overhead: SimTime::from_ns(self.spec.launch_overhead_ns),
                ..LaunchTiming::default()
            },
            flops: 0,
        })
    }

    /// Open a fused launch group named `name`: every kernel submitted to the
    /// returned [`FusedLaunch`] executes immediately (same arithmetic, same
    /// order as separate launches) but the group is charged as a *single*
    /// launch when [`FusedLaunch::finish`] is called — one launch overhead,
    /// with the compute/bandwidth/latency roofline terms summed across
    /// members. Panics on an injected fault; fault-aware callers use
    /// [`Gpu::try_begin_fused`].
    pub fn begin_fused(&self, name: &'static str) -> FusedLaunch<'_> {
        self.try_begin_fused(name)
            .unwrap_or_else(|e| panic!("{e} on {}", self.spec.name))
    }
}

/// An open fused launch group — see [`Gpu::begin_fused`].
///
/// Member kernels run functionally the moment they are submitted, so data
/// dependencies between them behave exactly as in the unfused path; only the
/// *accounting* differs. Dropping the group without calling
/// [`FusedLaunch::finish`] charges nothing (the error-path analogue of a
/// launch that never happened).
#[must_use = "a fused group charges nothing until finish() is called"]
pub struct FusedLaunch<'g> {
    gpu: &'g Gpu,
    name: &'static str,
    kernels: u64,
    timing: LaunchTiming,
    flops: u64,
}

impl<'g> FusedLaunch<'g> {
    /// The device this group runs on (for allocations and transfers, which
    /// stay individually accounted — fusion only merges kernel dispatches).
    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    /// Member kernels submitted so far.
    pub fn kernels(&self) -> u64 {
        self.kernels
    }

    /// Submit a kernel to the group: execute its body now, fold its cost
    /// into the group's aggregate timing. Infallible — the group's single
    /// fault roll already happened at [`Gpu::try_begin_fused`].
    pub fn launch<K: Kernel>(&mut self, cfg: LaunchConfig, kernel: &K) {
        let cost = kernel.cost(&cfg);
        let t = kernel_timing(&self.gpu.spec, &cfg, &cost);
        self.timing.compute += t.compute;
        self.timing.bandwidth += t.bandwidth;
        self.timing.latency += t.latency;
        self.timing.transactions += t.transactions;
        self.timing.bytes += t.bytes;
        self.flops += cost.flops;
        self.kernels += 1;
        match self.gpu.mode {
            ExecMode::Sequential => self.gpu.run_blocks(cfg, kernel, 0, cfg.total_blocks()),
            ExecMode::Parallel(workers) => {
                self.gpu.run_blocks_parallel(cfg, kernel, workers.max(1))
            }
        }
    }

    /// Close the group and charge it as one launch: one overhead plus
    /// `max(Σ compute, Σ bandwidth, Σ latency)`, recorded under the group's
    /// name in the per-kernel table. Since `max` of sums never exceeds the
    /// sum of per-kernel maxima, a fused group is never slower than the same
    /// kernels launched separately. Returns the aggregate timing.
    pub fn finish(self) -> LaunchTiming {
        let timing = self.timing;
        let mut c = self.gpu.counters.lock();
        c.kernels_launched += 1;
        c.fused_groups += 1;
        c.fused_kernels_folded += self.kernels;
        c.elapsed += timing.total();
        c.breakdown
            .add(TimeCategory::LaunchOverhead, timing.overhead);
        c.breakdown
            .add(TimeCategory::KernelBody, timing.total() - timing.overhead);
        c.transactions += timing.transactions;
        c.mem_bytes += timing.bytes;
        c.flops += self.flops;
        let st = c.per_kernel.entry(self.name).or_default();
        st.launches += 1;
        st.time += timing.total();
        st.transactions += timing.transactions;
        st.bytes += timing.bytes;
        st.flops += self.flops;
        timing
    }
}

/// Either an unfused device handle or an open fused group: library routines
/// written against `Launcher` execute the *same kernel bodies in the same
/// order* on both paths, which is what pins the fused/unfused bitwise
/// equivalence by construction.
pub enum Launcher<'a, 'g> {
    /// Launch each kernel separately (one overhead and one fault roll each).
    Direct(&'g Gpu),
    /// Fold kernels into an open fused group.
    Fused(&'a mut FusedLaunch<'g>),
}

impl<'a, 'g> Launcher<'a, 'g> {
    /// The underlying device (for allocations, which are never fused).
    pub fn gpu(&self) -> &'g Gpu {
        match self {
            Launcher::Direct(g) => g,
            Launcher::Fused(f) => f.gpu,
        }
    }

    /// Launch through this path. On `Direct` this is [`Gpu::try_launch`];
    /// on `Fused` the kernel joins the group and cannot fault (the group
    /// rolled once at open).
    pub fn try_launch<K: Kernel>(
        &mut self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<(), DeviceError> {
        match self {
            Launcher::Direct(g) => g.try_launch(cfg, kernel).map(|_| ()),
            Launcher::Fused(f) => {
                f.launch(cfg, kernel);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::AccessPattern;
    use crate::kernel::KernelCost;
    use crate::memory::{DView, DViewMut};

    struct Fill {
        out: DViewMut<f32>,
        val: f32,
        n: usize,
    }
    impl Kernel for Fill {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn run(&self, t: &ThreadCtx) {
            let i = t.global_id();
            if i < self.n {
                self.out.set(i, self.val);
            }
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            KernelCost::new()
                .write(AccessPattern::coalesced::<f32>(self.n as u64))
                .active_threads(cfg, self.n as u64)
        }
    }

    struct Add {
        a: DView<f32>,
        b: DView<f32>,
        out: DViewMut<f32>,
        n: usize,
    }
    impl Kernel for Add {
        fn name(&self) -> &'static str {
            "add"
        }
        fn run(&self, t: &ThreadCtx) {
            let i = t.global_id();
            if i < self.n {
                self.out.set(i, self.a.get(i) + self.b.get(i));
            }
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            KernelCost::new()
                .flops_total(self.n as u64)
                .read(AccessPattern::coalesced::<f32>(self.n as u64))
                .read(AccessPattern::coalesced::<f32>(self.n as u64))
                .write(AccessPattern::coalesced::<f32>(self.n as u64))
                .active_threads(cfg, self.n as u64)
        }
    }

    #[test]
    fn launch_computes_and_charges() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let n = 1000;
        let mut a = gpu.alloc(n, 0.0f32);
        let mut b = gpu.alloc(n, 0.0f32);
        let mut out = gpu.alloc(n, 0.0f32);
        gpu.launch(
            LaunchConfig::for_elems(n, 256),
            &Fill {
                out: a.view_mut(),
                val: 2.0,
                n,
            },
        );
        gpu.launch(
            LaunchConfig::for_elems(n, 256),
            &Fill {
                out: b.view_mut(),
                val: 3.0,
                n,
            },
        );
        gpu.launch(
            LaunchConfig::for_elems(n, 256),
            &Add {
                a: a.view(),
                b: b.view(),
                out: out.view_mut(),
                n,
            },
        );
        let host = gpu.dtoh(&out);
        assert!(host.iter().all(|&x| x == 5.0));

        let c = gpu.counters();
        assert_eq!(c.kernels_launched, 3);
        assert_eq!(c.d2h_count, 1);
        assert_eq!(c.flops, n as u64);
        assert!(c.elapsed.as_micros() > 3.0 * 7.0); // at least 3 launch overheads
        assert_eq!(c.per_kernel["fill"].launches, 2);
    }

    #[test]
    fn parallel_mode_matches_sequential() {
        let n = 4096;
        let host: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut outputs = Vec::new();
        for mode in [ExecMode::Sequential, ExecMode::Parallel(4)] {
            let gpu = Gpu::with_mode(DeviceSpec::gtx280(), mode);
            let a = gpu.htod(&host);
            let b = gpu.htod(&host);
            let mut out = gpu.alloc(n, 0.0f32);
            gpu.launch(
                LaunchConfig::for_elems(n, 128),
                &Add {
                    a: a.view(),
                    b: b.view(),
                    out: out.view_mut(),
                    n,
                },
            );
            outputs.push(gpu.dtoh(&out));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0][100], 200.0);
    }

    #[test]
    fn transfers_are_charged_with_latency_floor() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let buf = gpu.htod(&[1.0f32]);
        let t1 = gpu.elapsed();
        assert!(t1.as_micros() >= 12.0, "small transfer should pay latency");
        let _ = gpu.dtoh_range(&buf, 0, 1);
        assert!(gpu.elapsed().as_micros() >= 24.0);
    }

    #[test]
    fn reset_preserves_allocation_accounting() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let _buf = gpu.alloc(1024, 0.0f32);
        gpu.reset_counters();
        let c = gpu.counters();
        assert_eq!(c.kernels_launched, 0);
        assert_eq!(c.allocated_bytes, 4096);
    }

    #[test]
    fn buffer_drop_releases_memory() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        {
            let _buf = gpu.alloc(1 << 20, 0.0f32);
        }
        // Next allocation sees the freed space (tracker decremented).
        let _buf2 = gpu.alloc(1 << 20, 0.0f32);
        let c = gpu.counters();
        assert_eq!(c.allocated_bytes, 4 << 20);
        assert_eq!(c.peak_allocated_bytes, 4 << 20);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn device_oom_panics() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        // 2 GiB of f32 on a 1 GiB card.
        let _ = gpu.alloc(1 << 29, 0.0f32);
    }

    #[test]
    fn armed_plan_injects_into_try_api() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut cfg = FaultConfig::off(1);
        cfg.kernel_fault = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        let mut out = gpu.try_alloc(16, 0.0f32).expect("allocs not targeted");
        let before = gpu.counters();
        let err = gpu
            .try_launch(
                LaunchConfig::for_elems(16, 16),
                &Fill {
                    out: out.view_mut(),
                    val: 1.0,
                    n: 16,
                },
            )
            .unwrap_err();
        assert_eq!(err, DeviceError::KernelFault { kernel: "fill" });
        // A faulted launch charges nothing and runs no threads.
        let after = gpu.counters();
        assert_eq!(after.kernels_launched, before.kernels_launched);
        assert_eq!(after.elapsed, before.elapsed);
        assert!(gpu.dtoh(&out).iter().all(|&x| x == 0.0));
        assert_eq!(gpu.fault_counts().kernel_faults, 1);
    }

    #[test]
    fn injected_oom_reports_real_numbers() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let _held = gpu.alloc(256, 0.0f32); // 1 KiB genuinely allocated
        let mut cfg = FaultConfig::off(2);
        cfg.alloc_oom = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        match gpu.try_alloc(16, 0.0f32).map(|_| ()) {
            Err(DeviceError::Oom {
                requested,
                allocated,
                capacity,
            }) => {
                assert_eq!(requested, 64);
                assert_eq!(allocated, 1024);
                assert_eq!(capacity, gpu.spec().memory_capacity);
            }
            other => panic!("expected injected OOM, got {other:?}"),
        }
    }

    #[test]
    fn corruption_raises_flag_but_launch_succeeds() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut cfg = FaultConfig::off(3);
        cfg.kernel_corrupt = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        let mut out = gpu.try_alloc(8, 0.0f32).unwrap();
        gpu.try_launch(
            LaunchConfig::for_elems(8, 8),
            &Fill {
                out: out.view_mut(),
                val: 7.0,
                n: 8,
            },
        )
        .expect("corruption is silent, not a launch failure");
        assert!(gpu.take_corruption());
        assert!(!gpu.take_corruption(), "flag is poll-and-clear");
        // The kernel really ran; it is the *library layer's* job to poison.
        assert!(gpu.dtoh(&out).iter().all(|&x| x == 7.0));
    }

    #[test]
    #[should_panic(expected = "launch failure")]
    fn infallible_launch_panics_on_injected_fault() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut cfg = FaultConfig::off(4);
        cfg.kernel_fault = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        let mut out = gpu.alloc(8, 0.0f32);
        gpu.launch(
            LaunchConfig::for_elems(8, 8),
            &Fill {
                out: out.view_mut(),
                val: 1.0,
                n: 8,
            },
        );
    }

    #[test]
    fn htod_timeout_releases_reservation() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut cfg = FaultConfig::off(5);
        cfg.transfer_timeout = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        let err = gpu.try_htod(&[1.0f32; 64]).map(|_| ()).unwrap_err();
        assert_eq!(err, DeviceError::TransferTimeout { bytes: 256 });
        gpu.clear_fault_plan();
        // The failed upload must not leak accounting.
        assert_eq!(gpu.counters().allocated_bytes, 0);
        let _ok = gpu.htod(&[1.0f32; 64]);
        assert_eq!(gpu.counters().allocated_bytes, 256);
    }

    #[test]
    fn fused_group_charges_single_overhead_and_matches_unfused_results() {
        let n = 1000;
        let run = |fused: bool| {
            let gpu = Gpu::new(DeviceSpec::gtx280());
            let mut a = gpu.alloc(n, 0.0f32);
            let mut b = gpu.alloc(n, 0.0f32);
            let mut out = gpu.alloc(n, 0.0f32);
            let cfg = LaunchConfig::for_elems(n, 256);
            let fill_a = |av: DViewMut<f32>| Fill {
                out: av,
                val: 2.0,
                n,
            };
            if fused {
                let mut fl = gpu.begin_fused("fused_demo");
                fl.launch(cfg, &fill_a(a.view_mut()));
                fl.launch(
                    cfg,
                    &Fill {
                        out: b.view_mut(),
                        val: 3.0,
                        n,
                    },
                );
                fl.launch(
                    cfg,
                    &Add {
                        a: a.view(),
                        b: b.view(),
                        out: out.view_mut(),
                        n,
                    },
                );
                fl.finish();
            } else {
                gpu.launch(cfg, &fill_a(a.view_mut()));
                gpu.launch(
                    cfg,
                    &Fill {
                        out: b.view_mut(),
                        val: 3.0,
                        n,
                    },
                );
                gpu.launch(
                    cfg,
                    &Add {
                        a: a.view(),
                        b: b.view(),
                        out: out.view_mut(),
                        n,
                    },
                );
            }
            (gpu.dtoh(&out), gpu.counters())
        };
        let (host_u, c_u) = run(false);
        let (host_f, c_f) = run(true);
        // Same arithmetic, bit for bit.
        assert_eq!(host_u, host_f);
        // One launch, one overhead, three members folded.
        assert_eq!(c_f.kernels_launched, 1);
        assert_eq!(c_f.fused_groups, 1);
        assert_eq!(c_f.fused_kernels_folded, 3);
        assert_eq!(c_u.fused_groups, 0);
        let oh_f = c_f.breakdown.get(TimeCategory::LaunchOverhead);
        let oh_u = c_u.breakdown.get(TimeCategory::LaunchOverhead);
        assert!((oh_f.as_nanos() * 3.0 - oh_u.as_nanos()).abs() < 1e-6);
        // Traffic/flop totals are identical; only time accounting moved.
        assert_eq!(c_f.flops, c_u.flops);
        assert_eq!(c_f.mem_bytes, c_u.mem_bytes);
        assert_eq!(c_f.transactions, c_u.transactions);
        // Fused is strictly cheaper (two overheads saved, max-of-sums ≤
        // sum-of-maxes).
        assert!(c_f.elapsed.as_nanos() < c_u.elapsed.as_nanos());
        assert!(c_f.per_kernel["fused_demo"].launches == 1);
    }

    #[test]
    fn fused_group_rolls_fault_plan_once_at_open() {
        use crate::fault::FaultConfig;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut cfg = FaultConfig::off(6);
        cfg.kernel_fault = 1.0;
        gpu.set_fault_plan(FaultPlan::new(cfg));
        let before = gpu.counters();
        let err = gpu.try_begin_fused("fused_demo").map(|_| ()).unwrap_err();
        assert_eq!(
            err,
            DeviceError::KernelFault {
                kernel: "fused_demo"
            }
        );
        let after = gpu.counters();
        assert_eq!(after.kernels_launched, before.kernels_launched);
        assert_eq!(after.elapsed, before.elapsed);
        assert_eq!(gpu.fault_counts().kernel_faults, 1);
    }

    #[test]
    fn dropped_fused_group_charges_nothing() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut out = gpu.alloc(8, 0.0f32);
        {
            let mut fl = gpu.begin_fused("fused_abandoned");
            fl.launch(
                LaunchConfig::for_elems(8, 8),
                &Fill {
                    out: out.view_mut(),
                    val: 1.0,
                    n: 8,
                },
            );
            // Dropped without finish(): the error-path analogue.
        }
        let c = gpu.counters();
        assert_eq!(c.kernels_launched, 0);
        assert_eq!(c.fused_groups, 0);
        assert_eq!(c.elapsed, SimTime::ZERO);
        // The body still ran (results exist), only the charge was skipped.
        assert!(gpu.dtoh(&out).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn launcher_direct_and_fused_agree() {
        let n = 64;
        let cfg = LaunchConfig::for_elems(n, 32);
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut a = gpu.alloc(n, 0.0f32);
        let mut l = Launcher::Direct(&gpu);
        l.try_launch(
            cfg,
            &Fill {
                out: a.view_mut(),
                val: 4.0,
                n,
            },
        )
        .unwrap();
        let direct_launches = gpu.counters().kernels_launched;
        let mut fl = gpu.begin_fused("fused_fill");
        let mut l = Launcher::Fused(&mut fl);
        l.try_launch(
            cfg,
            &Fill {
                out: a.view_mut(),
                val: 5.0,
                n,
            },
        )
        .unwrap();
        fl.finish();
        let c = gpu.counters();
        assert_eq!(direct_launches, 1);
        assert_eq!(c.kernels_launched, 2);
        assert_eq!(c.fused_kernels_folded, 1);
        assert!(gpu.dtoh(&a).iter().all(|&x| x == 5.0));
    }

    #[test]
    fn grid_2d_visits_every_thread_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct Count<'a> {
            hits: &'a [AtomicU32],
            w: usize,
        }
        impl Kernel for Count<'_> {
            fn name(&self) -> &'static str {
                "count2d"
            }
            fn run(&self, t: &ThreadCtx) {
                let idx = t.gy() * self.w + t.gx();
                self.hits[idx].fetch_add(1, Ordering::Relaxed);
            }
            fn cost(&self, _: &LaunchConfig) -> KernelCost {
                KernelCost::new()
            }
        }
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let w = 8 * 3;
        let h = 4 * 2;
        let hits: Vec<AtomicU32> = (0..w * h).map(|_| AtomicU32::new(0)).collect();
        gpu.launch(
            LaunchConfig::new((3u32, 2u32), (8u32, 4u32)),
            &Count { hits: &hits, w },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
