//! Streams: concurrent work queues on one simulated device.
//!
//! CUDA streams let independent work interleave on a single GPU. The batch
//! LP scheduler needs the same thing from the simulator: many solves in
//! flight against one device, each with its own correct time/traffic
//! accounting, without the interleaving corrupting any shared counter.
//!
//! A [`Stream`] is a lightweight execution context on a shared [`Gpu`]:
//!
//! * **Ordering** — operations issued on one stream execute synchronously
//!   in issue order (a FIFO queue, as on the real device). Different
//!   streams are independent and may be driven from different host threads.
//! * **Per-stream counters** — every launch/transfer on a stream charges
//!   the *stream's* clock and counters. A stream's counters are exactly
//!   what a dedicated device would have recorded for the same work, so
//!   per-solve statistics stay correct under interleaving.
//! * **Device aggregation** — when a stream retires (drops or is
//!   explicitly [`Stream::retire`]d), its counters fold into the parent
//!   device's aggregate: the device's `elapsed` is total busy time summed
//!   across streams, and `streams_retired` counts completed streams.
//! * **Shared memory capacity** — allocations on any stream draw from the
//!   parent device's allocation tracker; oversubscribing the card fails
//!   the same way it does without streams.
//!
//! A [`Stream`] derefs to [`Gpu`], so any code written against `&Gpu`
//! (kernels, the device BLAS layer, solver backends) runs unchanged on a
//! stream.

use std::ops::Deref;
use std::sync::Arc;

use crate::counters::Counters;
use crate::exec::Gpu;

/// One in-order work queue on a shared device. See the module docs.
pub struct Stream {
    /// Private execution context: same spec as the parent, shared
    /// allocation tracker, fresh counters.
    local: Gpu,
    parent: Arc<Gpu>,
    retired: bool,
}

impl Stream {
    /// Open a stream on `device`.
    pub fn on(device: &Arc<Gpu>) -> Self {
        let local = Gpu::with_shared_tracker(device.spec().clone(), device.tracker_handle());
        Stream {
            local,
            parent: Arc::clone(device),
            retired: false,
        }
    }

    /// The parent device this stream executes on.
    pub fn device(&self) -> &Arc<Gpu> {
        &self.parent
    }

    /// Snapshot of this stream's own counters (the parent's aggregate is
    /// untouched until the stream retires).
    pub fn counters(&self) -> Counters {
        self.local.counters()
    }

    /// Fold this stream's counters into the parent device now and stop
    /// accounting. Called automatically on drop; explicit calls let tests
    /// and schedulers synchronize at a known point.
    pub fn retire(mut self) {
        self.retire_in_place();
    }

    fn retire_in_place(&mut self) {
        if !self.retired {
            self.retired = true;
            self.parent.retire_stream(&self.local.counters());
        }
    }
}

impl Deref for Stream {
    type Target = Gpu;
    fn deref(&self) -> &Gpu {
        &self.local
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Dropped during an unwind (a solve on this stream panicked): a
            // second panic here — e.g. the parent poisoned mid-retire —
            // would abort the whole process and take every other in-flight
            // job with it. Retire best-effort instead; the batch scheduler
            // still reports the job as `Panicked`.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.retire_in_place();
            }));
        } else {
            self.retire_in_place();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::AccessPattern;
    use crate::device::DeviceSpec;
    use crate::dim::LaunchConfig;
    use crate::kernel::{Kernel, KernelCost, ThreadCtx};
    use crate::memory::DViewMut;

    struct Scale {
        data: DViewMut<f32>,
        k: f32,
        n: usize,
    }
    impl Kernel for Scale {
        fn name(&self) -> &'static str {
            "scale"
        }
        fn run(&self, t: &ThreadCtx) {
            let i = t.global_id();
            if i < self.n {
                self.data.set(i, self.k * self.data.get(i));
            }
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            KernelCost::new()
                .flops_total(self.n as u64)
                .read(AccessPattern::coalesced::<f32>(self.n as u64))
                .write(AccessPattern::coalesced::<f32>(self.n as u64))
                .active_threads(cfg, self.n as u64)
        }
    }

    fn run_workload(gpu: &Gpu, n: usize, k: f32) -> Vec<f32> {
        let mut buf = gpu.htod(&vec![1.0f32; n]);
        gpu.launch(
            LaunchConfig::for_elems(n, 128),
            &Scale {
                data: buf.view_mut(),
                k,
                n,
            },
        );
        gpu.dtoh(&buf)
    }

    #[test]
    fn stream_counters_match_dedicated_device() {
        // The same workload on (a) a dedicated device and (b) a stream of
        // a shared device must produce identical counters.
        let dedicated = Gpu::new(DeviceSpec::gtx280());
        let out_a = run_workload(&dedicated, 2048, 3.0);
        let expect = dedicated.counters();

        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let s = Stream::on(&shared);
        let out_b = run_workload(&s, 2048, 3.0);
        let got = s.counters();

        assert_eq!(out_a, out_b);
        assert_eq!(got.elapsed, expect.elapsed);
        assert_eq!(got.kernels_launched, expect.kernels_launched);
        assert_eq!(got.transactions, expect.transactions);
        assert_eq!(got.mem_bytes, expect.mem_bytes);
        assert_eq!(got.flops, expect.flops);
        assert_eq!(got.h2d_bytes, expect.h2d_bytes);
        assert_eq!(got.d2h_bytes, expect.d2h_bytes);
    }

    #[test]
    fn interleaved_streams_stay_independent() {
        // Interleave operations of two streams; each stream's counters
        // must equal the counters of the same work run alone.
        let alone = Gpu::new(DeviceSpec::gtx280());
        let _ = run_workload(&alone, 512, 2.0);
        let expect = alone.counters();

        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let s1 = Stream::on(&shared);
        let s2 = Stream::on(&shared);
        // Interleave: s1 upload, s2 upload, s1 kernel, s2 kernel, ...
        let mut b1 = s1.htod(&vec![1.0f32; 512]);
        let mut b2 = s2.htod(&vec![1.0f32; 512]);
        s1.launch(
            LaunchConfig::for_elems(512, 128),
            &Scale {
                data: b1.view_mut(),
                k: 2.0,
                n: 512,
            },
        );
        s2.launch(
            LaunchConfig::for_elems(512, 128),
            &Scale {
                data: b2.view_mut(),
                k: 2.0,
                n: 512,
            },
        );
        let _ = s1.dtoh(&b1);
        let _ = s2.dtoh(&b2);

        for s in [&s1, &s2] {
            let c = s.counters();
            assert_eq!(c.elapsed, expect.elapsed);
            assert_eq!(c.kernels_launched, expect.kernels_launched);
            assert_eq!(c.mem_bytes, expect.mem_bytes);
        }
    }

    #[test]
    fn retired_streams_aggregate_into_device() {
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let per_stream;
        {
            let s1 = Stream::on(&shared);
            let s2 = Stream::on(&shared);
            let _ = run_workload(&s1, 1024, 1.5);
            let _ = run_workload(&s2, 1024, 1.5);
            per_stream = s1.counters();
            // Aggregation happens only at retirement.
            assert_eq!(shared.counters().kernels_launched, 0);
            s1.retire();
            s2.retire();
        }
        let agg = shared.counters();
        assert_eq!(agg.streams_retired, 2);
        assert_eq!(agg.kernels_launched, 2 * per_stream.kernels_launched);
        assert_eq!(agg.flops, 2 * per_stream.flops);
        // Device busy time is the sum across streams.
        assert_eq!(agg.elapsed.as_nanos(), 2.0 * per_stream.elapsed.as_nanos());
    }

    #[test]
    fn streams_share_device_capacity() {
        // Two streams' allocations draw from one 1 GiB card: together they
        // can exceed what either could hold alongside the other.
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let s1 = Stream::on(&shared);
        let s2 = Stream::on(&shared);
        let quarter = 1 << 26; // 256 MiB of f32 = 2^26 elements * 4 B
        let _a = s1.alloc(quarter, 0.0f32);
        let _b = s2.alloc(quarter, 0.0f32);
        // 512 MiB in flight; a further 768 MiB must OOM the shared card.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _c = s1.alloc(3 * quarter, 0.0f32);
        }));
        assert!(
            r.is_err(),
            "shared capacity must be enforced across streams"
        );
    }

    #[test]
    fn fault_plan_is_stream_local() {
        use crate::fault::{FaultConfig, FaultPlan};
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let s1 = Stream::on(&shared);
        let s2 = Stream::on(&shared);
        let mut cfg = FaultConfig::off(1);
        cfg.kernel_fault = 1.0;
        s1.set_fault_plan(FaultPlan::new(cfg));
        // s1 faults; s2 (and the parent device) are unaffected.
        let mut b1 = s1.htod(&vec![1.0f32; 64]);
        assert!(s1
            .try_launch(
                LaunchConfig::for_elems(64, 64),
                &Scale {
                    data: b1.view_mut(),
                    k: 2.0,
                    n: 64
                }
            )
            .is_err());
        let _ = run_workload(&s2, 64, 2.0);
        assert_eq!(s2.fault_counts().total(), 0);
        assert_eq!(shared.fault_counts().total(), 0);
    }

    #[test]
    fn drop_during_unwind_still_retires_without_abort() {
        // A panic mid-solve unwinds through a live Stream. The Drop impl
        // must retire it best-effort without risking a double panic.
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let s = Stream::on(&shared);
            let _ = run_workload(&s, 128, 2.0);
            panic!("solver blew up mid-stream");
        }));
        assert!(r.is_err());
        let agg = shared.counters();
        assert_eq!(
            agg.streams_retired, 1,
            "in-flight stream folds in on unwind"
        );
        assert!(agg.kernels_launched > 0);
    }

    #[test]
    fn dead_stream_folds_pre_death_counters_exactly_once() {
        // A stream killed mid-flight (sticky StreamDead) must still fold
        // everything it charged *before* dying into the parent aggregate —
        // exactly once — and the failed post-death ops must charge nothing.
        use crate::fault::{FaultConfig, FaultPlan};
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));

        let healthy = Stream::on(&shared);
        let _ = run_workload(&healthy, 256, 2.0);
        let healthy_c = healthy.counters();

        let pre_death;
        {
            let s = Stream::on(&shared);
            let _ = run_workload(&s, 512, 2.0);
            pre_death = s.counters();
            assert!(pre_death.kernels_launched > 0);
            // Kill the stream: every subsequent op dies.
            let mut cfg = FaultConfig::off(3);
            cfg.stream_death = 1.0;
            s.set_fault_plan(FaultPlan::new(cfg));
            assert!(matches!(
                s.try_htod(&vec![1.0f32; 64]),
                Err(crate::fault::DeviceError::StreamDead)
            ));
            // Death is sticky, and the dead ops charged nothing.
            assert!(matches!(
                s.try_alloc(64, 0.0f32),
                Err(crate::fault::DeviceError::StreamDead)
            ));
            assert_eq!(s.counters().kernels_launched, pre_death.kernels_launched);
            assert_eq!(s.counters().elapsed, pre_death.elapsed);
            s.retire(); // explicit retire; the later drop must not re-fold
        }
        healthy.retire();

        let agg = shared.counters();
        assert_eq!(agg.streams_retired, 2);
        // Device aggregate == sum over streams, dead one included once.
        assert_eq!(
            agg.kernels_launched,
            pre_death.kernels_launched + healthy_c.kernels_launched
        );
        assert_eq!(
            agg.elapsed.as_nanos(),
            pre_death.elapsed.as_nanos() + healthy_c.elapsed.as_nanos()
        );
        assert_eq!(agg.flops, pre_death.flops + healthy_c.flops);
        assert_eq!(agg.mem_bytes, pre_death.mem_bytes + healthy_c.mem_bytes);
        assert_eq!(agg.h2d_bytes, pre_death.h2d_bytes + healthy_c.h2d_bytes);
        assert_eq!(agg.d2h_bytes, pre_death.d2h_bytes + healthy_c.d2h_bytes);
    }

    #[test]
    fn drop_retires_exactly_once() {
        let shared = Arc::new(Gpu::new(DeviceSpec::gtx280()));
        {
            let s = Stream::on(&shared);
            let _ = run_workload(&s, 256, 1.0);
            s.retire(); // explicit retire, then drop runs too
        }
        assert_eq!(shared.counters().streams_retired, 1);
    }
}
