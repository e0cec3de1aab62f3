//! A device buffer recycler for per-iteration allocations.
//!
//! Iterative device code that allocates a fresh vector every step — the
//! sparse-LU simplex appends one eta vector per pivot — pays a
//! `cudaMalloc`/`cudaFree` pair per iteration and fragments the device heap.
//! The real-GPU fix is a free-list allocator keyed by size; [`BufferPool`]
//! is that allocator for the simulated device. Buffers are requested with
//! [`BufferPool::take`] and handed back with [`BufferPool::give`]; a request
//! whose exact length sits on the free list is served by recycling (no
//! device allocation), otherwise a fresh [`DeviceBuffer`] is made through
//! the regular fallible allocation path (so capacity limits and injected
//! OOM faults still apply).
//!
//! Every request is recorded on the owning device's counters
//! ([`crate::Counters::pool_allocs`] / [`crate::Counters::pool_recycles`]),
//! so benches can report how much allocator churn the pool absorbed.

use std::collections::BTreeMap;

use crate::exec::Gpu;
use crate::fault::DeviceError;
use crate::memory::{DeviceBuffer, Pod};

/// Free-list device allocator: recycles returned buffers by exact length.
///
/// The pool does not hold a device reference; callers pass the [`Gpu`] on
/// [`BufferPool::take`] so one pool can follow its backend across streams
/// that share an allocation tracker.
#[derive(Default)]
pub struct BufferPool<T: Pod> {
    free: BTreeMap<usize, Vec<DeviceBuffer<T>>>,
    allocs: u64,
    recycles: u64,
}

impl<T: Pod> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool {
            free: BTreeMap::new(),
            allocs: 0,
            recycles: 0,
        }
    }

    /// Get a buffer of exactly `len` elements, recycling a returned one
    /// when possible. Recycled buffers keep their previous contents — the
    /// caller overwrites them, exactly as with `cudaMalloc` memory.
    pub fn take(&mut self, gpu: &Gpu, len: usize, fill: T) -> Result<DeviceBuffer<T>, DeviceError> {
        if let Some(bucket) = self.free.get_mut(&len) {
            if let Some(buf) = bucket.pop() {
                self.recycles += 1;
                gpu.record_pool_request(true);
                return Ok(buf);
            }
        }
        let buf = gpu.try_alloc(len, fill)?;
        self.allocs += 1;
        gpu.record_pool_request(false);
        Ok(buf)
    }

    /// Return a buffer to the free list for later recycling.
    pub fn give(&mut self, buf: DeviceBuffer<T>) {
        self.free.entry(buf.len()).or_default().push(buf);
    }

    /// Drop every pooled buffer (device memory is released through the
    /// buffers' own trackers).
    pub fn clear(&mut self) {
        self.free.clear();
    }

    /// Fresh allocations served since construction.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Requests served by recycling since construction.
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Buffers currently parked on the free list.
    pub fn parked(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn take_give_take_recycles_instead_of_allocating() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut pool = BufferPool::<f64>::new();
        let a = pool.take(&gpu, 64, 0.0).unwrap();
        assert_eq!((pool.allocs(), pool.recycles()), (1, 0));
        let id = a.id();
        pool.give(a);
        assert_eq!(pool.parked(), 1);
        let b = pool.take(&gpu, 64, 0.0).unwrap();
        assert_eq!(b.id(), id, "same buffer came back");
        assert_eq!((pool.allocs(), pool.recycles()), (1, 1));
        let c = gpu.counters();
        assert_eq!((c.pool_allocs, c.pool_recycles), (1, 1));
    }

    #[test]
    fn different_lengths_do_not_alias() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut pool = BufferPool::<f64>::new();
        let a = pool.take(&gpu, 16, 0.0).unwrap();
        pool.give(a);
        let b = pool.take(&gpu, 32, 0.0).unwrap();
        assert_eq!(b.len(), 32);
        assert_eq!((pool.allocs(), pool.recycles()), (2, 0));
        assert_eq!(pool.parked(), 1, "the 16-elem buffer stays parked");
    }

    #[test]
    fn steady_state_loop_allocates_nothing_and_frees_device_memory_on_clear() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut pool = BufferPool::<f64>::new();
        for _ in 0..100 {
            let buf = pool.take(&gpu, 128, 0.0).unwrap();
            pool.give(buf);
        }
        assert_eq!(pool.allocs(), 1, "one warmup alloc, then recycling");
        assert_eq!(pool.recycles(), 99);
        let tracker = gpu.tracker_handle();
        let held = tracker.current();
        assert!(held >= 128 * 8);
        pool.clear();
        // The tracker sees the release once the pooled buffers drop.
        assert_eq!(tracker.current(), held - 128 * 8);
    }
}
