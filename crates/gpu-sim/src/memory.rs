//! Device memory: buffers owned by the simulated GPU and the raw views
//! kernels use to access them.
//!
//! # Safety model
//!
//! CUDA kernels receive raw pointers and the programming model makes the
//! *author* responsible for avoiding cross-thread data races (distinct
//! threads must write distinct addresses unless atomics are used). The
//! simulator mirrors that contract: [`DViewMut`] is a `Copy` raw-pointer view
//! that may be captured by a kernel and written from the launch engine. The
//! engine executes blocks one after another on the calling thread, so a
//! view has a single writer at a time; a kernel whose threads write the
//! same address is still a bug, exactly as it would be on the real device.
//! Views never outlive
//! the launch in well-formed code because [`crate::Gpu::launch`] is
//! synchronous and buffers cannot be freed while borrowed at view-creation
//! time.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared allocation accounting between a [`crate::Gpu`] and its buffers.
///
/// Buffers decrement the current-allocated count on drop, which is how the
/// simulated device's memory capacity is enforced across buffer lifetimes.
#[derive(Debug, Default)]
pub struct AllocTracker {
    current: AtomicU64,
}

impl AllocTracker {
    /// Record an allocation; returns the new current total.
    pub(crate) fn add(&self, bytes: u64) -> u64 {
        self.current.fetch_add(bytes, Ordering::Relaxed) + bytes
    }

    /// Record a deallocation.
    pub(crate) fn sub(&self, bytes: u64) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated on the device.
    pub fn current(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }
}

/// Plain-old-data marker for types that can live in device memory.
///
/// # Safety
/// Implementors must be `Copy` with no padding-dependent invariants and no
/// drop glue; they are moved across the simulated PCIe bus with `memcpy`
/// semantics.
pub unsafe trait Pod: Copy + Send + Sync + 'static {
    /// Size of one element in bytes (used by the transfer/coalescing models).
    const BYTES: u64 = std::mem::size_of::<Self>() as u64;
}

unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for u8 {}

/// Unique identifier for a device allocation (diagnostics only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u64);

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A linear allocation in simulated device memory.
///
/// Created through [`crate::Gpu::alloc`] / [`crate::Gpu::htod`]; host code
/// cannot read it directly (as on a real GPU) — use [`crate::Gpu::dtoh`],
/// which charges PCIe time. Kernels access it through [`DView`] /
/// [`DViewMut`].
pub struct DeviceBuffer<T: Pod> {
    data: Box<[UnsafeCell<T>]>,
    id: BufferId,
    tracker: Option<Arc<AllocTracker>>,
}

impl<T: Pod> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.sub(self.bytes());
        }
    }
}

// SAFETY: access to the UnsafeCell contents is mediated by the launch
// engine under the CUDA race-freedom contract documented above.
unsafe impl<T: Pod> Send for DeviceBuffer<T> {}
unsafe impl<T: Pod> Sync for DeviceBuffer<T> {}

impl<T: Pod> DeviceBuffer<T> {
    /// Allocate `len` elements initialized to `fill`.
    pub(crate) fn new(len: usize, fill: T) -> Self {
        let data: Vec<UnsafeCell<T>> = (0..len).map(|_| UnsafeCell::new(fill)).collect();
        DeviceBuffer {
            data: data.into_boxed_slice(),
            id: BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)),
            tracker: None,
        }
    }

    /// Allocate and fill from a host slice.
    pub(crate) fn from_slice(src: &[T]) -> Self {
        let data: Vec<UnsafeCell<T>> = src.iter().map(|&x| UnsafeCell::new(x)).collect();
        DeviceBuffer {
            data: data.into_boxed_slice(),
            id: BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)),
            tracker: None,
        }
    }

    /// Attach the owning device's allocation tracker (engine-internal).
    pub(crate) fn set_tracker(&mut self, tracker: Arc<AllocTracker>) {
        debug_assert!(self.tracker.is_none(), "tracker attached twice");
        self.tracker = Some(tracker);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64 * T::BYTES
    }

    /// Allocation identifier (stable for the lifetime of the buffer).
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Read-only kernel view of the whole buffer.
    pub fn view(&self) -> DView<T> {
        DView {
            ptr: self.data.as_ptr() as *const T,
            len: self.data.len(),
            _marker: PhantomData,
        }
    }

    /// Mutable kernel view of the whole buffer.
    ///
    /// Takes `&mut self` so that creating a writable view asserts unique
    /// host-side ownership at the borrow checker level; the view itself is
    /// `Copy` for capture by kernels (see module docs for the race contract).
    pub fn view_mut(&mut self) -> DViewMut<T> {
        DViewMut {
            ptr: self.data.as_ptr() as *mut T,
            len: self.data.len(),
            _marker: PhantomData,
        }
    }

    /// Copy device contents into a host `Vec` (engine-internal; use
    /// [`crate::Gpu::dtoh`] so the transfer is charged).
    pub(crate) fn to_host_vec(&self) -> Vec<T> {
        // SAFETY: no kernel is running (launches are synchronous).
        self.data.iter().map(|c| unsafe { *c.get() }).collect()
    }

    /// Overwrite device contents from a host slice (engine-internal).
    pub(crate) fn write_from(&mut self, src: &[T]) {
        assert_eq!(src.len(), self.data.len(), "htod size mismatch");
        for (cell, &v) in self.data.iter().zip(src) {
            // SAFETY: &mut self guarantees no concurrent kernel access.
            unsafe { *cell.get() = v };
        }
    }
}

/// Read-only view of a [`DeviceBuffer`], capturable by kernels.
pub struct DView<T: Pod> {
    ptr: *const T,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> Clone for DView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for DView<T> {}
// SAFETY: read-only aliasing of Pod data is race-free.
unsafe impl<T: Pod> Send for DView<T> {}
unsafe impl<T: Pod> Sync for DView<T> {}

impl<T: Pod> DView<T> {
    /// Element count visible through the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Load element `i` (bounds-checked; a kernel out-of-bounds access is a
    /// program bug and panics rather than silently corrupting, which is
    /// kinder than the real hardware).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "device read out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked above; readers never race with writers in a
        // well-formed kernel (CUDA contract).
        unsafe { *self.ptr.add(i) }
    }

    /// Borrow the view contents as a host slice.
    ///
    /// Only sound while no kernel is concurrently writing the buffer; the
    /// synchronous engine guarantees that between launches.
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: see doc comment.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Narrow the view to `len` elements starting at `offset` (pointer
    /// arithmetic, no copy — how CUBLAS addresses a matrix column).
    pub fn subview(&self, offset: usize, len: usize) -> DView<T> {
        assert!(offset + len <= self.len, "subview out of bounds");
        DView {
            // SAFETY: bounds asserted above.
            ptr: unsafe { self.ptr.add(offset) },
            len,
            _marker: PhantomData,
        }
    }
}

/// Mutable view of a [`DeviceBuffer`], capturable by kernels.
pub struct DViewMut<T: Pod> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> Clone for DViewMut<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for DViewMut<T> {}
// SAFETY: cross-thread writes are governed by the CUDA race contract
// (module docs); the engine itself never aliases host borrows with launches.
unsafe impl<T: Pod> Send for DViewMut<T> {}
unsafe impl<T: Pod> Sync for DViewMut<T> {}

impl<T: Pod> DViewMut<T> {
    /// Element count visible through the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Load element `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "device read out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked; race freedom is the kernel contract.
        unsafe { *self.ptr.add(i) }
    }

    /// Store `x` into element `i`.
    #[inline]
    pub fn set(&self, i: usize, x: T) {
        assert!(
            i < self.len,
            "device write out of bounds: {i} >= {}",
            self.len
        );
        // SAFETY: bounds checked; race freedom is the kernel contract.
        unsafe { *self.ptr.add(i) = x };
    }

    /// Downgrade to a read-only view.
    pub fn as_view(&self) -> DView<T> {
        DView {
            ptr: self.ptr,
            len: self.len,
            _marker: PhantomData,
        }
    }

    /// Narrow the view to `len` elements starting at `offset`.
    pub fn subview_mut(&self, offset: usize, len: usize) -> DViewMut<T> {
        assert!(offset + len <= self.len, "subview_mut out of bounds");
        DViewMut {
            // SAFETY: bounds asserted above.
            ptr: unsafe { self.ptr.add(offset) },
            len,
            _marker: PhantomData,
        }
    }

    /// Borrow the view contents as a mutable host slice (engine/test use;
    /// kernels should go through `get`/`set`).
    // A view is a raw device-pointer handle with CUDA's aliasing semantics
    // (interior mutability by contract), not a Rust borrow of the buffer —
    // the &self → &mut lint does not apply to this design.
    #[allow(clippy::mut_from_ref)]
    pub fn as_mut_slice(&self) -> &mut [T] {
        // SAFETY: sound between launches; within a launch the kernel race
        // contract applies (module docs).
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip() {
        let mut b = DeviceBuffer::from_slice(&[1.0f32, 2.0, 3.0]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.bytes(), 12);
        let v = b.view_mut();
        v.set(1, 9.0);
        assert_eq!(b.to_host_vec(), vec![1.0, 9.0, 3.0]);
    }

    #[test]
    fn ids_are_unique() {
        let a = DeviceBuffer::<f32>::new(1, 0.0);
        let b = DeviceBuffer::<f32>::new(1, 0.0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let b = DeviceBuffer::<f32>::new(2, 0.0);
        b.view().get(2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut b = DeviceBuffer::<f32>::new(2, 0.0);
        b.view_mut().set(5, 1.0);
    }
}
