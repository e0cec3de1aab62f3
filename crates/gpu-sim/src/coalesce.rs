//! Global-memory coalescing model.
//!
//! GT200-class GPUs service one *warp memory instruction* (32 lanes issuing a
//! load/store together) with one memory transaction per distinct aligned
//! memory segment the lanes touch. Lanes that read consecutive addresses
//! ("coalesced") share a single 128-byte transaction; lanes striding across
//! memory each pull their own segment and waste most of its bytes. This is
//! the single largest performance lever in 2009-era CUDA code, and the reason
//! the paper stores the constraint matrix column-major on the device
//! (experiment F4 in DESIGN.md measures exactly this effect).
//!
//! Kernels describe their traffic as a set of [`AccessPattern`]s; the model
//! here turns each pattern into `(transactions, bytes_moved)` by walking
//! the 32 lane addresses of one representative warp instruction — O(warp)
//! work and no allocation per pattern per launch, independent of problem
//! size. The walk is cross-checked against an independent brute-force
//! address-set implementation in the unit and property tests.

use crate::memory::Pod;

/// Shape of one warp's addresses for a single memory instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Lane `i` accesses `base + i * elem_bytes` — the ideal stream.
    Coalesced,
    /// Lane `i` accesses `base + i * stride_bytes` (e.g. reading a matrix
    /// row when the matrix is stored column-major with leading dimension
    /// `stride_bytes / elem_bytes`).
    Strided {
        /// Byte distance between consecutive lanes' addresses.
        stride_bytes: u64,
    },
    /// Every lane accesses the same address (e.g. a shared scalar or the
    /// `x[j]` operand in a row-per-thread `gemv`).
    Broadcast,
    /// Addresses are unrelated; every lane pays its own transaction.
    Scattered,
}

/// A homogeneous batch of per-thread memory accesses issued by a kernel.
///
/// `accesses` counts individual lane accesses across the whole launch (e.g.
/// a `gemv` with one thread per row of an `m × n` matrix reads the matrix
/// with `accesses = m * n`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPattern {
    /// Total per-lane access events in the launch.
    pub accesses: u64,
    /// Size of each accessed element in bytes.
    pub elem_bytes: u64,
    /// Address shape within a warp instruction.
    pub kind: PatternKind,
}

impl AccessPattern {
    /// Ideal coalesced pattern for element type `T`.
    pub fn coalesced<T: Pod>(accesses: u64) -> Self {
        AccessPattern {
            accesses,
            elem_bytes: T::BYTES,
            kind: PatternKind::Coalesced,
        }
    }

    /// Lanes separated by `stride_bytes`.
    pub fn strided<T: Pod>(accesses: u64, stride_bytes: u64) -> Self {
        AccessPattern {
            accesses,
            elem_bytes: T::BYTES,
            kind: PatternKind::Strided { stride_bytes },
        }
    }

    /// All lanes read the same address.
    pub fn broadcast<T: Pod>(accesses: u64) -> Self {
        AccessPattern {
            accesses,
            elem_bytes: T::BYTES,
            kind: PatternKind::Broadcast,
        }
    }

    /// Unstructured addresses.
    pub fn scattered<T: Pod>(accesses: u64) -> Self {
        AccessPattern {
            accesses,
            elem_bytes: T::BYTES,
            kind: PatternKind::Scattered,
        }
    }

    /// Byte distance between consecutive lanes' addresses, or `None` for
    /// [`PatternKind::Scattered`] (no address structure).
    fn lane_stride(&self) -> Option<u64> {
        match self.kind {
            PatternKind::Coalesced => Some(self.elem_bytes),
            PatternKind::Strided { stride_bytes } => Some(stride_bytes),
            PatternKind::Broadcast => Some(0),
            PatternKind::Scattered => None,
        }
    }

    /// `(transactions, bytes)` serviced for one warp instruction with `lanes`
    /// active lanes. Transactions are counted at `seg_bytes` granularity
    /// (latency/queue occupancy); bytes moved are counted at 32-byte
    /// granularity (GT200 shrinks transactions whose segment is mostly
    /// unused), clamped below by the bytes actually requested.
    fn per_instruction(&self, lanes: u64, seg_bytes: u64) -> (u64, u64) {
        if lanes == 0 {
            return (0, 0);
        }
        let Some(stride) = self.lane_stride() else {
            // Scattered: every lane its own segment; each moves one 32-byte
            // granule (or more for wide elements).
            let granule = 32u64.max(self.elem_bytes);
            return (lanes, lanes * granule);
        };
        let tx = monotone_segments(lanes, stride, self.elem_bytes, seg_bytes);
        let granules = monotone_segments(lanes, stride, self.elem_bytes, 32);
        (tx, granules * 32)
    }

    /// Total `(transactions, bytes)` for this pattern across the launch.
    pub fn traffic(&self, warp_size: u32, seg_bytes: u64) -> (u64, u64) {
        let w = warp_size as u64;
        let full_warps = self.accesses / w;
        let tail = self.accesses % w;
        let (tx_full, by_full) = self.per_instruction(w, seg_bytes);
        let (tx_tail, by_tail) = self.per_instruction(tail, seg_bytes);
        (
            full_warps * tx_full + tx_tail,
            full_warps * by_full + by_tail,
        )
    }

    /// Number of warp-level memory instructions this pattern issues.
    pub fn warp_instructions(&self, warp_size: u32) -> u64 {
        self.accesses.div_ceil(warp_size as u64)
    }
}

/// [`distinct_segments`] for the lane addresses `0, stride, 2·stride, …`
/// of `lanes` lanes, without building them. The addresses never decrease,
/// so each lane's segment range starts at or after the previous lane's: one
/// walk that counts only the segments past the last one counted sees every
/// segment once.
fn monotone_segments(lanes: u64, stride: u64, elem_bytes: u64, seg_bytes: u64) -> u64 {
    let mut count = 0;
    // First segment not yet counted.
    let mut next = 0;
    for i in 0..lanes {
        let a = i * stride;
        let first = (a / seg_bytes).max(next);
        let last = (a + elem_bytes - 1) / seg_bytes;
        if last >= first {
            count += last - first + 1;
            next = last + 1;
        }
    }
    count
}

/// Count distinct `seg_bytes`-aligned segments touched by accesses of
/// `elem_bytes` at the given relative addresses.
///
/// An element may straddle a segment boundary, in which case it touches two
/// segments (possible when `elem_bytes` does not divide `seg_bytes` or
/// addresses are unaligned).
pub fn distinct_segments(addrs: &[u64], elem_bytes: u64, seg_bytes: u64) -> u64 {
    let mut segs: Vec<u64> = Vec::with_capacity(addrs.len() * 2);
    for &a in addrs {
        let first = a / seg_bytes;
        let last = (a + elem_bytes - 1) / seg_bytes;
        for s in first..=last {
            segs.push(s);
        }
    }
    segs.sort_unstable();
    segs.dedup();
    segs.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: u64 = 128;

    #[test]
    fn coalesced_f32_is_one_transaction_per_warp() {
        let p = AccessPattern::coalesced::<f32>(32);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 1);
        assert_eq!(bytes, 128);
    }

    #[test]
    fn coalesced_f64_is_two_transactions_per_warp() {
        let p = AccessPattern::coalesced::<f64>(32);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 2);
        assert_eq!(bytes, 256);
    }

    #[test]
    fn broadcast_is_one_transaction() {
        let p = AccessPattern::broadcast::<f32>(32);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 1);
        assert_eq!(bytes, 32);
    }

    #[test]
    fn large_stride_isolates_every_lane() {
        // Column access in a row-major 4096-wide f32 matrix: stride 16 KiB.
        let p = AccessPattern::strided::<f32>(32, 4096 * 4);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 32);
        assert_eq!(bytes, 32 * 32);
    }

    #[test]
    fn stride_equal_elem_is_coalesced() {
        let a = AccessPattern::strided::<f32>(320, 4);
        let b = AccessPattern::coalesced::<f32>(320);
        assert_eq!(a.traffic(32, SEG), b.traffic(32, SEG));
    }

    #[test]
    fn partial_tail_warp_counts_correctly() {
        // 40 coalesced f32 accesses = 1 full warp (1 tx) + 8-lane tail (1 tx).
        let p = AccessPattern::coalesced::<f32>(40);
        let (tx, _) = p.traffic(32, SEG);
        assert_eq!(tx, 2);
    }

    #[test]
    fn stride_two_elements_halves_efficiency() {
        // stride 8B with f32: warp spans 256B -> 2 segments.
        let p = AccessPattern::strided::<f32>(32, 8);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 2);
        // 32 lanes × 4B useful out of 256B of granules touched.
        assert_eq!(bytes, 256);
    }

    #[test]
    fn scattered_pays_per_lane() {
        let p = AccessPattern::scattered::<f32>(64);
        let (tx, bytes) = p.traffic(32, SEG);
        assert_eq!(tx, 64);
        assert_eq!(bytes, 64 * 32);
    }

    #[test]
    fn distinct_segments_handles_straddle() {
        // An 8-byte element at offset 124 straddles the 128B boundary.
        assert_eq!(distinct_segments(&[124], 8, 128), 2);
        assert_eq!(distinct_segments(&[120], 8, 128), 1);
    }

    /// The allocation-free walk counts exactly what the brute-force
    /// address set does, for every structured pattern on the grid of
    /// element sizes, strides, active lanes and segment sizes.
    #[test]
    fn monotone_walk_matches_distinct_segments() {
        for elem in [4u64, 8] {
            let kinds = [
                PatternKind::Coalesced,
                PatternKind::Broadcast,
                PatternKind::Strided { stride_bytes: 0 },
                PatternKind::Strided { stride_bytes: 2 },
                PatternKind::Strided { stride_bytes: 4 },
                PatternKind::Strided { stride_bytes: 8 },
                PatternKind::Strided { stride_bytes: 12 },
                PatternKind::Strided { stride_bytes: 36 },
                PatternKind::Strided { stride_bytes: 100 },
                PatternKind::Strided { stride_bytes: 128 },
                PatternKind::Strided { stride_bytes: 132 },
                PatternKind::Strided {
                    stride_bytes: 4096 * 4,
                },
            ];
            for kind in kinds {
                let p = AccessPattern {
                    accesses: 32,
                    elem_bytes: elem,
                    kind,
                };
                let stride = p.lane_stride().unwrap();
                for lanes in 0..=32u64 {
                    let addrs: Vec<u64> = (0..lanes).map(|i| i * stride).collect();
                    for seg in [32u64, 128] {
                        assert_eq!(
                            monotone_segments(lanes, stride, elem, seg),
                            distinct_segments(&addrs, elem, seg),
                            "elem {elem} {kind:?} lanes {lanes} seg {seg}"
                        );
                    }
                    let expect = if lanes == 0 {
                        (0, 0)
                    } else {
                        (
                            distinct_segments(&addrs, elem, SEG),
                            distinct_segments(&addrs, elem, 32) * 32,
                        )
                    };
                    assert_eq!(p.per_instruction(lanes, SEG), expect);
                }
            }
        }
    }

    #[test]
    fn zero_accesses_cost_nothing() {
        let p = AccessPattern::coalesced::<f32>(0);
        assert_eq!(p.traffic(32, SEG), (0, 0));
        assert_eq!(p.warp_instructions(32), 0);
    }
}
