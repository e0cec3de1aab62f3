//! Checkpointed solve recovery.
//!
//! The revised method's state at a refactorization boundary is a pure
//! function of the basis: `B⁻¹` is recomputed from scratch from the basis
//! columns and `β = max(B⁻¹ b, 0)`, with no eta-update history carried
//! over. That makes the boundary the one point in a solve where a snapshot
//! of (basis, phase, pricing state) is enough to resume *bitwise
//! identically* — on any backend that shares the host reinversion path,
//! including a different degradation rung than the one that faulted.
//!
//! [`CheckpointSlot`] is the caller-owned mailbox: the driver stores a
//! [`SolveCheckpoint`] into it every `checkpoint_interval` iterations
//! (rounded up to the next reinversion), and the recovery layers
//! ([`crate::ResilientSolver`], the mega-batch lane evacuation) read it
//! back after a device fault to resume instead of restarting.

use std::sync::Mutex;

use crate::options::BasisRepresentation;
use crate::stats::SolveStats;

/// A resumable snapshot of one in-flight revised simplex solve, taken at a
/// refactorization boundary.
#[derive(Debug, Clone)]
pub struct SolveCheckpoint {
    /// Basic variable of each row at the snapshot.
    pub basis: Vec<usize>,
    /// Phase the solve was in: 1 or 2.
    pub phase: u8,
    /// Iterations completed *within the current phase* at the snapshot
    /// (drives the periodic-reinversion cadence after a resume).
    pub iters_here: usize,
    /// Full statistics at the snapshot, including the running
    /// `pivot_fingerprint`; a resumed solve continues folding pivots into
    /// it, so the resumed final fingerprint equals the uninterrupted one.
    pub stats: SolveStats,
    /// Hybrid pricing was in Bland mode at the snapshot.
    pub bland_mode: bool,
    /// Consecutive degenerate steps at the snapshot.
    pub stall: usize,
    /// Partial-pricing rotation cursor at the snapshot.
    pub price_cursor: usize,
    /// How the backend maintained `B⁻¹` when the snapshot was taken; the
    /// resume installs the same representation so the continued walk stays
    /// on the snapshotting run's arithmetic path.
    pub representation: BasisRepresentation,
    /// Eta chain length at the snapshot. Snapshots are only
    /// taken at refactorization boundaries, where the chain has just been
    /// folded into fresh factors — so this is always 0, and the invariant is
    /// asserted at both store and install time. The field exists so a
    /// violation is visible in the snapshot itself, not just in a debug
    /// assert.
    pub eta_len: usize,
}

#[derive(Debug, Default)]
struct SlotState {
    checkpoint: Option<SolveCheckpoint>,
    /// Total iterations the *current attempt* has completed (checkpointed
    /// or not) — read back on failure to account wasted work.
    current_iteration: usize,
}

/// Caller-owned checkpoint mailbox shared between a solve attempt and the
/// recovery layer supervising it. Thread-safe: the mega-batch driver
/// checkpoints many lanes from worker threads.
#[derive(Debug, Default)]
pub struct CheckpointSlot {
    state: Mutex<SlotState>,
}

impl CheckpointSlot {
    /// Fresh, empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a snapshot, replacing any previous one.
    pub fn store(&self, cp: SolveCheckpoint) {
        self.state.lock().expect("checkpoint slot").checkpoint = Some(cp);
    }

    /// Clone out the latest snapshot, if any.
    pub fn checkpoint(&self) -> Option<SolveCheckpoint> {
        self.state
            .lock()
            .expect("checkpoint slot")
            .checkpoint
            .clone()
    }

    /// Reset the per-attempt progress counter to `base` (the checkpoint's
    /// solve-wide iteration count, or 0 for a scratch attempt).
    pub fn begin_attempt(&self, base: usize) {
        self.state
            .lock()
            .expect("checkpoint slot")
            .current_iteration = base;
    }

    /// Record that the running attempt has completed `it` solve-wide
    /// iterations. Called by the driver after each iteration.
    pub fn note_iteration(&self, it: usize) {
        self.state
            .lock()
            .expect("checkpoint slot")
            .current_iteration = it;
    }

    /// Iterations the current (or just-died) attempt completed beyond the
    /// latest checkpoint — the work a failure right now would waste.
    pub fn wasted_on_failure(&self) -> u64 {
        let st = self.state.lock().expect("checkpoint slot");
        let kept = st
            .checkpoint
            .as_ref()
            .map(|cp| cp.stats.iterations)
            .unwrap_or(0);
        st.current_iteration.saturating_sub(kept) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(iters: usize) -> SolveCheckpoint {
        let mut stats = SolveStats::default();
        stats.iterations = iters;
        SolveCheckpoint {
            basis: vec![0, 1],
            phase: 2,
            iters_here: iters,
            stats,
            bland_mode: false,
            stall: 0,
            price_cursor: 0,
            representation: BasisRepresentation::ExplicitInverse,
            eta_len: 0,
        }
    }

    #[test]
    fn slot_round_trips_latest_checkpoint() {
        let slot = CheckpointSlot::new();
        assert!(slot.checkpoint().is_none());
        slot.store(cp(8));
        slot.store(cp(16));
        let got = slot.checkpoint().expect("stored");
        assert_eq!(got.stats.iterations, 16);
        assert_eq!(got.basis, vec![0, 1]);
    }

    #[test]
    fn wasted_counts_progress_beyond_checkpoint() {
        let slot = CheckpointSlot::new();
        slot.begin_attempt(0);
        slot.note_iteration(5);
        // No checkpoint: everything is lost.
        assert_eq!(slot.wasted_on_failure(), 5);
        slot.store(cp(8));
        slot.note_iteration(13);
        assert_eq!(slot.wasted_on_failure(), 5);
        // A resume restarts the progress counter at the checkpoint.
        slot.begin_attempt(8);
        assert_eq!(slot.wasted_on_failure(), 0);
    }
}
