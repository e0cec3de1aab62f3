//! Placement and warm-start policy of a batch.
//!
//! [`PlacementPolicy::Fixed`] pins every job to one backend. A placement
//! must never change *results*, only *where* they are computed, and the
//! test suite holds the scheduler to that on every backend.

use crate::solver::BackendKind;

/// How batch jobs share optimal bases through the
/// [`crate::batch::BasisCache`].
///
/// The batched-LP successor papers observe that real batches are *families*
/// of structurally related LPs: most members re-derive from a neighbor's
/// optimal basis in a handful of pivots. The policy decides which members
/// count as "the same family" for cache keying.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WarmStartPolicy {
    /// No cache: every job cold-starts (the control case).
    #[default]
    Off,
    /// Key on the structural fingerprint only — dims, constraint pattern,
    /// and `A` quantized to `tol` — so members of a perturbed-RHS/objective
    /// family share one key. `b` and `c` are excluded entirely: a perturbed
    /// member's optimal basis is usually a valid (often optimal) start for
    /// its siblings, and the solver re-validates every candidate anyway.
    Family {
        /// Quantization tolerance for `A` entries: values within `tol` of
        /// each other round to the same bucket.
        tol: f64,
    },
}

impl WarmStartPolicy {
    /// True when lookups/inserts should happen at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, WarmStartPolicy::Off)
    }
}

/// Decides the [`BackendKind`] for each job of a batch.
#[derive(Debug, Clone)]
pub enum PlacementPolicy {
    /// Every job on the same backend.
    Fixed(BackendKind),
}

impl PlacementPolicy {
    /// Backend for every job of the batch.
    pub fn place(&self) -> BackendKind {
        match self {
            PlacementPolicy::Fixed(kind) => kind.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_places_every_job_on_its_backend() {
        let p = PlacementPolicy::Fixed(BackendKind::CpuSparse);
        assert_eq!(p.place().label(), "cpu-sparse");
    }
}
