//! Solver configuration.

use gpu_sim::FaultConfig;
use linalg::Scalar;

/// Entering-variable (pricing) rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotRule {
    /// Most negative reduced cost over *all* columns. Fast convergence,
    /// can cycle on degenerate problems, and pays O(m·n) pricing per
    /// iteration.
    Dantzig,
    /// Smallest index with negative reduced cost. Anti-cycling, often many
    /// more iterations.
    Bland,
    /// Dantzig until a degeneracy stall is detected, then Bland until the
    /// objective moves again — the practical compromise the era's
    /// implementations converged on.
    Hybrid,
    /// Partial (windowed) Dantzig: price only `window` columns per
    /// iteration, rotating through the column set, and declare optimality
    /// only after a full pass finds no candidate. Cuts per-iteration
    /// pricing from O(m·n) to O(m·window) — the optimization that lets the
    /// revised method beat the full tableau when n ≫ m. Falls back to
    /// Bland on a degeneracy stall like [`PivotRule::Hybrid`].
    PartialDantzig {
        /// Columns priced per window (clamped to ≥ 1).
        window: usize,
    },
}

/// How the backend maintains the basis inverse between reinversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisRepresentation {
    /// Dense explicit `B⁻¹`, updated in place by a rank-1 Gauss–Jordan
    /// sweep every pivot — the paper's kernel, O(m²) per iteration. The
    /// fidelity baseline: every bitwise parity suite runs against it.
    #[default]
    ExplicitInverse,
    /// Sparse LU of the basis: a Markowitz-ordered, threshold-pivoted
    /// factorization `P_r B₀ P_c = L U` with CSC factors, refreshed at
    /// every reinversion, plus an eta chain ([`crate::EtaFile`]) with one
    /// eta per pivot since. FTRAN/BTRAN cost O(nnz(L+U) + m·k) instead of
    /// O(m²) with `k` bounded by [`SolverOptions::refactor_period`], so
    /// sparse bases and every CPU cell beat the explicit update (the U1
    /// and U2 experiments). The chain is folded at every periodic or
    /// emergency refactorize, so checkpoint boundaries remain pure
    /// functions of the basis and resume stays bitwise.
    SparseLU,
}

impl BasisRepresentation {
    /// Stable label used in traces, stats, and bench CSVs.
    pub fn label(&self) -> &'static str {
        match self {
            BasisRepresentation::ExplicitInverse => "explicit-inverse",
            BasisRepresentation::SparseLU => "sparse-lu",
        }
    }
}

/// What the driver does when a degeneracy stall trips
/// [`SolverOptions::stall_threshold`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DegeneracyPolicy {
    /// Switch to Bland's rule until the objective moves — the legacy
    /// escalation, and the default (the mega-batch lockstep replica and
    /// the bitwise parity suites assume it).
    #[default]
    BlandFallback,
    /// Bounded deterministic cost perturbation first: nudge every cost by
    /// a column-hashed fraction of `scale` to break the tie set, and reset
    /// to the true costs at the next reinversion boundary (checkpoints
    /// stay pure functions of the basis) or before declaring optimality.
    /// Escalates to Bland only if the stall survives a perturbed stretch.
    Perturb {
        /// Relative perturbation magnitude (of each cost's own size);
        /// clamped to a small positive value. 1e-7-ish is typical.
        scale: f64,
    },
}

/// Solver options. `Default` reproduces the paper's configuration
/// (Dantzig pricing with a stall fallback, periodic reinversion).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Pricing rule.
    pub pivot_rule: PivotRule,
    /// A reduced cost must be below `−opt_tol` to enter the basis.
    /// `None` picks a precision-appropriate default.
    pub opt_tol: Option<f64>,
    /// A column entry must exceed `pivot_tol` to pivot on.
    /// `None` picks a precision-appropriate default.
    pub pivot_tol: Option<f64>,
    /// Phase-1 objective below this counts as feasible.
    /// `None` picks a precision-appropriate default.
    pub feas_tol: Option<f64>,
    /// Recompute `B⁻¹` from the basis columns every this many iterations
    /// (purges accumulated rank-1-update error). Under
    /// [`BasisRepresentation::SparseLU`] this is also the bound on the
    /// eta-chain length: each periodic reinversion folds the chain into
    /// fresh factors. 0 disables (the SparseLU chain then grows without
    /// bound — legal, but per-iteration cost creeps up with the chain).
    pub refactor_period: usize,
    /// How the backend maintains the basis inverse between reinversions.
    /// [`BasisRepresentation::ExplicitInverse`] (default) is the paper's
    /// O(m²)-per-pivot dense update; [`BasisRepresentation::SparseLU`]
    /// trades it for sparse factors plus an eta chain bounded by
    /// `refactor_period`.
    pub basis_representation: BasisRepresentation,
    /// Degeneracy handling once `stall_threshold` trips. The default
    /// [`DegeneracyPolicy::BlandFallback`] preserves the legacy pivot
    /// paths bit-for-bit.
    pub degeneracy: DegeneracyPolicy,
    /// Hard iteration cap per phase; `None` = `20·(m + n) + 200`.
    pub max_iterations: Option<usize>,
    /// Consecutive zero-step iterations before Hybrid switches to Bland.
    pub stall_threshold: usize,
    /// Apply geometric-mean scaling in the high-level pipeline.
    pub scale: bool,
    /// Run presolve in the high-level pipeline.
    pub presolve: bool,
    /// Wall-clock deadline for one solve, in seconds; exceeding it aborts
    /// with [`crate::SolveError::Timeout`]. `None` = no deadline.
    pub time_limit: Option<f64>,
    /// Fault-injection plan armed on the device before the solve (GPU
    /// backends only; ignored on CPU). Also switches the driver into
    /// paranoid mode: terminal solutions are validated for finiteness so a
    /// silently corrupted iterate cannot masquerade as `Optimal`.
    pub faults: Option<FaultConfig>,
    /// Charge each per-iteration GPU kernel chain as a single fused launch
    /// (one launch overhead per chain, pivot probes batched into one PCIe
    /// transfer). Arithmetic and pivot sequence are identical either way —
    /// this toggles *accounting only* (the F6 ablation). GPU backends only.
    pub fuse_launches: bool,
    /// On `Optimal`, recompute the basic variables from a fresh f64
    /// factorization of the terminal basis (high-level pipeline only).
    /// Makes the reported point a pure function of the terminal basis, so
    /// a warm solve and a cold solve ending at the same basis produce
    /// bitwise-identical objectives regardless of the pivot path taken —
    /// the invariant the W1 experiment asserts.
    pub polish: bool,
    /// Snapshot the solver state into an attached
    /// [`crate::CheckpointSlot`] roughly every this many iterations.
    /// Snapshots are only taken at refactorization boundaries (the one
    /// point where `B⁻¹` is a pure function of the basis, so a resume can
    /// reproduce it bitwise), so the effective cadence is the next
    /// reinversion at or after the interval. 0 disables checkpointing;
    /// without an attached slot the setting is inert.
    pub checkpoint_interval: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            pivot_rule: PivotRule::Hybrid,
            opt_tol: None,
            pivot_tol: None,
            feas_tol: None,
            refactor_period: 64,
            basis_representation: BasisRepresentation::default(),
            degeneracy: DegeneracyPolicy::default(),
            max_iterations: None,
            stall_threshold: 12,
            scale: true,
            presolve: true,
            time_limit: None,
            faults: None,
            fuse_launches: true,
            polish: true,
            checkpoint_interval: 64,
        }
    }
}

impl SolverOptions {
    /// Resolved optimality tolerance for scalar type `T`.
    pub fn opt_tol_for<T: Scalar>(&self) -> T {
        T::from_f64(self.opt_tol.unwrap_or(if T::IS_F64 { 1e-7 } else { 1e-4 }))
    }

    /// Resolved pivot tolerance for scalar type `T`.
    pub fn pivot_tol_for<T: Scalar>(&self) -> T {
        T::from_f64(
            self.pivot_tol
                .unwrap_or(if T::IS_F64 { 1e-9 } else { 1e-5 }),
        )
    }

    /// Resolved phase-1 feasibility tolerance for scalar type `T`.
    pub fn feas_tol_for<T: Scalar>(&self) -> T {
        T::from_f64(self.feas_tol.unwrap_or(if T::IS_F64 { 1e-6 } else { 5e-3 }))
    }

    /// Resolved iteration cap for a problem with `m` rows and `n` columns.
    pub fn max_iters_for(&self, m: usize, n: usize) -> usize {
        self.max_iterations.unwrap_or(20 * (m + n) + 200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_precision() {
        let o = SolverOptions::default();
        assert!(o.opt_tol_for::<f32>() > o.opt_tol_for::<f64>() as f32);
        assert!(o.pivot_tol_for::<f64>() < 1e-6);
        assert_eq!(o.max_iters_for(10, 20), 20 * 30 + 200);
    }

    #[test]
    fn explicit_tolerances_override() {
        let o = SolverOptions {
            opt_tol: Some(1e-3),
            max_iterations: Some(5),
            ..Default::default()
        };
        assert_eq!(o.opt_tol_for::<f64>(), 1e-3);
        assert_eq!(o.max_iters_for(1000, 1000), 5);
    }
}
