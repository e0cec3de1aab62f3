//! The backend abstraction: the exact operation set one revised simplex
//! iteration needs, so the same driver runs on the serial CPU baseline and
//! on the simulated GPU.
//!
//! A backend owns the problem matrices (`A`, `B⁻¹`), the iterate vectors
//! (`β`, `π`, `d`, `α`) and a notion of *modeled time*. The driver
//! ([`crate::revised::RevisedSimplex`]) owns the basis bookkeeping, phase
//! logic and termination; it calls the ops below in a fixed order each
//! iteration:
//!
//! ```text
//! compute_btran → compute_pricing_window → entering_* → compute_alpha
//!               → ratio_test → pivot
//! ```
//!
//! Basis bookkeeping rides on those calls: [`Backend::pivot`] carries the
//! entering column and its cost, [`Backend::refactorize`] carries the whole
//! basis, and [`Backend::set_basic_costs`] installs every basic cost at
//! once. A GPU backend therefore moves no data between host decisions.
//!
//! Every data-touching operation returns `Result<_, BackendError>`: the CPU
//! backends never fail and always return `Ok`, while the GPU backends
//! surface injected or genuine [`gpu_sim::DeviceError`]s so the driver (and
//! the recovery layer above it) can react instead of panicking mid-batch.

use gpu_sim::SimTime;
use linalg::Scalar;

use crate::error::BackendError;
use crate::options::BasisRepresentation;

/// Outcome of the ratio test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RatioOutcome<T: Scalar> {
    /// No positive pivot entry: the problem is unbounded along `x_q`.
    Unbounded,
    /// Pivot row `p` with step length `theta = β_p / α_p`.
    Pivot {
        /// Leaving row index.
        p: usize,
        /// Step length.
        theta: T,
    },
}

/// Linear-algebra backend for the revised simplex driver.
pub trait Backend<T: Scalar> {
    /// Backend name for reports.
    fn name(&self) -> &'static str;

    /// Current modeled time (simulated GPU clock or modeled CPU clock).
    /// The driver samples this around each step to build the F2 breakdown.
    fn clock(&self) -> SimTime;

    /// Number of rows `m`.
    fn m(&self) -> usize;

    /// Number of columns eligible for pricing (excludes artificials).
    fn n_active(&self) -> usize;

    /// Install the pricing costs for the current phase (length ≥
    /// [`Backend::n_active`]; trailing entries ignored).
    fn set_phase_costs(&mut self, c: &[T]) -> Result<(), BackendError>;

    /// Install the costs of all basic variables, `c_B[r]` for every row
    /// `r` (length [`Backend::m`]), in one transfer.
    fn set_basic_costs(&mut self, cb: &[T]) -> Result<(), BackendError>;

    /// BTRAN: refresh the simplex multipliers `π = c_Bᵀ B⁻¹` against the
    /// current basis. Pricing windows read the most recent `π`, so the
    /// driver re-runs BTRAN whenever the basis or `c_B` changed — in
    /// practice, immediately before every [`Backend::compute_pricing_window`]
    /// call.
    fn compute_btran(&mut self) -> Result<(), BackendError>;

    /// Compute the reduced costs `d_j = c_j − πᵀa_j` for the `len` active
    /// columns starting at `start` (`start + len ≤ n_active`), using the `π`
    /// from the last [`Backend::compute_btran`]. Partial pricing calls this
    /// with small windows; full pricing is the window `[0, n_active)`.
    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError>;

    /// Compute `π = c_Bᵀ B⁻¹` and `d = c − Aᵀπ` over the active columns.
    fn compute_pricing(&mut self) -> Result<(), BackendError> {
        self.compute_btran()?;
        self.compute_pricing_window(0, self.n_active())
    }

    /// Dantzig rule restricted to the window `[start, start + len)`: most
    /// negative reduced cost below `−tol` among its nonbasic columns.
    /// Returns the *global* column index and its reduced cost. Only valid
    /// for windows whose reduced costs are current.
    fn entering_dantzig_window(
        &mut self,
        tol: T,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, T)>, BackendError>;

    /// Dantzig rule: most negative reduced cost below `−tol` among nonbasic
    /// active columns. Returns `(q, d_q)`, or `None` at optimality.
    fn entering_dantzig(&mut self, tol: T) -> Result<Option<(usize, T)>, BackendError> {
        let n = self.n_active();
        self.entering_dantzig_window(tol, 0, n)
    }

    /// Bland rule: smallest-index reduced cost below `−tol` among nonbasic
    /// active columns. Returns `(q, d_q)`, or `None` at optimality.
    fn entering_bland(&mut self, tol: T) -> Result<Option<(usize, T)>, BackendError>;

    /// FTRAN: `α = B⁻¹ a_q`.
    fn compute_alpha(&mut self, q: usize) -> Result<(), BackendError>;

    /// Ratio test over the current `α` and `β`: minimize `β_i/α_i` over
    /// rows with `α_i > pivot_tol`; ties go to the smallest row index.
    fn ratio_test(&mut self, pivot_tol: T) -> Result<RatioOutcome<T>, BackendError>;

    /// Apply the pivot of entering column `q` at row `p`: `β_p ← θ`,
    /// `β_i ← β_i − θ·α_i (i ≠ p)`, `B⁻¹ ← E·B⁻¹` with the eta column
    /// built from `α` and `p`, and the basis bookkeeping — `q` becomes basic
    /// in row `p` (the mirror that masks basic columns in pricing) with
    /// basic cost `c_B[p] = cost`.
    fn pivot(&mut self, p: usize, q: usize, theta: T, cost: T) -> Result<(), BackendError>;

    /// Download the current basic solution `β` (charged like any other
    /// device→host transfer).
    fn beta(&mut self) -> Result<Vec<T>, BackendError>;

    /// Current objective `c_Bᵀβ` computed from scratch (used at phase
    /// transitions and after refactorization to purge drift).
    fn objective_now(&mut self) -> Result<T, BackendError>;

    /// Rebuild `B⁻¹` and `β` from the basis column set, and make `basis`
    /// the backend's basis mirror (column `basis[r]` basic in row `r`).
    /// Returns [`BackendError::Singular`] when the basis is numerically
    /// singular and [`BackendError::Device`] when the device failed
    /// mid-rebuild.
    fn refactorize(&mut self, basis: &[usize]) -> Result<(), BackendError>;

    /// One entry of the current `α` vector (used when driving artificials
    /// out of a degenerate phase-1 basis).
    fn alpha_at(&mut self, i: usize) -> Result<T, BackendError>;

    /// Select how the basis inverse is maintained between reinversions.
    /// Called once, before the first iteration (switching mid-solve is not
    /// supported). Backends that only implement the explicit inverse keep
    /// the default no-op and report
    /// [`BasisRepresentation::ExplicitInverse`] from
    /// [`Backend::representation`].
    fn set_representation(&mut self, _rep: BasisRepresentation) {}

    /// The representation currently in effect.
    fn representation(&self) -> BasisRepresentation {
        BasisRepresentation::ExplicitInverse
    }

    /// Length of the SparseLU eta chain since the last reinversion
    /// (always 0 under the explicit inverse).
    fn eta_chain_len(&self) -> usize {
        0
    }

    /// Counters from the sparse LU engine, when
    /// [`BasisRepresentation::SparseLU`] is active and at least one
    /// factorization has run: `None` otherwise. The driver copies these
    /// into [`crate::SolveStats`] after every refactorization.
    fn lu_stats(&self) -> Option<LuReport> {
        None
    }
}

/// Cumulative sparse-LU counters a backend reports to the driver.
/// "Peak" fields are maxima over the factorizations of this solve so far;
/// rejections accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LuReport {
    /// Peak fill-in (factor nnz − basis nnz) over the solve.
    pub fill_in: u64,
    /// Peak factor size nnz(L)+nnz(U) over the solve.
    pub refactor_nnz: u64,
    /// Total pivot candidates rejected by threshold pivoting.
    pub markowitz_rejections: u64,
}
