//! One revised simplex solve's host state machine, shared by both drivers.
//!
//! A [`SimplexLane`] owns everything a solve decides on the host: the
//! basis mirror, the statistics, the phase, the anti-cycling and recovery
//! state, and the checkpoint cadence. Each transition is written once,
//! generic over the [`Backend`] it drives. [`crate::RevisedSimplex`] calls
//! the transitions around its own pricing, FTRAN, ratio-test and update
//! calls; the mega-batch round loop ([`crate::batch::mega`]) calls the same
//! transitions on each lane's [`crate::LaneView`] between its batched
//! stages. A lane therefore makes the same backend calls, in the same
//! order, under either driver.
//!
//! An iteration passes through [`SimplexLane::admit`],
//! [`SimplexLane::on_price`], [`SimplexLane::on_ratio`] and
//! [`SimplexLane::on_pivot`], in that order. The first three return a
//! [`Flow`]: go on to the next stage, retry from `admit`, or end with a
//! status that the driver hands to [`SimplexLane::finish`].

use std::time::Instant;

use gpu_sim::SimTime;
use linalg::Scalar;
use lp::StandardForm;

use crate::backend::{Backend, RatioOutcome};
use crate::basis::basis_lu;
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::{BackendError, SolveError};
use crate::options::{BasisRepresentation, DegeneracyPolicy, PivotRule, SolverOptions};
use crate::result::{Status, StdResult};
use crate::stats::{SolveStats, Step};
use crate::trace::{Recorder, StepKind};

/// Consecutive emergency reinversions tolerated before a phase gives up
/// and reports numerical failure.
const MAX_CONSECUTIVE_RECOVERIES: usize = 3;

/// Deterministic per-column jitter in `[0.5, 1.5)` for the cost
/// perturbation (FNV-1a over the column index). Pure function of `j`, so
/// the perturbed walk — and its deterministic reset — replays identically
/// across runs and backends.
fn column_jitter(j: usize) -> f64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for byte in (j as u64).to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    }
    0.5 + (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Host-side primal feasibility probe for a warm-start candidate: solve
/// `B x_B = b` in f64 and require every component ≥ `-tol`. A singular or
/// non-finite solve counts as infeasible. See [`SimplexLane::start`] for
/// why this cannot be delegated to the backend.
fn warm_basis_feasible<T: Scalar>(sf: &StandardForm<T>, basis: &[usize], tol: f64) -> bool {
    let rhs: Vec<f64> = sf.b.iter().map(|v| v.to_f64()).collect();
    basis_lu(&sf.a, basis)
        .is_some_and(|lu| lu.solve(&rhs).iter().all(|v| v.is_finite() && *v >= -tol))
}

/// Which phase a simplex solve is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    One,
    Two,
}

impl Phase {
    /// Index into [`SolveStats::phase`].
    fn index(self) -> usize {
        match self {
            Phase::One => 0,
            Phase::Two => 1,
        }
    }

    /// Trace and checkpoint tag (0 is reserved for setup).
    fn tag(self) -> u8 {
        match self {
            Phase::One => 1,
            Phase::Two => 2,
        }
    }
}

/// What a lane transition asks its driver to do next.
pub(crate) enum Flow<X> {
    /// Carry on with this iteration's next stage.
    Go(X),
    /// Drop this iteration and start over at [`SimplexLane::admit`].
    Retry,
    /// The solve is over: the driver calls [`SimplexLane::finish`].
    End(Status),
}

/// An open span: the simulated clock at entry, plus the host clock when a
/// live recorder wants wall time (None under [`crate::NoopRecorder`]).
pub(crate) type OpenSpan = (SimTime, Option<Instant>);

/// Open a span at simulated time `t0`, sampling the host clock only when
/// a live recorder will consume it.
#[inline]
pub(crate) fn open_span<R: Recorder>(t0: SimTime) -> OpenSpan {
    let w0 = if R::ENABLED {
        Some(Instant::now())
    } else {
        None
    };
    (t0, w0)
}

/// The per-solve state of one revised simplex solve and every host
/// transition on it.
pub(crate) struct SimplexLane<'a, T: Scalar, R: Recorder> {
    sf: &'a StandardForm<T>,
    pub(crate) opts: &'a SolverOptions,
    rec: Option<&'a mut R>,
    /// Caller-owned checkpoint mailbox; `None` disables checkpointing.
    pub(crate) ckpt: Option<&'a CheckpointSlot>,
    /// Host clock at construction: the deadline and `wall_seconds` base.
    wall: Instant,
    max_iters: usize,
    pub(crate) xb: Vec<usize>,
    pub(crate) stats: SolveStats,
    phase: Phase,
    /// Phase tag for trace events: 0 = setup, 1/2 = simplex phases.
    phase_tag: u8,
    bland_mode: bool,
    /// Consecutive degenerate steps.
    pub(crate) stall: usize,
    /// Iterations completed in the current phase (the reinversion cadence).
    iters_here: usize,
    /// Emergency reinversions left before a non-finite iterate fails the
    /// solve; refilled by every completed pivot and every phase entry.
    recoveries_left: usize,
    /// Solve-wide iteration count at the most recent stored checkpoint.
    last_ckpt_iter: usize,
    /// A degeneracy cost perturbation is currently installed.
    perturbed: bool,
    /// Rotating start column for partial pricing.
    pub(crate) price_cursor: usize,
    /// This iteration prices under Bland's rule: `bland_mode` as
    /// [`SimplexLane::admit`] found it, so the iteration is counted under
    /// the rule that actually priced it.
    pub(crate) use_bland: bool,
    /// A resume install just rebuilt `B⁻¹` at this very boundary (and the
    /// snapshot counted that reinversion): skip the next periodic one.
    skip_periodic: bool,
}

impl<'a, T: Scalar, R: Recorder> SimplexLane<'a, T, R> {
    /// A fresh lane on the slack/artificial start basis of `sf`.
    pub(crate) fn new(
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        rec: Option<&'a mut R>,
        ckpt: Option<&'a CheckpointSlot>,
    ) -> Self {
        SimplexLane {
            sf,
            opts,
            rec,
            ckpt,
            wall: Instant::now(),
            max_iters: opts.max_iters_for(sf.num_rows(), sf.num_cols()),
            xb: sf.basis0.clone(),
            stats: SolveStats::default(),
            phase: Phase::One,
            phase_tag: 0,
            bland_mode: matches!(opts.pivot_rule, PivotRule::Bland),
            stall: 0,
            iters_here: 0,
            recoveries_left: MAX_CONSECUTIVE_RECOVERIES,
            last_ckpt_iter: 0,
            perturbed: false,
            price_cursor: 0,
            use_bland: false,
            skip_periodic: false,
        }
    }

    #[inline]
    pub(crate) fn span_begin<B: Backend<T>>(&self, be: &B) -> OpenSpan {
        open_span::<R>(be.clock())
    }

    /// Close a span of this lane's own device work: charge the legacy
    /// [`Step`] accounting (always) and report the span to the recorder
    /// (compiled out under [`crate::NoopRecorder`]).
    #[inline]
    pub(crate) fn span_close<B: Backend<T>>(
        &mut self,
        be: &B,
        kind: StepKind,
        step: Step,
        span: OpenSpan,
    ) {
        let (t0, w0) = span;
        let t1 = be.clock();
        let wall = w0.map_or(0.0, |w| w.elapsed().as_secs_f64());
        self.charge(kind, step, t0, t1, t1 - t0, wall);
    }

    /// Charge `dt` to `step` and report the span `[t0, t1]`. A solo span
    /// charges its whole interval; a shared mega stage charges each lane
    /// its fair share.
    pub(crate) fn charge(
        &mut self,
        kind: StepKind,
        step: Step,
        t0: SimTime,
        t1: SimTime,
        dt: SimTime,
        wall: f64,
    ) {
        self.stats.charge(step, dt);
        if R::ENABLED {
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.span(kind, t0, t1, wall, self.stats.iterations, self.phase_tag);
            }
        }
    }

    /// Deadline enforcement (wall clock: the deadline bounds *host*
    /// resources, not modeled device time). Called between backend steps so
    /// a stalled kernel or a long refactorize cannot overshoot `time_limit`
    /// by a whole iteration.
    #[inline]
    pub(crate) fn check_deadline(&self) -> Result<(), SolveError> {
        if let Some(limit) = self.opts.time_limit {
            let elapsed = self.wall.elapsed().as_secs_f64();
            if elapsed > limit {
                return Err(SolveError::Timeout {
                    elapsed_seconds: elapsed,
                    limit_seconds: limit,
                });
            }
        }
        Ok(())
    }

    /// Cold or warm start: try `warm` when offered, snapshot an accepted
    /// install, and enter the first phase.
    ///
    /// A warm basis must have one non-artificial column per row; a
    /// malformed one is rejected before it reaches the backend, and a
    /// singular or primal-infeasible one falls back to the cold start — a
    /// warm start is an optimization, never a correctness risk. Every
    /// offered basis counts as an attempt, so callers can tell a warm solve
    /// from a cold fallback.
    ///
    /// The feasibility probe runs on the host against an unclamped f64 LU
    /// solve of `B x_B = b`. It cannot use the backend's post-`refactorize`
    /// β: refactorization exists to purge accumulated error mid-solve, so
    /// every backend clamps β at zero on that path — which would make a
    /// genuinely infeasible basis (negative true β) look feasible and let
    /// phase 2 "converge" at an infeasible point.
    pub(crate) fn start<B: Backend<T>>(
        &mut self,
        be: &mut B,
        warm: Option<Vec<usize>>,
    ) -> Result<(), SolveError> {
        let warm_ok = match warm {
            Some(basis) => self.try_warm_start(be, basis)?,
            None => false,
        };
        if warm_ok && self.opts.checkpoint_interval > 0 {
            // An accepted warm install is itself a valid resume point
            // (phase 2, zero in-phase iterations): snapshot it so a fault
            // before the first reinversion still resumes warm.
            self.phase = Phase::Two;
            self.store_checkpoint(be);
        }
        let phase = if warm_ok || self.sf.num_artificials == 0 {
            Phase::Two
        } else {
            Phase::One
        };
        self.begin_phase(be, phase)
    }

    /// Install `basis` if it is well formed, primal feasible and
    /// nonsingular; otherwise restore the cold start. A device failure
    /// propagates.
    fn try_warm_start<B: Backend<T>>(
        &mut self,
        be: &mut B,
        basis: Vec<usize>,
    ) -> Result<bool, SolveError> {
        self.stats.warm_start_attempted = 1;
        let n_active = self.sf.num_cols() - self.sf.num_artificials;
        if basis.len() != self.sf.num_rows() || basis.iter().any(|&j| j >= n_active) {
            self.stats.warm_start_rejected = 1;
            return Ok(false);
        }
        let span = self.span_begin(be);
        let feas_tol = self.opts.feas_tol_for::<T>().to_f64();
        let ok = warm_basis_feasible(self.sf, &basis, feas_tol)
            && match be.refactorize(&basis) {
                Ok(()) => true,
                Err(BackendError::Singular) => false,
                Err(e @ BackendError::Device(_)) => return Err(e.into()),
            };
        let basis = if ok {
            basis
        } else {
            // Restore the cold start (the identity basis always refactors).
            match be.refactorize(&self.sf.basis0) {
                Ok(()) => {}
                Err(BackendError::Singular) => {
                    unreachable!("identity start basis is never singular")
                }
                Err(e @ BackendError::Device(_)) => return Err(e.into()),
            }
            self.stats.warm_start_rejected = 1;
            self.sf.basis0.clone()
        };
        self.xb = basis;
        // One span covers the attempt *and* the fallback restore, so the
        // rejected path's device work lands on the ledger exactly once.
        self.span_close(be, StepKind::WarmStart, Step::Other, span);
        Ok(ok)
    }

    /// Reinstall a checkpoint instead of starting: refactorize onto its
    /// basis (the same reinversion the snapshotting run's boundary ran, so
    /// `B⁻¹` and the clamped β come out bitwise-equal to the snapshot
    /// point), reinstall the phase objective exactly as the live
    /// path did, and restore the pricing/anti-cycling state and statistics.
    /// The reinversion is *not* counted in `stats.refactorizations` — the
    /// snapshot already counted the boundary reinversion this one mirrors.
    pub(crate) fn install_checkpoint<B: Backend<T>>(
        &mut self,
        be: &mut B,
        cp: SolveCheckpoint,
    ) -> Result<(), SolveError> {
        // Restore the stats first so the install's device work is charged
        // to the resumed ledger rather than thrown away.
        self.stats = cp.stats;
        self.stats.checkpoint_resumes += 1;
        // Resume on the snapshotting run's representation (it may differ
        // from this driver's options, e.g. evacuating to another backend).
        // The chain is empty at a boundary, so the install is legal here.
        debug_assert_eq!(cp.eta_len, 0, "snapshot taken off a boundary");
        be.set_representation(cp.representation);
        let span = self.span_begin(be);
        match be.refactorize(&cp.basis) {
            Ok(()) => {}
            Err(BackendError::Singular) => {
                return Err(SolveError::Numerical(
                    "checkpoint basis is singular on resume".into(),
                ));
            }
            Err(e @ BackendError::Device(_)) => return Err(e.into()),
        }
        self.xb = cp.basis;
        self.span_close(be, StepKind::WarmStart, Step::Other, span);
        let phase = if cp.phase == 1 {
            Phase::One
        } else {
            Phase::Two
        };
        self.begin_phase(be, phase)?;
        self.bland_mode = cp.bland_mode;
        self.stall = cp.stall;
        self.price_cursor = cp.price_cursor;
        // Re-enter the loop exactly where the snapshot was taken.
        self.iters_here = cp.iters_here;
        self.skip_periodic = true;
        self.last_ckpt_iter = self.stats.iterations;
        Ok(())
    }

    /// Enter `phase`: install its objective, and restart the in-phase
    /// iteration count and the recovery budget.
    ///
    /// The stall counter and any Bland-mode escalation deliberately *carry
    /// across* the phase boundary: a degenerate phase-1 endgame is exactly
    /// the state in which phase 2 would otherwise resume cycling, and the
    /// in-loop de-escalation already returns to the fast rule on the first
    /// non-degenerate step. (An earlier version reset both here, silently
    /// discarding the phase-1 anti-cycling escalation; the regression tests
    /// pin the carry.)
    fn begin_phase<B: Backend<T>>(&mut self, be: &mut B, phase: Phase) -> Result<(), SolveError> {
        self.phase = phase;
        self.install_objective(be)?;
        self.iters_here = 0;
        self.recoveries_left = MAX_CONSECUTIVE_RECOVERIES;
        Ok(())
    }

    /// Install the current phase's exact objective: phase 1 minimizes the
    /// sum of artificials; phase 2 prices columns at their costs over the
    /// basis phase 1 left behind.
    fn install_objective<B: Backend<T>>(&mut self, be: &mut B) -> Result<(), SolveError> {
        let span = self.span_begin(be);
        let cb: Vec<T> = match self.phase {
            Phase::One => {
                let zeros = vec![T::ZERO; be.n_active()];
                be.set_phase_costs(&zeros)?;
                self.xb
                    .iter()
                    .map(|&col| {
                        if self.sf.is_artificial(col) {
                            T::ONE
                        } else {
                            T::ZERO
                        }
                    })
                    .collect()
            }
            Phase::Two => {
                be.set_phase_costs(&self.sf.c)?;
                self.xb.iter().map(|&col| self.cost_of(be, col)).collect()
            }
        };
        be.set_basic_costs(&cb)?;
        self.span_close(be, StepKind::Transfer, Step::Other, span);
        self.phase_tag = self.phase.tag();
        Ok(())
    }

    /// Phase-2 cost of a column (artificials price at zero).
    fn cost_of<B: Backend<T>>(&self, be: &B, col: usize) -> T {
        if col < be.n_active() {
            self.sf.c[col]
        } else {
            T::ZERO
        }
    }

    /// Basic cost the entering column `q` takes under the current phase.
    pub(crate) fn entering_cost<B: Backend<T>>(&self, be: &B, q: usize) -> T {
        match self.phase {
            Phase::One => T::ZERO, // entering columns are never artificial
            Phase::Two => self.cost_of(be, q),
        }
    }

    /// Stage 1 of an iteration: iteration limit, deadline, and periodic
    /// reinversion with the perturbation reset and the checkpoint
    /// cadence. `Go` means price now (under `use_bland`).
    pub(crate) fn admit<B: Backend<T>>(&mut self, be: &mut B) -> Result<Flow<()>, SolveError> {
        if self.iters_here >= self.max_iters {
            return Ok(Flow::End(Status::IterationLimit));
        }
        self.check_deadline()?;
        let skip_periodic = std::mem::take(&mut self.skip_periodic);
        let period = self.opts.refactor_period;
        if !skip_periodic
            && period > 0
            && self.iters_here > 0
            && self.iters_here.is_multiple_of(period)
        {
            if !self.reinvert(be)? {
                return Ok(Flow::End(Status::SingularBasis));
            }
            // Deterministic perturbation reset: exact costs come back at
            // every reinversion boundary, so a snapshot taken below never
            // captures a perturbed objective.
            self.clear_perturbation(be)?;
            // `B⁻¹` is now a pure function of the basis — the one state a
            // snapshot can resume bitwise. Pure observation: the checkpoint
            // cadence never forces an extra reinversion.
            self.maybe_checkpoint(be);
            self.check_deadline()?;
        }
        self.use_bland = self.bland_mode;
        Ok(Flow::Go(()))
    }

    /// Stage 2: react to pricing. `entering` is the selected column and its
    /// reduced cost, or `None` when no column improves. `Go(q)` means run
    /// FTRAN and the ratio test on `q`.
    pub(crate) fn on_price<B: Backend<T>>(
        &mut self,
        be: &mut B,
        entering: Option<(usize, T)>,
    ) -> Result<Flow<usize>, SolveError> {
        let Some((q, dq)) = entering else {
            return self.on_converged(be);
        };
        // Corruption check *before* the improvement assertion: a NaN
        // reduced cost is a repairable fault, not a driver bug.
        if !dq.is_finite() {
            return self.recover_or_fail(be, format_args!("reduced cost d[{q}]"));
        }
        debug_assert!(dq < T::ZERO, "entering column must improve");
        Ok(Flow::Go(q))
    }

    /// No improving column: certify, then either move phase 1 on to phase
    /// 2 or end the solve.
    fn on_converged<B: Backend<T>>(&mut self, be: &mut B) -> Result<Flow<usize>, SolveError> {
        if self.perturbed {
            // "Optimal" against perturbed costs is not a certificate:
            // restore the exact objective and re-price before declaring
            // convergence.
            self.clear_perturbation(be)?;
            return Ok(Flow::Retry);
        }
        let feas_tol = self.opts.feas_tol_for::<T>();
        match self.phase {
            Phase::One => {
                let span = self.span_begin(be);
                let z1 = be.objective_now()?;
                self.span_close(be, StepKind::Transfer, Step::Other, span);
                if z1 > feas_tol {
                    return Ok(Flow::End(Status::Infeasible));
                }
                // Best-effort removal of degenerate artificials from the
                // basis; any that remain sit at value ~0 with phase-2 cost
                // 0 (their rows are linearly dependent) and stay there.
                self.drive_out_artificials(be)?;
                self.begin_phase(be, Phase::Two)?;
                Ok(Flow::Retry)
            }
            Phase::Two => {
                // Guard: if artificials survived phase 2 with non-trivial
                // value, the "redundant row" assumption failed — report
                // infeasible rather than a wrong optimum.
                let mut status = Status::Optimal;
                if self.sf.num_artificials > 0 {
                    let span = self.span_begin(be);
                    let beta = be.beta()?;
                    self.span_close(be, StepKind::Transfer, Step::Other, span);
                    for (r, &col) in self.xb.iter().enumerate() {
                        if self.sf.is_artificial(col) && beta[r] > feas_tol {
                            status = Status::Infeasible;
                            break;
                        }
                    }
                }
                Ok(Flow::End(status))
            }
        }
    }

    /// Stage 3: react to the ratio test for entering column `q`. `Go((p,
    /// θ))` means apply that pivot.
    pub(crate) fn on_ratio<B: Backend<T>>(
        &mut self,
        be: &mut B,
        q: usize,
        mut outcome: RatioOutcome<T>,
    ) -> Result<Flow<(usize, T)>, SolveError> {
        let paranoid = self.opts.faults.is_some();
        if paranoid && matches!(outcome, RatioOutcome::Unbounded) && self.recoveries_left > 0 {
            // A corrupted α (poisoned to NaN) makes every ratio non-finite
            // and masquerades as unboundedness. Rebuild and retest once
            // before believing it.
            self.recoveries_left -= 1;
            if !self.recover(be)? {
                return Ok(Flow::End(Status::SingularBasis));
            }
            let span = self.span_begin(be);
            be.compute_alpha(q)?;
            self.span_close(be, StepKind::Ftran, Step::Ftran, span);
            let span = self.span_begin(be);
            outcome = be.ratio_test(self.opts.pivot_tol_for::<T>())?;
            self.span_close(be, StepKind::RatioTest, Step::RatioTest, span);
            self.check_deadline()?;
        }
        match outcome {
            RatioOutcome::Unbounded => {
                if self.perturbed {
                    // The ray was found for a column priced under perturbed
                    // costs; certify against the exact objective before
                    // declaring unboundedness.
                    self.clear_perturbation(be)?;
                    return Ok(Flow::Retry);
                }
                // A bounded-below phase-1 objective cannot be unbounded;
                // reaching this means the numerics collapsed.
                Ok(Flow::End(match self.phase {
                    Phase::One => Status::SingularBasis,
                    Phase::Two => Status::Unbounded,
                }))
            }
            RatioOutcome::Pivot { theta, .. } if !theta.is_finite() => {
                self.recover_or_fail(be, format_args!("step length"))
            }
            RatioOutcome::Pivot { p, theta } => Ok(Flow::Go((p, theta))),
        }
    }

    /// Stage 4: host bookkeeping for a pivot the driver just applied on the
    /// device (`q` entered at row `p` with step `theta`).
    pub(crate) fn on_pivot<B: Backend<T>>(
        &mut self,
        be: &mut B,
        p: usize,
        q: usize,
        theta: T,
    ) -> Result<(), SolveError> {
        let pidx = self.phase.index();
        self.xb[p] = q;
        self.stats
            .record_pivot(self.stats.iterations, pidx, q, p, theta.to_f64());
        self.recoveries_left = MAX_CONSECUTIVE_RECOVERIES;

        // Degeneracy / stall bookkeeping. Each counter bumps its solve-wide
        // total and exactly one per-phase entry, keeping the phase split
        // disjoint by construction.
        let has_fallback = matches!(
            self.opts.pivot_rule,
            PivotRule::Hybrid | PivotRule::PartialDantzig { .. }
        );
        let degenerate = !(theta > T::ZERO);
        if degenerate {
            self.stats.degenerate_steps += 1;
            self.stats.phase[pidx].degenerate_steps += 1;
            self.stall += 1;
        } else {
            self.stall = 0;
            if has_fallback && self.bland_mode {
                // Progress resumed: go back to the fast rule.
                self.bland_mode = false;
            }
        }
        let stalled = self.stall >= self.opts.stall_threshold;
        match self.opts.degeneracy {
            DegeneracyPolicy::BlandFallback => {
                // Legacy ladder: stall straight into Bland's rule.
                if has_fallback && stalled {
                    self.bland_mode = true;
                }
            }
            DegeneracyPolicy::Perturb { scale } => {
                // Principled ladder: perturb first (cheap, keeps the fast
                // pricing rule), escalate to Bland only if the stall
                // outlives a full perturbed window.
                if stalled {
                    if !self.perturbed {
                        self.apply_perturbation(be, scale)?;
                        self.stall = 0;
                    } else {
                        self.bland_mode = true;
                    }
                }
            }
        }
        if self.use_bland {
            self.stats.bland_iterations += 1;
            self.stats.phase[pidx].bland_iterations += 1;
        }

        if be.representation() == BasisRepresentation::SparseLU {
            self.stats.eta_pivots += 1;
            self.stats.max_eta_chain = self.stats.max_eta_chain.max(be.eta_chain_len());
        }
        self.harvest_lu_stats(be);
        self.stats.iterations += 1;
        self.stats.phase[pidx].iterations += 1;
        if self.phase == Phase::One {
            self.stats.phase1_iterations += 1;
        }
        if let Some(slot) = self.ckpt {
            slot.note_iteration(self.stats.iterations);
        }
        self.iters_here += 1;
        Ok(())
    }

    /// Terminate: download β, scatter the basic solution, close the books.
    /// `None` means the terminal point was corrupted and an emergency
    /// reinversion repaired the iterate: the driver resumes its loop at
    /// [`SimplexLane::admit`].
    pub(crate) fn finish<B: Backend<T>>(
        &mut self,
        be: &mut B,
        status: Status,
    ) -> Result<Option<StdResult<T>>, SolveError> {
        // The terminal β download is device work like any other: charge it,
        // so the per-step totals account for the whole solve.
        let span = self.span_begin(be);
        let beta = be.beta()?;
        self.span_close(be, StepKind::Transfer, Step::Other, span);
        let mut x_std = vec![T::ZERO; self.sf.num_cols()];
        for (r, &col) in self.xb.iter().enumerate() {
            x_std[col] = beta[r];
        }
        let z_std: f64 = self
            .sf
            .c
            .iter()
            .zip(&x_std)
            .map(|(&cj, &xj)| cj.to_f64() * xj.to_f64())
            .sum();
        // Paranoid terminal validation under fault injection: a corrupted
        // iterate can slip past pricing (NaN compares false everywhere, so
        // a poisoned reduced-cost vector looks "converged"). Never certify
        // such a point as a mathematical outcome: rebuild the basis and
        // resume while the recovery budget lasts.
        if self.opts.faults.is_some()
            && matches!(status, Status::Optimal | Status::Unbounded)
            && (!z_std.is_finite() || x_std.iter().any(|x| !x.is_finite()))
        {
            if self.recoveries_left == 0 {
                return Err(SolveError::Numerical(
                    "terminal solution contains non-finite values (undetected corruption)".into(),
                ));
            }
            self.recoveries_left -= 1;
            if self.recover(be)? {
                return Ok(None);
            }
            return self.finish(be, Status::SingularBasis);
        }
        self.stats.wall_seconds = self.wall.elapsed().as_secs_f64();
        debug_assert!(
            self.stats.check_invariants().is_ok(),
            "per-phase counters must partition the totals: {:?}",
            self.stats.check_invariants()
        );
        Ok(Some(StdResult {
            status,
            x_std,
            z_std,
            basis: std::mem::take(&mut self.xb),
            stats: std::mem::take(&mut self.stats),
        }))
    }

    /// Refactorize onto the current basis. `Ok(false)` means the basis is
    /// singular.
    fn reinvert<B: Backend<T>>(&mut self, be: &mut B) -> Result<bool, SolveError> {
        let span = self.span_begin(be);
        match be.refactorize(&self.xb) {
            Ok(()) => {}
            Err(BackendError::Singular) => return Ok(false),
            Err(e @ BackendError::Device(_)) => return Err(e.into()),
        }
        self.stats.refactorizations += 1;
        self.harvest_lu_stats(be);
        self.span_close(be, StepKind::Refactorize, Step::Refactor, span);
        Ok(true)
    }

    /// Emergency reinversion after detected corruption. `Ok(true)` means
    /// the basis was rebuilt (iterate state is clean again); `Ok(false)`
    /// means the basis is singular.
    pub(crate) fn recover<B: Backend<T>>(&mut self, be: &mut B) -> Result<bool, SolveError> {
        if !self.reinvert(be)? {
            return Ok(false);
        }
        self.stats.nan_recoveries += 1;
        // The stall streak was measured against the corrupted iterate; the
        // rebuilt basis starts a fresh streak. (Leaving it hot leaked a
        // premature Bland escalation into the repaired walk.)
        self.stall = 0;
        Ok(true)
    }

    /// A non-finite iterate (`what`) was detected: spend a recovery and
    /// retry, or fail once the consecutive budget is gone.
    fn recover_or_fail<B: Backend<T>, X>(
        &mut self,
        be: &mut B,
        what: std::fmt::Arguments<'_>,
    ) -> Result<Flow<X>, SolveError> {
        if self.recoveries_left == 0 {
            return Err(SolveError::Numerical(format!(
                "{what} stayed non-finite after \
                 {MAX_CONSECUTIVE_RECOVERIES} emergency reinversions"
            )));
        }
        self.recoveries_left -= 1;
        Ok(if self.recover(be)? {
            Flow::Retry
        } else {
            Flow::End(Status::SingularBasis)
        })
    }

    /// Store a snapshot of the current state into the attached slot.
    /// Callers guarantee the backend sits at a refactorization boundary
    /// (`B⁻¹` is a pure function of `xb`), the precondition for a bitwise
    /// resume. The snapshot's own count is folded in *before* cloning the
    /// stats so a resumed run's final counters match the solo run's.
    fn store_checkpoint<B: Backend<T>>(&mut self, be: &B) {
        let Some(slot) = self.ckpt else { return };
        let eta_len = be.eta_chain_len();
        debug_assert_eq!(
            eta_len, 0,
            "checkpoints are only taken at refactorization boundaries, \
             where the eta chain has been folded into B₀⁻¹"
        );
        self.stats.checkpoints_taken += 1;
        slot.store(SolveCheckpoint {
            basis: self.xb.clone(),
            phase: self.phase.tag(),
            iters_here: self.iters_here,
            stats: self.stats.clone(),
            bland_mode: self.bland_mode,
            stall: self.stall,
            price_cursor: self.price_cursor,
            representation: be.representation(),
            eta_len,
        });
        self.last_ckpt_iter = self.stats.iterations;
    }

    /// Checkpoint hook at a periodic-reinversion boundary: snapshot when a
    /// slot is attached and at least `checkpoint_interval` iterations have
    /// passed since the previous snapshot.
    fn maybe_checkpoint<B: Backend<T>>(&mut self, be: &B) {
        let interval = self.opts.checkpoint_interval;
        if self.ckpt.is_some()
            && interval > 0
            && self.stats.iterations - self.last_ckpt_iter >= interval
        {
            self.store_checkpoint(be);
        }
    }

    /// Install the bounded, deterministic cost perturbation: each active
    /// column's phase cost gets `+ scale · jitter(j)` with jitter in
    /// `[0.5, 1.5)`. The shifted reduced costs reorder Dantzig selection,
    /// which is what breaks a degenerate cycle; the exact objective is
    /// restored at the next reinversion boundary (and always before
    /// optimality is declared), so the terminal certificate is exact.
    fn apply_perturbation<B: Backend<T>>(
        &mut self,
        be: &mut B,
        scale: f64,
    ) -> Result<(), SolveError> {
        let span = self.span_begin(be);
        let n = be.n_active();
        let mut pert = vec![T::ZERO; n];
        for (j, pj) in pert.iter_mut().enumerate() {
            let base = match self.phase {
                Phase::One => T::ZERO,
                Phase::Two => self.sf.c[j],
            };
            *pj = base + T::from_f64(scale * column_jitter(j));
        }
        be.set_phase_costs(&pert)?;
        let cb: Vec<T> = self
            .xb
            .iter()
            .map(|&col| {
                if col < n {
                    pert[col]
                } else if self.phase == Phase::One {
                    T::ONE // artificial under the phase-1 objective
                } else {
                    T::ZERO
                }
            })
            .collect();
        be.set_basic_costs(&cb)?;
        self.perturbed = true;
        self.stats.perturbations += 1;
        self.span_close(be, StepKind::Transfer, Step::Other, span);
        Ok(())
    }

    /// Remove the perturbation by reinstalling the exact phase objective.
    /// No-op when none is active.
    fn clear_perturbation<B: Backend<T>>(&mut self, be: &mut B) -> Result<(), SolveError> {
        if !self.perturbed {
            return Ok(());
        }
        self.perturbed = false;
        self.install_objective(be)
    }

    /// Copy the backend's sparse-LU counters (peak fill-in, peak factor
    /// size, cumulative threshold rejections) into the solve stats. No-op
    /// for backends/representations without an LU engine.
    fn harvest_lu_stats<B: Backend<T>>(&mut self, be: &B) {
        if let Some(r) = be.lu_stats() {
            self.stats.lu_fill_in = r.fill_in;
            self.stats.lu_refactor_nnz = r.refactor_nnz;
            self.stats.markowitz_rejections = r.markowitz_rejections;
        }
    }

    /// Degenerate phase-1 cleanup: for each basic artificial, try to swap in
    /// a nonbasic structural column with a nonzero entry in that row.
    fn drive_out_artificials<B: Backend<T>>(&mut self, be: &mut B) -> Result<(), SolveError> {
        let pivot_tol = self.opts.pivot_tol_for::<T>();
        let span = self.span_begin(be);
        let m = be.m();
        let n_active = be.n_active();
        let rows: Vec<usize> = (0..m)
            .filter(|&r| self.sf.is_artificial(self.xb[r]))
            .collect();
        for r in rows {
            let mut basic = vec![false; n_active];
            for &col in &self.xb {
                if col < n_active {
                    basic[col] = true;
                }
            }
            for q in 0..n_active {
                if basic[q] {
                    continue;
                }
                be.compute_alpha(q)?;
                if be.alpha_at(r)?.abs() > pivot_tol {
                    // Degenerate pivot: θ = 0 keeps β unchanged, the basis
                    // swap is what we're after.
                    be.pivot(r, q, T::ZERO, T::ZERO)?;
                    self.xb[r] = q;
                    break;
                }
            }
        }
        self.span_close(be, StepKind::Transfer, Step::Other, span);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::CpuDenseBackend;
    use crate::trace::NoopRecorder;
    use lp::{LinearProgram, Rel, Sense};

    /// Degenerate two-phase fixture: the ≥ row rules out the slack basis
    /// (forcing a phase 1 with artificials) and three rows meet at the
    /// optimum (2, 2), so the endgame pivots are degenerate.
    fn degenerate_sf() -> StandardForm<f64> {
        let mut lp = LinearProgram::new("two-phase-degenerate").with_sense(Sense::Max);
        let x = lp.add_var_nonneg("x", 1.0);
        let y = lp.add_var_nonneg("y", 1.0);
        lp.add_constraint("c1", &[(x, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c2", &[(y, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c3", &[(x, 1.0), (y, 1.0)], Rel::Le, 4.0);
        lp.add_constraint("c4", &[(x, 1.0), (y, 1.0)], Rel::Ge, 1.0);
        StandardForm::<f64>::from_lp(&lp).unwrap()
    }

    fn cpu_backend(sf: &StandardForm<f64>) -> CpuDenseBackend<f64> {
        let n_active = sf.num_cols() - sf.num_artificials;
        CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0)
    }

    /// Satellite regression: a Bland escalation (and a live stall counter)
    /// earned in phase 1 must survive the phase-2 objective install. The
    /// pre-fix code reset both from the pivot rule at the phase boundary.
    #[test]
    fn phase2_entry_preserves_anti_cycling_state() {
        let sf = degenerate_sf();
        let opts = SolverOptions::default();
        let mut be = cpu_backend(&sf);
        let mut lane = SimplexLane::<f64, NoopRecorder>::new(&sf, &opts, None, None);

        // Simulate a phase-1 endgame that escalated to Bland with a hot
        // stall counter.
        lane.bland_mode = true;
        lane.stall = 7;
        lane.begin_phase(&mut be, Phase::Two).unwrap();
        assert!(
            lane.bland_mode,
            "phase-2 entry must not discard the Bland escalation"
        );
        assert_eq!(
            lane.stall, 7,
            "phase-2 entry must not reset the stall counter"
        );
        assert_eq!(lane.phase_tag, 2);
    }

    /// Satellite regression (failing pre-fix): an emergency reinversion
    /// rebuilds the iterate from scratch, so the stall streak measured
    /// against the corrupted state must not survive it. The pre-fix
    /// `recover()` left the counter hot, leaking a premature Bland
    /// escalation into the repaired walk.
    #[test]
    fn emergency_reinversion_resets_stall_counter() {
        let sf = degenerate_sf();
        let opts = SolverOptions::default();
        let mut be = cpu_backend(&sf);
        let mut lane = SimplexLane::<f64, NoopRecorder>::new(&sf, &opts, None, None);
        lane.stall = 9;
        assert!(lane.recover(&mut be).unwrap(), "identity basis refactors");
        assert_eq!(
            lane.stall, 0,
            "corruption-triggered reinversion must reset the stall streak"
        );
        assert_eq!(lane.stats.nan_recoveries, 1);
    }
}
