//! The two-phase revised simplex driver.
//!
//! The driver runs one solve's backend calls — pricing (full or partial),
//! FTRAN, ratio test and update — and leaves every host decision to a
//! `SimplexLane`: basis bookkeeping, phase logic, the Dantzig→Bland stall
//! fallback and the other degeneracy ladders, periodic refactorization,
//! checkpoints and termination. The mega-batch driver runs the same lane
//! transitions for each member of a lockstep family. Time is sampled from
//! the backend's modeled clock around every step, producing the per-step
//! breakdown of experiment F2 for CPU and GPU uniformly.
//!
//! Observability: the driver is generic over a [`Recorder`]. Every backend
//! call is bracketed in a span carrying the step kind, the simulated
//! interval, the host wall time, and the iteration/phase position. The
//! default [`NoopRecorder`] advertises `ENABLED = false`, so on the default
//! path the extra work (including the host-clock reads) is folded away at
//! monomorphization — the legacy [`Step`] accounting is unconditional and
//! byte-identical to what it always was.
//!
//! Fallibility: [`RevisedSimplex::try_solve`] surfaces device failures,
//! deadline overruns and unrecoverable numerical collapse as
//! [`SolveError`]s instead of panicking, and repairs transient NaN/Inf
//! corruption (e.g. an injected kernel corruption) with emergency
//! reinversions — the same machinery periodic refactorization already
//! uses — up to a small consecutive budget per phase.

use linalg::Scalar;
use lp::StandardForm;

use crate::backend::Backend;
use crate::checkpoint::CheckpointSlot;
use crate::error::SolveError;
use crate::options::{PivotRule, SolverOptions};
use crate::result::{Status, StdResult};
use crate::simplex_lane::{Flow, SimplexLane};
use crate::solver::Start;
use crate::stats::Step;
use crate::trace::{NoopRecorder, Recorder, StepKind};

/// Two-phase revised simplex over an abstract backend.
pub struct RevisedSimplex<'a, T: Scalar, B: Backend<T>, R: Recorder = NoopRecorder> {
    backend: &'a mut B,
    lane: SimplexLane<'a, T, R>,
    start: Start,
}

impl<'a, T: Scalar, B: Backend<T>, R: Recorder> RevisedSimplex<'a, T, B, R> {
    /// Create a driver. The backend must have been constructed from the
    /// same standard form (`sf.a`, `sf.b`, `sf.basis0`). The solve begins
    /// at `start` (see [`Start`]). With a `slot`, the driver stores a
    /// [`crate::SolveCheckpoint`] into it at every refactorization boundary
    /// at least `opts.checkpoint_interval` iterations past the previous
    /// snapshot (0 disables) and reports per-iteration progress, so the
    /// recovery layer can account wasted work after a fault. Spans go to
    /// `rec`; the caller keeps the recorder, so a solve that errors out
    /// leaves its partial trace available for post-mortem.
    pub fn new(
        backend: &'a mut B,
        sf: &'a StandardForm<T>,
        opts: &'a SolverOptions,
        start: Start,
        slot: Option<&'a CheckpointSlot>,
        rec: Option<&'a mut R>,
    ) -> Self {
        // The representation must be chosen before the first pivot; a
        // resumed start then switches to the snapshotting run's own.
        backend.set_representation(opts.basis_representation);
        RevisedSimplex {
            backend,
            lane: SimplexLane::new(sf, opts, rec, slot),
            start,
        }
    }

    /// Run to completion, panicking on device failure (the historical
    /// contract; fault-free configurations never take that path).
    pub fn solve(self) -> StdResult<T> {
        self.try_solve().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion, surfacing machinery failures as [`SolveError`]s.
    /// Mathematical outcomes (optimal/infeasible/unbounded/limits) are
    /// `Ok` with the corresponding [`Status`].
    pub fn try_solve(mut self) -> Result<StdResult<T>, SolveError> {
        let status = self.run()?;
        self.lane.finish(self.backend, status)
    }

    /// Start (resumed, warm or cold) and iterate until the lane reaches a
    /// terminal status.
    fn run(&mut self) -> Result<Status, SolveError> {
        match std::mem::take(&mut self.start) {
            Start::Resume(cp) => self.lane.install_checkpoint(self.backend, *cp)?,
            Start::Warm(basis) => self.lane.start(self.backend, Some(basis))?,
            Start::Cold => self.lane.start(self.backend, None)?,
        }
        let pivot_tol = self.lane.opts.pivot_tol_for::<T>();
        loop {
            if let Flow::End(status) = self.lane.admit(self.backend)? {
                return Ok(status);
            }

            // Pricing + entering-variable selection.
            let entering = self.price_and_select()?;
            self.lane.check_deadline()?;
            let q = match self.lane.on_price(self.backend, entering)? {
                Flow::Go(q) => q,
                Flow::Retry => continue,
                Flow::End(status) => return Ok(status),
            };

            // FTRAN.
            let span = self.lane.span_begin(self.backend);
            self.backend.compute_alpha(q)?;
            self.lane
                .span_close(self.backend, StepKind::Ftran, Step::Ftran, span);
            self.lane.check_deadline()?;

            // Ratio test.
            let span = self.lane.span_begin(self.backend);
            let outcome = self.backend.ratio_test(pivot_tol)?;
            self.lane
                .span_close(self.backend, StepKind::RatioTest, Step::RatioTest, span);
            self.lane.check_deadline()?;
            let (p, theta) = match self.lane.on_ratio(self.backend, q, outcome)? {
                Flow::Go(pivot) => pivot,
                Flow::Retry => continue,
                Flow::End(status) => return Ok(status),
            };

            // Update.
            let span = self.lane.span_begin(self.backend);
            self.backend.update(p, theta)?;
            self.backend.set_basic_col(p, q)?;
            let cost = self.lane.entering_cost(self.backend, q);
            self.backend.set_basic_cost(p, cost)?;
            self.lane
                .span_close(self.backend, StepKind::UpdateBasis, Step::Update, span);
            self.lane.check_deadline()?;
            self.lane.on_pivot(self.backend, p, q, theta)?;
        }
    }

    /// Price and select the entering variable under the active rule.
    ///
    /// Full rules (Dantzig/Bland/Hybrid, or any rule in Bland fallback mode)
    /// price every active column. Partial pricing walks `window`-sized
    /// column blocks from a rotating cursor and takes the first block that
    /// yields a candidate; optimality is declared only after a full pass
    /// comes up dry (each block's reduced costs are recomputed against the
    /// current basis, so the certificate is sound).
    ///
    /// BTRAN runs before every pricing window — the multipliers must be
    /// current against the basis — and is traced as its own span; the
    /// selection scan is folded into the pricing step it serves.
    fn price_and_select(&mut self) -> Result<Option<(usize, T)>, SolveError> {
        let opt_tol = self.lane.opts.opt_tol_for::<T>();
        let use_bland = self.lane.use_bland;
        let be = &mut *self.backend;
        let lane = &mut self.lane;
        let n = be.n_active();
        let window = match lane.opts.pivot_rule {
            PivotRule::PartialDantzig { window } if !use_bland && n > 0 => Some(window.clamp(1, n)),
            _ => None,
        };
        match window {
            Some(w) if w < n => {
                let mut scanned = 0;
                while scanned < n {
                    let start = lane.price_cursor % n;
                    let len = w.min(n - start);
                    let span = lane.span_begin(be);
                    be.compute_btran()?;
                    lane.span_close(be, StepKind::Btran, Step::Pricing, span);
                    let span = lane.span_begin(be);
                    be.compute_pricing_window(start, len)?;
                    lane.span_close(be, StepKind::Pricing, Step::Pricing, span);

                    let span = lane.span_begin(be);
                    let hit = be.entering_dantzig_window(opt_tol, start, len)?;
                    lane.span_close(be, StepKind::Pricing, Step::Selection, span);
                    if hit.is_some() {
                        // Stay on this window: it likely has more candidates.
                        return Ok(hit);
                    }
                    lane.price_cursor = (start + len) % n;
                    scanned += len;
                }
                Ok(None)
            }
            _ => {
                let span = lane.span_begin(be);
                be.compute_btran()?;
                lane.span_close(be, StepKind::Btran, Step::Pricing, span);
                let span = lane.span_begin(be);
                be.compute_pricing_window(0, n)?;
                lane.span_close(be, StepKind::Pricing, Step::Pricing, span);

                let span = lane.span_begin(be);
                let entering = if use_bland {
                    be.entering_bland(opt_tol)?
                } else {
                    be.entering_dantzig(opt_tol)?
                };
                lane.span_close(be, StepKind::Pricing, Step::Selection, span);
                Ok(entering)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::CpuDenseBackend;
    use lp::{LinearProgram, Rel, Sense, StandardForm};

    /// Degenerate two-phase fixture: the ≥ row rules out the slack basis
    /// (forcing a phase 1 with artificials) and three rows meet at the
    /// optimum (2, 2), so the endgame pivots are degenerate.
    fn degenerate_lp() -> LinearProgram {
        let mut lp = LinearProgram::new("two-phase-degenerate").with_sense(Sense::Max);
        let x = lp.add_var_nonneg("x", 1.0);
        let y = lp.add_var_nonneg("y", 1.0);
        lp.add_constraint("c1", &[(x, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c2", &[(y, 1.0)], Rel::Le, 2.0);
        lp.add_constraint("c3", &[(x, 1.0), (y, 1.0)], Rel::Le, 4.0);
        lp.add_constraint("c4", &[(x, 1.0), (y, 1.0)], Rel::Ge, 1.0);
        lp
    }

    /// The perturbation policy terminates at the same optimum as the Bland
    /// ladder on a degenerate two-phase instance, with the exact objective
    /// restored before the certificate.
    #[test]
    fn perturbation_policy_matches_bland_ladder_optimum() {
        let lp = degenerate_lp();
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        let n_active = sf.num_cols() - sf.num_artificials;

        let baseline = {
            let opts = SolverOptions {
                stall_threshold: 1,
                ..SolverOptions::default()
            };
            let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
            RevisedSimplex::new(
                &mut be,
                &sf,
                &opts,
                Start::Cold,
                None,
                None::<&mut NoopRecorder>,
            )
            .try_solve()
            .unwrap()
        };
        let perturbed = {
            let opts = SolverOptions {
                stall_threshold: 1,
                degeneracy: crate::options::DegeneracyPolicy::Perturb { scale: 1e-7 },
                ..SolverOptions::default()
            };
            let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
            RevisedSimplex::new(
                &mut be,
                &sf,
                &opts,
                Start::Cold,
                None,
                None::<&mut NoopRecorder>,
            )
            .try_solve()
            .unwrap()
        };
        assert_eq!(baseline.status, Status::Optimal);
        assert_eq!(perturbed.status, Status::Optimal);
        assert!(
            (baseline.z_std - perturbed.z_std).abs() < 1e-9,
            "{} vs {}",
            baseline.z_std,
            perturbed.z_std
        );
        perturbed.stats.check_invariants().unwrap();
    }

    /// The carry does not hurt termination or correctness on a degenerate
    /// two-phase instance with a hair-trigger stall threshold.
    #[test]
    fn degenerate_two_phase_solve_stays_optimal_with_carry() {
        let lp = degenerate_lp();
        let sf = StandardForm::<f64>::from_lp(&lp).unwrap();
        let opts = SolverOptions {
            stall_threshold: 1,
            ..SolverOptions::default()
        };
        let n_active = sf.num_cols() - sf.num_artificials;
        let mut be = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
        let res = RevisedSimplex::new(
            &mut be,
            &sf,
            &opts,
            Start::Cold,
            None,
            None::<&mut NoopRecorder>,
        )
        .try_solve()
        .unwrap();
        assert_eq!(res.status, Status::Optimal);
        res.stats.check_invariants().unwrap();
        assert!(res.stats.phase1_iterations > 0, "fixture needs a phase 1");
        assert_eq!(
            res.stats.iterations,
            res.stats.phase1_iterations + res.stats.phase2_iterations()
        );
    }
}
