//! Lockstep mega-batch driver: one [`BatchKernelBackend`] family advanced
//! one simplex iteration per *round*, every live lane together.
//!
//! Structure of a round (four kernel chains for the whole family, versus
//! four-plus launches *per member* on the stream-per-job path):
//!
//! 1. admit each live lane — iteration limit, periodic reinversion and
//!    checkpoint cadence — and assemble the control mask (`CTL_ACTIVE` |
//!    `CTL_BLAND`);
//! 2. `mega_price` — fused BTRAN + reduced costs + entering selection for
//!    every active lane, one launch, then one download of `(q, d_q)`;
//! 3. per-lane pricing transitions — converged lanes leave the block (phase-1
//!    convergence runs the feasibility check, artificial drive-out and
//!    phase-2 cost install through that lane's [`LaneView`]); corrupted
//!    lanes run an emergency reinversion and sit the round out;
//! 4. `mega_ftran` + `mega_ratio` for the pivoting lanes, one launch each,
//!    then each lane's ratio transition;
//! 5. `mega_update` — fused `B⁻¹`/β pivot + basis bookkeeping, one launch,
//!    then each lane's pivot bookkeeping.
//!
//! Finished lanes idle without desynchronizing the block: their `ctl` bit is
//! clear, so the batched kernels skip them (and the per-round idle count
//! lands in the device's `batch_rounds` counters).
//!
//! **Parity.** Each lane executes the CPU dense backend's arithmetic in the
//! same serial order as a solo [`crate::RevisedSimplex`] drive — the batched
//! kernels replicate it per lane — and every host decision is made by the
//! same `SimplexLane` transitions the solo driver calls, run here on the
//! lane's [`LaneView`]. `tests/mega_batch.rs` pins every member's status,
//! basis, objective bits, pivot fingerprint and counters to the solo
//! `cpu-dense` solve.
//!
//! **Accounting.** Per-lane irregular work is charged to that lane alone.
//! Shared rounds are charged *fair-share*: the round stage's simulated
//! interval divides evenly over the lanes that participated, so idle and
//! finished members stop accruing step time — `StepTimings` per lane then
//! sums to (approximately) the device interval without double counting.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::{Gpu, SimTime};
use linalg::gpu::{CTL_ACTIVE, CTL_BLAND};
use linalg::Scalar;
use lp::StandardForm;

use crate::backend::RatioOutcome;
use crate::backends::{BatchKernelBackend, BatchMember, LaneView};
use crate::checkpoint::{CheckpointSlot, SolveCheckpoint};
use crate::error::SolveError;
use crate::options::{BasisRepresentation, DegeneracyPolicy, PivotRule, SolverOptions};
use crate::result::StdResult;
use crate::simplex_lane::{open_span, Flow, OpenSpan, SimplexLane};
use crate::stats::Step;
use crate::trace::{Recorder, StepKind};

/// Whether this option set can run on the lockstep mega path at all. The
/// accept set is exactly: no time limit, no partial pricing, the explicit
/// inverse, and the Bland-fallback degeneracy policy. Everything else runs
/// stream-per-job, and incompatible batches do exactly that:
///
/// * a wall-clock deadline needs the per-solve timeout machinery of the
///   stream path;
/// * [`PivotRule::PartialDantzig`] rotates a per-solve pricing cursor, while
///   the fused pricing kernel prices every column of every lane;
/// * the SoA kernels maintain one explicit per-lane `B⁻¹`, so neither
///   [`BasisRepresentation::ProductForm`] nor
///   [`BasisRepresentation::SparseLU`] has a per-lane eta file or factor to
///   update;
/// * the batched kernels' control mask carries only the Bland escalation:
///   [`DegeneracyPolicy::BoundShift`] needs a shifted ratio test the
///   batched ratio kernel does not have, and the per-lane cost re-installs
///   of [`DegeneracyPolicy::Perturb`] are not covered by the parity suite.
///
/// Fault injection *is* in scope: a mid-round device fault evacuates the
/// live lanes as checkpointed stream-per-job resumes (see
/// [`LaneOutcome::Evacuated`]).
pub fn mega_compatible(opts: &SolverOptions) -> bool {
    opts.time_limit.is_none()
        && !matches!(opts.pivot_rule, PivotRule::PartialDantzig { .. })
        && opts.basis_representation == BasisRepresentation::ExplicitInverse
        && matches!(opts.degeneracy, DegeneracyPolicy::BlandFallback)
}

/// Terminal state of one lane after a mega family run that may have been
/// interrupted by a device fault.
pub enum LaneOutcome<T: Scalar> {
    /// The lane drained normally (solved, or failed on its own terms).
    Done(Result<Box<StdResult<T>>, SolveError>),
    /// A mid-round device fault stopped the family before this lane
    /// converged. The lane carries its latest checkpoint so the caller can
    /// re-dispatch it as a *resumed* stream-per-job solve — salvage, never
    /// an error. `checkpoint` is `None` when the fault struck before the
    /// first snapshot (the re-dispatch then restarts from scratch).
    Evacuated {
        /// Latest snapshot taken at a reinversion boundary, if any.
        checkpoint: Option<Box<SolveCheckpoint>>,
        /// Solve-wide iterations this lane had completed when the fault
        /// struck (for wasted-work accounting).
        died_at_iteration: usize,
    },
}

/// What a mega family run produced: one [`LaneOutcome`] per member (order
/// preserved), plus the device fault that interrupted the family when an
/// evacuation occurred.
pub struct MegaFamilyRun<T: Scalar> {
    /// Per-member outcomes, order preserved.
    pub lanes: Vec<LaneOutcome<T>>,
    /// The device fault that triggered lane evacuation (`None` = the run
    /// drained cleanly and every lane is [`LaneOutcome::Done`]).
    pub fault: Option<SolveError>,
}

/// Solve a same-shape family in lockstep on `gpu`. `warm[b]` optionally
/// seeds lane `b` with a basis candidate (same validation and cold-fallback
/// semantics as [`crate::Start::Warm`]); `recs[b]`,
/// when given, receives lane `b`'s spans — fair-share for the shared round
/// stages, solo for that lane's irregular work.
///
/// A lane that collapses numerically or panics fails alone. A mid-round
/// device fault does not discard the family: lanes that already drained
/// keep their outcomes, and lanes still in flight come back as
/// [`LaneOutcome::Evacuated`] carrying their latest reinversion-boundary
/// checkpoint, ready for a resumed stream-per-job re-dispatch. The outer
/// error is reserved for failures *before* any lane state exists (family
/// upload / backend construction), where whole-group stream fallback is the
/// right recovery.
pub fn try_solve_family_mega<T: Scalar, R: Recorder>(
    gpu: &Gpu,
    sfs: &[&StandardForm<T>],
    opts: &SolverOptions,
    warm: Vec<Option<Vec<usize>>>,
    recs: Option<&mut [R]>,
) -> Result<MegaFamilyRun<T>, SolveError> {
    assert_eq!(warm.len(), sfs.len(), "one warm slot per member");
    // Every lane always checkpoints: its slot is what an evacuation
    // carries out.
    let slots: Vec<CheckpointSlot> = sfs.iter().map(|_| CheckpointSlot::new()).collect();
    let mut driver = MegaDriver::new(gpu, sfs, opts, recs, &slots)?;
    let fault = match driver.init(warm).and_then(|()| driver.run()) {
        Ok(()) => None,
        // Lane evacuation: a device fault mid-run loses no completed work.
        // Drained lanes keep their outcomes; live lanes leave with their
        // latest checkpoint for a resumed stream-per-job solve.
        Err(fault @ SolveError::Device(_)) => Some(fault),
        Err(e) => return Err(e),
    };
    let lanes = driver
        .outcomes
        .into_iter()
        .zip(&driver.lanes)
        .zip(&slots)
        .map(|((outcome, lane), slot)| match outcome {
            Some(r) => LaneOutcome::Done(r.map(Box::new)),
            None => LaneOutcome::Evacuated {
                checkpoint: slot.checkpoint().map(Box::new),
                died_at_iteration: lane.stats.iterations,
            },
        })
        .collect();
    Ok(MegaFamilyRun { lanes, fault })
}

struct MegaDriver<'a, 'g, T: Scalar, R: Recorder> {
    be: BatchKernelBackend<'g, T>,
    lanes: Vec<SimplexLane<'a, T, R>>,
    /// Each lane's terminal result; `None` while the lane is live.
    outcomes: Vec<Option<Result<StdResult<T>, SolveError>>>,
}

impl<'a, 'g, T: Scalar, R: Recorder> MegaDriver<'a, 'g, T, R> {
    /// Upload the family and set up one lane per member, checkpointing
    /// into `slots[b]`.
    fn new(
        gpu: &'g Gpu,
        sfs: &[&'a StandardForm<T>],
        opts: &'a SolverOptions,
        recs: Option<&'a mut [R]>,
        slots: &'a [CheckpointSlot],
    ) -> Result<Self, SolveError> {
        assert!(!sfs.is_empty(), "empty mega family");
        assert!(
            mega_compatible(opts),
            "options are out of mega scope (caller must fall back to stream-per-job)"
        );
        let n_active = sfs[0].num_cols() - sfs[0].num_artificials;
        let members: Vec<BatchMember<'_, T>> = sfs
            .iter()
            .map(|sf| {
                assert_eq!(
                    sf.num_cols() - sf.num_artificials,
                    n_active,
                    "mega family members must agree on active columns"
                );
                BatchMember {
                    a: &sf.a,
                    b: &sf.b,
                    n_active,
                    basis0: &sf.basis0,
                }
            })
            .collect();
        let be = BatchKernelBackend::try_new(gpu, &members).map_err(SolveError::from)?;
        let mut recs = recs.map(|r| r.iter_mut());
        let lanes = sfs
            .iter()
            .zip(slots)
            .map(|(sf, slot)| {
                let rec = recs
                    .as_mut()
                    .map(|it| it.next().expect("one recorder per lane"));
                SimplexLane::new(sf, opts, rec, Some(slot))
            })
            .collect();
        Ok(MegaDriver {
            be,
            lanes,
            outcomes: sfs.iter().map(|_| None).collect(),
        })
    }

    /// Per-lane setup: warm install (or its cold fallback) and the first
    /// phase's objective — the same call sequence the solo driver makes.
    fn init(&mut self, warm: Vec<Option<Vec<usize>>>) -> Result<(), SolveError> {
        for (b, seed) in warm.into_iter().enumerate() {
            self.step(b, |lane, lv| lane.start(lv, seed).map(Flow::Go))?;
        }
        Ok(())
    }

    /// Run one host transition of lane `b` on its [`LaneView`] and settle
    /// the result: `Some(x)` when the lane goes on this round, `None` when
    /// it sits the round out or has just terminated. A panic poisons the
    /// lane alone (the stream path gets the same containment from the
    /// worker-pool `catch_unwind`), and so does a numerical failure; a
    /// device fault stops the whole family, which evacuates the live lanes.
    fn step<X>(
        &mut self,
        b: usize,
        f: impl FnOnce(
            &mut SimplexLane<'a, T, R>,
            &mut LaneView<'_, 'g, T>,
        ) -> Result<Flow<X>, SolveError>,
    ) -> Result<Option<X>, SolveError> {
        let (lane, be) = (&mut self.lanes[b], &mut self.be);
        let mut done = None;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut lv = be.lane(b);
            match f(lane, &mut lv) {
                Ok(Flow::Go(x)) => return Some(x),
                Ok(Flow::Retry) => {}
                Ok(Flow::End(status)) => done = Some(lane.finish(&mut lv, status)),
                Err(e) => done = Some(Err(e)),
            }
            None
        }));
        let done = match (ran, done) {
            (Ok(Some(x)), _) => return Ok(Some(x)),
            (Ok(None), None) => return Ok(None),
            (Ok(None), Some(done)) => done,
            (Err(payload), _) => Err(SolveError::Panicked(super::panic_message(payload.as_ref()))),
        };
        if let Err(e @ SolveError::Device(_)) = done {
            return Err(e);
        }
        self.outcomes[b] = Some(done);
        Ok(None)
    }

    fn span_begin(&self) -> OpenSpan {
        open_span::<R>(self.be.gpu().elapsed())
    }

    /// Close a shared-stage span fair-share across the lanes that
    /// participated: each is charged `dt / participants`, so members that
    /// idled this round accrue nothing.
    fn share_close(&mut self, participants: &[usize], kind: StepKind, step: Step, span: OpenSpan) {
        if participants.is_empty() {
            return;
        }
        let (t0, w0) = span;
        let t1 = self.be.gpu().elapsed();
        let n = participants.len() as f64;
        let share = SimTime::from_ns((t1 - t0).as_nanos() / n);
        let wall_share = w0.map_or(0.0, |w| w.elapsed().as_secs_f64()) / n;
        let end = SimTime::from_ns(t0.as_nanos() + share.as_nanos());
        for &b in participants {
            self.lanes[b].charge(kind, step, t0, end, share, wall_share);
        }
    }

    /// The lockstep round loop.
    fn run(&mut self) -> Result<(), SolveError> {
        let opts = self.lanes[0].opts;
        let opt_tol = opts.opt_tol_for::<T>();
        let pivot_tol = opts.pivot_tol_for::<T>();
        let width = self.lanes.len();

        while self.outcomes.iter().any(Option::is_none) {
            // ---- stage 1: limits, reinversion cadence, convergence mask --
            let mut ctl = vec![0u32; width];
            for b in 0..width {
                if self.outcomes[b].is_none() && self.step(b, |lane, lv| lane.admit(lv))?.is_some()
                {
                    ctl[b] = CTL_ACTIVE
                        | if self.lanes[b].use_bland {
                            CTL_BLAND
                        } else {
                            0
                        };
                }
            }
            let active: Vec<usize> = (0..width).filter(|&b| ctl[b] & CTL_ACTIVE != 0).collect();
            self.be
                .gpu()
                .record_batch_round(active.len() as u64, (width - active.len()) as u64);
            if active.is_empty() {
                continue;
            }

            // ---- stage 2: fused pricing chain over every active lane -----
            let span = self.span_begin();
            self.be.upload_ctl(&ctl)?;
            let (q, dq) = self.be.mega_price(active.len() as u64, opt_tol)?;
            self.share_close(&active, StepKind::Pricing, Step::Pricing, span);

            // ---- stage 3: per-lane transitions off the pricing result ----
            let mut mask = vec![0u32; width];
            for &b in &active {
                let entering = (q[b] != u32::MAX).then(|| (q[b] as usize, dq[b]));
                if self
                    .step(b, |lane, lv| lane.on_price(lv, entering))?
                    .is_some()
                {
                    mask[b] = 1;
                }
            }
            let pivoting: Vec<usize> = (0..width).filter(|&b| mask[b] != 0).collect();
            if pivoting.is_empty() {
                continue;
            }

            // ---- stage 4: FTRAN + ratio test for the pivoting lanes ------
            let span = self.span_begin();
            self.be.upload_mask(&mask)?;
            self.be.mega_ftran(pivoting.len() as u64)?;
            self.share_close(&pivoting, StepKind::Ftran, Step::Ftran, span);

            let span = self.span_begin();
            let (mut p, mut theta) = self.be.mega_ratio(pivoting.len() as u64, pivot_tol)?;
            self.share_close(&pivoting, StepKind::RatioTest, Step::RatioTest, span);

            let mut upd = mask;
            for &b in &pivoting {
                let outcome = if p[b] == u32::MAX {
                    RatioOutcome::Unbounded
                } else {
                    RatioOutcome::Pivot {
                        p: p[b] as usize,
                        theta: theta[b],
                    }
                };
                let qb = q[b] as usize;
                match self.step(b, |lane, lv| lane.on_ratio(lv, qb, outcome))? {
                    // A paranoid retest refreshed the lane's device-side α,
                    // so the fused update below recomputes the same pivot.
                    Some((pv, th)) => (p[b], theta[b]) = (pv as u32, th),
                    None => upd[b] = 0,
                }
            }
            let updating: Vec<usize> = (0..width).filter(|&b| upd[b] != 0).collect();
            if updating.is_empty() {
                continue;
            }

            // ---- stage 5: fused pivot + bookkeeping chain ----------------
            let span = self.span_begin();
            self.be.upload_mask(&upd)?;
            self.be.mega_update(updating.len() as u64, &upd, &q, &p)?;
            self.share_close(&updating, StepKind::UpdateBasis, Step::Update, span);

            for &b in &updating {
                let (pv, qv, th) = (p[b] as usize, q[b] as usize, theta[b]);
                self.step(b, |lane, lv| lane.on_pivot(lv, pv, qv, th).map(Flow::Go))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BackendKind, SolveRequest};
    use crate::trace::NoopRecorder;
    use gpu_sim::DeviceSpec;
    use lp::generator;

    fn standardize(jobs: &[lp::LinearProgram]) -> Vec<StandardForm<f64>> {
        jobs.iter()
            .map(|j| StandardForm::from_lp(j).expect("standardizes"))
            .collect()
    }

    /// Satellite regression (per-round containment): a host-transition
    /// panic in one lane mid-round — here a corrupted basis that makes the
    /// periodic refactorize index far out of bounds — poisons that lane
    /// alone. The siblings keep their lockstep rounds, drain to optimality
    /// bitwise-equal to solo, and the family run itself returns cleanly.
    #[test]
    fn panicking_lane_poisons_only_itself_mid_round() {
        let jobs: Vec<_> = (0..4)
            .map(|s| generator::dense_random(8, 12, s + 60))
            .collect();
        let sfs = standardize(&jobs);
        let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            refactor_period: 2,
            ..Default::default()
        };
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let slots: Vec<CheckpointSlot> = refs.iter().map(|_| CheckpointSlot::new()).collect();
        let mut driver = MegaDriver::<f64, NoopRecorder>::new(&gpu, &refs, &opts, None, &slots)
            .expect("fault-free construction");
        driver.init(vec![None; 4]).expect("init succeeds");
        // Corrupt lane 1's host basis mirror: the next periodic refactorize
        // (iters_here = 2) indexes column 10_000 of an 8-row matrix and
        // panics inside the stage-1 `catch_unwind`.
        driver.lanes[1].xb[0] = 10_000;
        driver
            .run()
            .expect("a lane panic must not fail the family run");
        for (b, outcome) in driver.outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("every lane terminates");
            if b == 1 {
                assert!(
                    matches!(outcome, Err(SolveError::Panicked(_))),
                    "lane 1 must be poisoned by its own panic"
                );
            } else {
                let r = outcome.as_ref().expect("sibling lane solved");
                let solo = SolveRequest::standard(&sfs[b], &opts)
                    .on(&BackendKind::CpuDense)
                    .run()
                    .unwrap();
                assert_eq!(r.status, solo.status, "lane {b} status");
                assert_eq!(
                    r.z_std.to_bits(),
                    solo.z_std.to_bits(),
                    "lane {b} objective bits"
                );
                assert_eq!(
                    r.stats.pivot_fingerprint, solo.stats.pivot_fingerprint,
                    "lane {b} fingerprint"
                );
            }
        }
    }

    /// Satellite regression (anti-cycling accounting): an emergency
    /// reinversion restarts the degenerate-step streak, exactly like the
    /// solo driver's `recover` — the streak was measured against the
    /// corrupted iterate, so letting it survive recovery would trip the
    /// Bland escalation on stale evidence. Recovery is lane-local.
    #[test]
    fn lane_recovery_resets_stall_counter() {
        let jobs: Vec<_> = (0..2)
            .map(|s| generator::dense_random(6, 9, s + 80))
            .collect();
        let sfs = standardize(&jobs);
        let refs: Vec<&StandardForm<f64>> = sfs.iter().collect();
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            ..Default::default()
        };
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let slots: Vec<CheckpointSlot> = refs.iter().map(|_| CheckpointSlot::new()).collect();
        let mut driver = MegaDriver::<f64, NoopRecorder>::new(&gpu, &refs, &opts, None, &slots)
            .expect("fault-free construction");
        driver.init(vec![None; 2]).expect("init succeeds");
        driver.lanes[0].stall = 7;
        driver.lanes[1].stall = 3;
        let live = driver.lanes[0]
            .recover(&mut driver.be.lane(0))
            .expect("reinversion from a sane basis");
        assert!(live, "recovered lane stays in the round loop");
        assert_eq!(
            driver.lanes[0].stall, 0,
            "emergency reinversion must restart the degenerate streak"
        );
        assert_eq!(driver.lanes[0].stats.nan_recoveries, 1);
        // The sibling lane's streak is untouched — recovery is lane-local.
        assert_eq!(driver.lanes[1].stall, 3);
        assert_eq!(driver.lanes[1].stats.nan_recoveries, 0);
    }
}
