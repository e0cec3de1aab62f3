//! Per-solve statistics, including the simulated-time breakdown by simplex
//! step that experiment F2 reports.

use std::fmt;

use gpu_sim::SimTime;

/// The steps of one revised simplex iteration, as the paper decomposes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// `π = c_Bᵀ B⁻¹` and `d = c − Aᵀπ` (BTRAN + pricing).
    Pricing,
    /// Entering-variable selection (reductions and their transfers).
    Selection,
    /// `α = B⁻¹ a_q` (FTRAN).
    Ftran,
    /// Ratio test (elementwise ratios + argmin).
    RatioTest,
    /// `β` and `B⁻¹` updates (the eta kernel).
    Update,
    /// Periodic reinversion of the basis.
    Refactor,
    /// Setup, phase transitions, bookkeeping transfers.
    Other,
}

impl Step {
    /// All steps in report order.
    pub const ALL: [Step; 7] = [
        Step::Pricing,
        Step::Selection,
        Step::Ftran,
        Step::RatioTest,
        Step::Update,
        Step::Refactor,
        Step::Other,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Step::Pricing => "pricing",
            Step::Selection => "selection",
            Step::Ftran => "ftran",
            Step::RatioTest => "ratio-test",
            Step::Update => "update",
            Step::Refactor => "refactor",
            Step::Other => "other",
        }
    }
}

/// Counters attributed to a single simplex phase. Each iteration is counted
/// in exactly one phase, so the two [`PhaseCounters`] in [`SolveStats`]
/// partition the solve-wide totals — see [`SolveStats::check_invariants`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCounters {
    /// Iterations executed in this phase.
    pub iterations: usize,
    /// Iterations of this phase whose step length was (numerically) zero.
    pub degenerate_steps: usize,
    /// Iterations of this phase priced under Bland's rule.
    pub bland_iterations: usize,
}

/// Statistics accumulated over one solve.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Total iterations (both phases).
    pub iterations: usize,
    /// Iterations spent in phase 1.
    pub phase1_iterations: usize,
    /// Disjoint per-phase counters: `phase[0]` is phase 1, `phase[1]` is
    /// phase 2. Every iteration increments exactly one entry, so summing
    /// across phases reproduces the solve-wide totals.
    pub phase: [PhaseCounters; 2],
    /// Basis reinversions performed.
    pub refactorizations: usize,
    /// Iterations where the step length was (numerically) zero.
    pub degenerate_steps: usize,
    /// Iterations priced under Bland's rule (Hybrid bookkeeping).
    pub bland_iterations: usize,
    /// Modeled/simulated time per step.
    step_time: [SimTime; 7],
    /// Wall-clock seconds actually spent in the Rust process (secondary
    /// metric; the primary metric is simulated time).
    pub wall_seconds: f64,
    /// Injected/genuine device faults observed by the fault plan during
    /// this solve (0 without fault injection).
    pub device_faults: u64,
    /// Non-finite iterates detected and repaired by an emergency
    /// reinversion (the NaN-recovery path).
    pub nan_recoveries: usize,
    /// Retries spent by the resilience layer before this result (0 for a
    /// direct solve).
    pub retries: usize,
    /// Degradation rungs descended by the resilience layer (0 = solved on
    /// the originally requested backend).
    pub degradations: usize,
    /// Backoff the resilience layer scheduled between attempts, in seconds
    /// (recorded, not slept — the batch scheduler owns real pacing).
    pub backoff_seconds: f64,
    /// FNV-1a hash over the pivot sequence: for every basis change, the
    /// iteration, phase, entering column `q`, leaving row `p`, and the
    /// exact bits of the step length θ. Two solves that walk the same
    /// arithmetic path produce equal fingerprints regardless of how the
    /// simulator accounted their launches — the fused/unfused parity
    /// regression keys on this. 0 means "no pivots recorded".
    pub pivot_fingerprint: u64,
    /// Warm starts offered to this solve (0 or 1: a basis was supplied via
    /// `Start::Warm` / the batch basis cache).
    pub warm_start_attempted: usize,
    /// Warm starts rejected and replaced by a cold start — the supplied
    /// basis was malformed, singular, or primal-infeasible. Always ≤
    /// `warm_start_attempted`; the rejected attempt's setup charges stay on
    /// the ledger (they were really spent) but the solve is otherwise
    /// byte-identical to a cold one.
    pub warm_start_rejected: usize,
    /// Iterations the warm start saved versus the recorded cold cost of the
    /// cache entry that supplied it (0 for cold solves and for warm starts
    /// with no recorded baseline).
    pub warm_iterations_saved: u64,
    /// Checkpoints snapshotted into the caller's slot during this solve.
    pub checkpoints_taken: usize,
    /// Attempts (including the successful one) that started from a stored
    /// checkpoint instead of scratch — folded in by the recovery layers.
    pub checkpoint_resumes: usize,
    /// Iterations completed by failed attempts that no checkpoint
    /// preserved — work that had to be re-done. Folded in by the recovery
    /// layers; 0 for a direct fault-free solve.
    pub wasted_iterations: u64,
    /// Pivots applied as product-form eta appends instead of an explicit
    /// `B⁻¹` update (0 under the explicit-inverse representation).
    pub eta_pivots: usize,
    /// Longest eta chain observed between reinversions (0 under the
    /// explicit inverse).
    pub max_eta_chain: usize,
    /// Times the degeneracy policy activated a cost perturbation.
    pub perturbations: usize,
    /// Times the degeneracy policy activated an EXPAND-style ratio-test
    /// bound shift (0 unless [`crate::DegeneracyPolicy::BoundShift`]).
    pub bound_shifts: usize,
    /// Peak sparse-LU fill-in (factor nnz − basis nnz) over the solve's
    /// refactorizations (0 unless [`crate::BasisRepresentation::SparseLU`]).
    pub lu_fill_in: u64,
    /// Peak sparse-LU factor size nnz(L)+nnz(U) over the solve's
    /// refactorizations (0 unless the sparse-LU representation).
    pub lu_refactor_nnz: u64,
    /// Pivot candidates rejected by Markowitz threshold pivoting across
    /// all refactorizations (0 unless the sparse-LU representation).
    pub markowitz_rejections: u64,
    /// First-order (PDHG) iterations executed (0 for a simplex solve; a
    /// PDHG solve leaves `iterations` at 0 — the two algorithm families
    /// keep disjoint counters).
    pub pdhg_iterations: u64,
    /// Adaptive restarts taken by the PDHG solver (0 for simplex).
    pub restarts: u64,
    /// Final normalized duality gap reported by the PDHG convergence
    /// check (0.0 for simplex solves, so metrics stay finite either way).
    pub final_gap: f64,
}

impl SolveStats {
    /// Fold one basis change into [`SolveStats::pivot_fingerprint`].
    pub fn record_pivot(&mut self, iteration: usize, phase: usize, q: usize, p: usize, theta: f64) {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = if self.pivot_fingerprint == 0 {
            OFFSET
        } else {
            self.pivot_fingerprint
        };
        for v in [
            iteration as u64,
            phase as u64,
            q as u64,
            p as u64,
            theta.to_bits(),
        ] {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        }
        self.pivot_fingerprint = h;
    }

    /// Iterations spent in phase 2 (disjoint from `phase1_iterations`).
    pub fn phase2_iterations(&self) -> usize {
        self.phase[1].iterations
    }

    /// Verify that the per-phase counters partition the solve-wide totals:
    /// phase-1 and phase-2 iterations, degenerate steps, and Bland
    /// iterations are disjoint and sum to the totals, and the legacy
    /// `phase1_iterations` field agrees with `phase[0]`. Returns a
    /// description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum_iters = self.phase[0].iterations + self.phase[1].iterations;
        if sum_iters != self.iterations {
            return Err(format!(
                "phase iterations {} + {} != total {}",
                self.phase[0].iterations, self.phase[1].iterations, self.iterations
            ));
        }
        if self.phase[0].iterations != self.phase1_iterations {
            return Err(format!(
                "phase[0].iterations {} != phase1_iterations {}",
                self.phase[0].iterations, self.phase1_iterations
            ));
        }
        let sum_degen = self.phase[0].degenerate_steps + self.phase[1].degenerate_steps;
        if sum_degen != self.degenerate_steps {
            return Err(format!(
                "phase degenerate steps {} + {} != total {}",
                self.phase[0].degenerate_steps,
                self.phase[1].degenerate_steps,
                self.degenerate_steps
            ));
        }
        let sum_bland = self.phase[0].bland_iterations + self.phase[1].bland_iterations;
        if sum_bland != self.bland_iterations {
            return Err(format!(
                "phase Bland iterations {} + {} != total {}",
                self.phase[0].bland_iterations,
                self.phase[1].bland_iterations,
                self.bland_iterations
            ));
        }
        if self.warm_start_rejected > self.warm_start_attempted {
            return Err(format!(
                "warm_start_rejected {} > warm_start_attempted {}",
                self.warm_start_rejected, self.warm_start_attempted
            ));
        }
        if self.warm_start_attempted == 0
            && (self.warm_start_rejected != 0 || self.warm_iterations_saved != 0)
        {
            return Err(format!(
                "cold solve carries warm counters (rejected {}, saved {})",
                self.warm_start_rejected, self.warm_iterations_saved
            ));
        }
        if self.warm_start_attempted > self.warm_start_rejected && self.phase1_iterations != 0 {
            return Err(format!(
                "accepted warm start cannot run phase 1 ({} iterations)",
                self.phase1_iterations
            ));
        }
        Ok(())
    }

    /// Charge `t` against `step`.
    pub fn charge(&mut self, step: Step, t: SimTime) {
        let idx = Step::ALL
            .iter()
            .position(|s| *s == step)
            .expect("step in ALL");
        self.step_time[idx] += t;
    }

    /// Time charged to `step`.
    pub fn time(&self, step: Step) -> SimTime {
        let idx = Step::ALL
            .iter()
            .position(|s| *s == step)
            .expect("step in ALL");
        self.step_time[idx]
    }

    /// Total simulated time across all steps.
    pub fn total_time(&self) -> SimTime {
        self.step_time.iter().copied().sum()
    }

    /// Fraction of total simulated time in `step` (0 when total is zero).
    pub fn fraction(&self, step: Step) -> f64 {
        let total = self.total_time().as_nanos();
        if total == 0.0 {
            0.0
        } else {
            self.time(step).as_nanos() / total
        }
    }

    /// Average simulated time per iteration.
    pub fn time_per_iteration(&self) -> SimTime {
        if self.iterations == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_ns(self.total_time().as_nanos() / self.iterations as f64)
        }
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} iterations ({} phase-1, {} degenerate, {} Bland), {} refactorizations",
            self.iterations,
            self.phase1_iterations,
            self.degenerate_steps,
            self.bland_iterations,
            self.refactorizations
        )?;
        writeln!(
            f,
            "simulated time {} ({} / iteration):",
            self.total_time(),
            self.time_per_iteration()
        )?;
        for s in Step::ALL {
            writeln!(
                f,
                "  {:<10} {:>12}  {:5.1}%",
                s.label(),
                format!("{}", self.time(s)),
                100.0 * self.fraction(s)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_fractions() {
        let mut st = SolveStats::default();
        st.charge(Step::Pricing, SimTime::from_us(3.0));
        st.charge(Step::Update, SimTime::from_us(1.0));
        st.iterations = 2;
        assert!((st.fraction(Step::Pricing) - 0.75).abs() < 1e-12);
        assert!((st.total_time().as_micros() - 4.0).abs() < 1e-12);
        assert!((st.time_per_iteration().as_micros() - 2.0).abs() < 1e-12);
        let text = format!("{st}");
        assert!(text.contains("pricing"));
    }

    #[test]
    fn empty_stats_are_zero() {
        let st = SolveStats::default();
        assert_eq!(st.total_time(), SimTime::ZERO);
        assert_eq!(st.fraction(Step::Ftran), 0.0);
        assert_eq!(st.time_per_iteration(), SimTime::ZERO);
        assert!(st.check_invariants().is_ok());
    }

    #[test]
    fn invariants_catch_overlapping_phase_counters() {
        let st = SolveStats {
            iterations: 10,
            phase1_iterations: 4,
            degenerate_steps: 3,
            bland_iterations: 2,
            phase: [
                PhaseCounters {
                    iterations: 4,
                    degenerate_steps: 1,
                    bland_iterations: 0,
                },
                PhaseCounters {
                    iterations: 6,
                    degenerate_steps: 2,
                    bland_iterations: 2,
                },
            ],
            ..SolveStats::default()
        };
        assert!(st.check_invariants().is_ok());
        assert_eq!(st.phase2_iterations(), 6);

        // A double-counted iteration (counted in both phases) is caught.
        let mut bad = st.clone();
        bad.phase[0].iterations = 5;
        assert!(bad.check_invariants().unwrap_err().contains("iterations"));
        // A degenerate step attributed to both phases is caught.
        let mut bad = st.clone();
        bad.phase[0].degenerate_steps = 2;
        assert!(bad.check_invariants().unwrap_err().contains("degenerate"));
        // Bland bookkeeping drift is caught.
        let mut bad = st;
        bad.bland_iterations = 1;
        assert!(bad.check_invariants().unwrap_err().contains("Bland"));
    }

    #[test]
    fn invariants_cover_warm_start_counters() {
        // An accepted warm start skips phase 1 entirely.
        let ok = SolveStats {
            iterations: 3,
            phase: [
                PhaseCounters::default(),
                PhaseCounters {
                    iterations: 3,
                    ..PhaseCounters::default()
                },
            ],
            warm_start_attempted: 1,
            warm_iterations_saved: 7,
            ..SolveStats::default()
        };
        assert!(ok.check_invariants().is_ok());

        // More rejections than attempts is impossible.
        let bad = SolveStats {
            warm_start_attempted: 1,
            warm_start_rejected: 2,
            ..SolveStats::default()
        };
        assert!(bad.check_invariants().unwrap_err().contains("rejected"));

        // A cold solve must not carry warm counters.
        let bad = SolveStats {
            warm_iterations_saved: 4,
            ..SolveStats::default()
        };
        assert!(bad.check_invariants().unwrap_err().contains("cold"));

        // An accepted warm start that still ran phase 1 is a bug.
        let bad = SolveStats {
            iterations: 2,
            phase1_iterations: 2,
            phase: [
                PhaseCounters {
                    iterations: 2,
                    ..PhaseCounters::default()
                },
                PhaseCounters::default(),
            ],
            warm_start_attempted: 1,
            ..SolveStats::default()
        };
        assert!(bad.check_invariants().unwrap_err().contains("phase 1"));
    }
}
