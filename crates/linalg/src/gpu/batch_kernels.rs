//! Block-per-LP kernels over the SoA [`crate::batch::DenseBatchLayout`]
//! ordering: one simplex family advances in lockstep, batch index innermost
//! so a warp's lanes (consecutive members) touch consecutive addresses.
//!
//! Every kernel replicates the *serial* arithmetic of the CPU dense backend
//! per lane — same loop order, same `mul_add` shapes, same tie-breaking —
//! so a lane's results are bitwise identical to a solo solve. The cost
//! descriptors declare the modeled geometry (`active_threads_raw`, one
//! thread-block per LP) and coalesced SoA traffic; `lanes` is the
//! host-known count of lanes doing useful work this launch.
//!
//! Masking: `gate` holds one `u32` per lane; bit 0 means "runs this launch"
//! (the driver reuses it for both the convergence mask and the per-round
//! pivot mask). `only != usize::MAX` overrides the gate and runs exactly
//! one lane — the solo path used for per-member irregular work.

use gpu_sim::{AccessPattern, DView, DViewMut, Kernel, KernelCost, LaunchConfig, ThreadCtx};

use crate::scalar::Scalar;

/// Gate bit 0: the lane participates in this launch.
pub const CTL_ACTIVE: u32 = 1;
/// Gate bit 1: the lane prices with Bland's rule this round.
pub const CTL_BLAND: u32 = 2;

#[inline]
fn lane_runs(gate: &DView<u32>, only: usize, lane: usize) -> bool {
    if only != usize::MAX {
        lane == only
    } else {
        gate.get(lane) & CTL_ACTIVE != 0
    }
}

/// Batched BTRAN: `π_b = (B⁻¹_b)ᵀ c_{B,b}` for every gated lane, in the CPU
/// `gemv_t` loop order.
pub struct BatchBtranK<T: Scalar> {
    pub binv: DView<T>,
    pub cb: DView<T>,
    pub pi: DViewMut<T>,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchBtranK<T> {
    fn name(&self) -> &'static str {
        "batch_btran"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let (m, w) = (self.m, self.width);
        for j in 0..m {
            let mut acc = T::ZERO;
            for i in 0..m {
                acc = self
                    .binv
                    .get((i + j * m) * w + b)
                    .mul_add(self.cb.get(i * w + b), acc);
            }
            let yj = j * w + b;
            // Same non-finite guard as the FTRAN β-scale: 0·NaN = NaN would
            // make a corrupted π unhealable.
            let prev = self.pi.get(yj);
            let scaled = if prev.is_finite() {
                T::ZERO * prev
            } else {
                T::ZERO
            };
            self.pi.set(yj, T::ONE * acc + scaled);
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, l) = (self.m as u64, self.lanes);
        KernelCost::new()
            .flops_total(2 * m * m * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m * m * l))
            .read(AccessPattern::coalesced::<T>(m * l))
            .write(AccessPattern::coalesced::<T>(m * l))
            .active_threads_raw(m * l)
    }
}

/// Batched pricing over a column window: `d_b[j] = c_b[j] − π_bᵀ a_b[:,j]`,
/// in the CPU `dot` accumulation order.
pub struct BatchPriceK<T: Scalar> {
    pub a: DView<T>,
    pub pi: DView<T>,
    pub costs: DView<T>,
    pub d: DViewMut<T>,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub start: usize,
    pub len: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchPriceK<T> {
    fn name(&self) -> &'static str {
        "batch_price"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let (m, w) = (self.m, self.width);
        for j in self.start..self.start + self.len {
            let mut acc = T::ZERO;
            for i in 0..m {
                acc = self
                    .pi
                    .get(i * w + b)
                    .mul_add(self.a.get((i + j * m) * w + b), acc);
            }
            self.d.set(j * w + b, self.costs.get(j * w + b) - acc);
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, n, l) = (self.m as u64, self.len as u64, self.lanes);
        KernelCost::new()
            .flops_total(2 * m * n * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m * n * l))
            .read(AccessPattern::coalesced::<T>((m + n) * l))
            .write(AccessPattern::coalesced::<T>(n * l))
            .active_threads_raw(n * l)
    }
}

/// Selection override for [`BatchSelectK`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SelectRule {
    /// Per-lane: Bland when the lane's [`CTL_BLAND`] gate bit is set.
    PerLane,
    /// Force Dantzig for the gated lanes.
    Dantzig,
    /// Force Bland for the gated lanes.
    Bland,
}

/// Batched entering-variable selection. Writes the column (or `u32::MAX`
/// for "converged") and its reduced cost, replicating the CPU backend's
/// scan order and `!(dj < best)` tie-breaking.
pub struct BatchSelectK<T: Scalar> {
    pub d: DView<T>,
    pub basic: DView<u32>,
    pub q_sel: DViewMut<u32>,
    pub dq: DViewMut<T>,
    pub tol: T,
    pub rule: SelectRule,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub n_active: usize,
    pub start: usize,
    pub len: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchSelectK<T> {
    fn name(&self) -> &'static str {
        "batch_select"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let w = self.width;
        let bland = match self.rule {
            SelectRule::Dantzig => false,
            SelectRule::Bland => true,
            SelectRule::PerLane => self.gate.get(b) & CTL_BLAND != 0,
        };
        let mut best: Option<(usize, T)> = None;
        if bland {
            // Bland scans the full active range for the first improving
            // nonbasic column, exactly as the CPU backend does.
            for j in 0..self.n_active {
                if self.basic.get(j * w + b) == 0 {
                    let dj = self.d.get(j * w + b);
                    if dj < -self.tol {
                        best = Some((j, dj));
                        break;
                    }
                }
            }
        } else {
            for j in self.start..self.start + self.len {
                if self.basic.get(j * w + b) != 0 {
                    continue;
                }
                let dj = self.d.get(j * w + b);
                if dj < -self.tol {
                    match best {
                        Some((_, bv)) if !(dj < bv) => {}
                        _ => best = Some((j, dj)),
                    }
                }
            }
        }
        match best {
            Some((j, v)) => {
                self.q_sel.set(b, j as u32);
                self.dq.set(b, v);
            }
            None => {
                self.q_sel.set(b, u32::MAX);
                self.dq.set(b, T::ZERO);
            }
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (n, l) = (self.len.max(1) as u64, self.lanes);
        KernelCost::new()
            .flops_total(n * l)
            .fp64(T::IS_F64)
            .int_ops_total(n * l)
            .read(AccessPattern::coalesced::<T>(n * l))
            .read(AccessPattern::coalesced::<u32>(n * l))
            .write(AccessPattern::coalesced::<T>(2 * l))
            .active_threads_raw(n * l)
    }
}

/// Batched FTRAN: `α_b = B⁻¹_b a_b[:,q_b]`, in the CPU `gemv_n` loop order
/// (β-scale first, zero-coefficient columns skipped).
pub struct BatchFtranK<T: Scalar> {
    pub binv: DView<T>,
    pub a: DView<T>,
    pub q_sel: DView<u32>,
    pub alpha: DViewMut<T>,
    /// `usize::MAX` reads per-lane `q_sel`; otherwise a fixed column.
    pub q_override: usize,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchFtranK<T> {
    fn name(&self) -> &'static str {
        "batch_ftran"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let q = if self.q_override != usize::MAX {
            self.q_override
        } else {
            let qs = self.q_sel.get(b);
            if qs == u32::MAX {
                return;
            }
            qs as usize
        };
        let (m, w) = (self.m, self.width);
        for i in 0..m {
            let k = i * w + b;
            // β-scale in the CPU loop order — except a non-finite stale
            // value is cleared outright (BLAS β = 0 semantics): NaN·0 = NaN
            // would keep a poisoned α sticky across the very reinversion
            // that is supposed to heal it.
            let prev = self.alpha.get(k);
            let zeroed = if prev.is_finite() {
                prev * T::ZERO
            } else {
                T::ZERO
            };
            self.alpha.set(k, zeroed);
        }
        for j in 0..m {
            let s = T::ONE * self.a.get((j + q * m) * w + b);
            if s == T::ZERO {
                continue;
            }
            for i in 0..m {
                let k = i * w + b;
                self.alpha.set(
                    k,
                    s.mul_add(self.binv.get((i + j * m) * w + b), self.alpha.get(k)),
                );
            }
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, l) = (self.m as u64, self.lanes);
        KernelCost::new()
            .flops_total(2 * m * m * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>((m * m + m) * l))
            .write(AccessPattern::coalesced::<T>(m * l))
            .active_threads_raw(m * l)
    }
}

/// Batched ratio test: writes the leaving row (or `u32::MAX` for unbounded)
/// and the step length, with the CPU backend's degenerate-step clamp and
/// tie-breaking.
pub struct BatchRatioK<T: Scalar> {
    pub alpha: DView<T>,
    pub beta: DView<T>,
    pub p_sel: DViewMut<u32>,
    pub theta: DViewMut<T>,
    pub pivot_tol: T,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchRatioK<T> {
    fn name(&self) -> &'static str {
        "batch_ratio"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let (m, w) = (self.m, self.width);
        let mut best: Option<(usize, T)> = None;
        let mut poisoned = false;
        for i in 0..m {
            let a = self.alpha.get(i * w + b);
            if !a.is_finite() {
                poisoned = true;
                continue;
            }
            if a > self.pivot_tol {
                let bi = self.beta.get(i * w + b);
                if !bi.is_finite() {
                    // NaN compares false against zero, so without this
                    // check a corrupted β row would silently clamp to a
                    // ratio of 0 and the lane would pivot on garbage with
                    // θ = 0 — undetectable downstream.
                    poisoned = true;
                    continue;
                }
                let r = if bi > T::ZERO { bi / a } else { T::ZERO };
                match best {
                    Some((_, br)) if !(r < br) => {}
                    _ => best = Some((i, r)),
                }
            }
        }
        if poisoned {
            // Non-finite lane state only arises from corruption: surface a
            // non-finite step length so the lockstep driver runs this
            // lane's emergency reinversion instead of trusting the ratio.
            self.p_sel.set(b, best.map_or(u32::MAX, |(p, _)| p as u32));
            self.theta.set(b, T::from_f64(f64::NAN));
            return;
        }
        match best {
            Some((p, th)) => {
                self.p_sel.set(b, p as u32);
                self.theta.set(b, th);
            }
            None => {
                self.p_sel.set(b, u32::MAX);
                self.theta.set(b, T::ZERO);
            }
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, l) = (self.m as u64, self.lanes);
        KernelCost::new()
            .flops_total(2 * m * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(2 * m * l))
            .write(AccessPattern::coalesced::<T>(2 * l))
            .active_threads_raw(m * l)
    }
}

/// Batched basis-inverse pivot update (β then the η sweep of `B⁻¹`), the
/// CPU backend's update arithmetic per lane: the pivot-row element is read
/// before its column is overwritten and η is recomputed from α on the fly —
/// bitwise the same values as the precomputed-η formulation.
pub struct BatchPivotK<T: Scalar> {
    pub binv: DViewMut<T>,
    pub beta: DViewMut<T>,
    pub alpha: DView<T>,
    pub p_sel: DView<u32>,
    pub theta_sel: DView<T>,
    /// `usize::MAX` reads per-lane `p_sel`/`theta_sel`; otherwise fixed.
    pub p_override: usize,
    pub theta_override: T,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchPivotK<T> {
    fn name(&self) -> &'static str {
        "batch_pivot"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let (p, theta) = if self.p_override != usize::MAX {
            (self.p_override, self.theta_override)
        } else {
            let ps = self.p_sel.get(b);
            if ps == u32::MAX {
                return;
            }
            (ps as usize, self.theta_sel.get(b))
        };
        let (m, w) = (self.m, self.width);
        for i in 0..m {
            let k = i * w + b;
            let v = if i == p {
                theta
            } else {
                (self.beta.get(k) - theta * self.alpha.get(i * w + b)).maxs(T::ZERO)
            };
            self.beta.set(k, v);
        }
        let ap = self.alpha.get(p * w + b);
        for j in 0..m {
            let rpj = self.binv.get((p + j * m) * w + b);
            for i in 0..m {
                let ei = if i == p {
                    T::ONE / ap
                } else {
                    -self.alpha.get(i * w + b) / ap
                };
                let k = (i + j * m) * w + b;
                let old = if i == p { T::ZERO } else { self.binv.get(k) };
                self.binv.set(k, ei.mul_add(rpj, old));
            }
        }
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, l) = (self.m as u64, self.lanes);
        KernelCost::new()
            .flops_total((2 * m * m + 4 * m) * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>((m * m + 2 * m) * l))
            .write(AccessPattern::coalesced::<T>((m * m + m) * l))
            .active_threads_raw(m * m * l)
    }
}

/// Batched basis bookkeeping after a pivot: flips the basic mask, records
/// the new basic column for the pivot row, and installs its phase cost
/// (`cb[p] = costs[q]` — phase-1 costs are all zero and an entering column
/// is never artificial, so this matches the solo driver's phase dispatch).
pub struct BatchBookK<T: Scalar> {
    pub q_sel: DView<u32>,
    pub p_sel: DView<u32>,
    pub basic: DViewMut<u32>,
    pub basic_of_row: DViewMut<u32>,
    pub cb: DViewMut<T>,
    pub costs: DView<T>,
    /// `Some((p, q, cost))` books that pivot for the `only` lane instead of
    /// reading `p_sel`/`q_sel`/`costs`.
    pub fixed: Option<(usize, usize, T)>,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchBookK<T> {
    fn name(&self) -> &'static str {
        "batch_bookkeep"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let w = self.width;
        let (p, q, cost) = match self.fixed {
            Some(fixed) => fixed,
            None => {
                let q = self.q_sel.get(b);
                let p = self.p_sel.get(b);
                if q == u32::MAX || p == u32::MAX {
                    return;
                }
                let (q, p) = (q as usize, p as usize);
                (p, q, self.costs.get(q * w + b))
            }
        };
        let old = self.basic_of_row.get(p * w + b) as usize;
        self.basic.set(old * w + b, 0);
        self.basic.set(q * w + b, 1);
        self.basic_of_row.set(p * w + b, q as u32);
        self.cb.set(p * w + b, cost);
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let l = self.lanes;
        KernelCost::new()
            .int_ops_total(4 * l)
            .read(AccessPattern::scattered::<u32>(3 * l))
            .write(AccessPattern::scattered::<u32>(3 * l))
            .write(AccessPattern::scattered::<T>(l))
            .active_threads_raw(l.max(1))
    }
}

/// Install a new basis for one lane: clear the basic flags of the lane's
/// current basis, flag every column of the staged `basis` (length `m`),
/// and record it per row. One thread.
pub struct LaneRebaseK {
    pub basis: DView<u32>,
    pub basic: DViewMut<u32>,
    pub basic_of_row: DViewMut<u32>,
    pub lane: usize,
    pub width: usize,
    pub m: usize,
}

impl Kernel for LaneRebaseK {
    fn name(&self) -> &'static str {
        "lane_rebase"
    }

    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let (w, b) = (self.width, self.lane);
        for r in 0..self.m {
            let old = self.basic_of_row.get(r * w + b) as usize;
            self.basic.set(old * w + b, 0);
        }
        for r in 0..self.m {
            let j = self.basis.get(r);
            self.basic.set(j as usize * w + b, 1);
            self.basic_of_row.set(r * w + b, j);
        }
    }

    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .int_ops_total(3 * m)
            .read(AccessPattern::coalesced::<u32>(m))
            .read(AccessPattern::scattered::<u32>(m))
            .write(AccessPattern::scattered::<u32>(3 * m))
            .active_threads(cfg, 1)
    }
}

/// Batched objective: `obj_b = c_{B,b}ᵀ β_b` in the CPU `dot` order.
pub struct BatchObjK<T: Scalar> {
    pub cb: DView<T>,
    pub beta: DView<T>,
    pub obj: DViewMut<T>,
    pub gate: DView<u32>,
    pub only: usize,
    pub width: usize,
    pub m: usize,
    pub lanes: u64,
}

impl<T: Scalar> Kernel for BatchObjK<T> {
    fn name(&self) -> &'static str {
        "batch_obj"
    }

    fn run(&self, t: &ThreadCtx) {
        let b = t.global_id();
        if b >= self.width || !lane_runs(&self.gate, self.only, b) {
            return;
        }
        let (m, w) = (self.m, self.width);
        let mut acc = T::ZERO;
        for i in 0..m {
            acc = self
                .cb
                .get(i * w + b)
                .mul_add(self.beta.get(i * w + b), acc);
        }
        self.obj.set(b, acc);
    }

    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let (m, l) = (self.m as u64, self.lanes);
        KernelCost::new()
            .flops_total(2 * m * l)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(2 * m * l))
            .write(AccessPattern::scattered::<T>(l))
            .active_threads_raw(m * l)
    }
}

/// Scatter a contiguous staging buffer into one lane's SoA slots:
/// `dst[(offset + e) * width + lane] = src[e]`.
pub struct LaneScatterK<T: Scalar> {
    pub src: DView<T>,
    pub dst: DViewMut<T>,
    pub lane: usize,
    pub offset: usize,
    pub width: usize,
    pub len: usize,
}

impl<T: Scalar> Kernel for LaneScatterK<T> {
    fn name(&self) -> &'static str {
        "lane_scatter"
    }

    fn run(&self, t: &ThreadCtx) {
        let e = t.global_id();
        if e < self.len {
            self.dst
                .set((self.offset + e) * self.width + self.lane, self.src.get(e));
        }
    }

    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.len as u64;
        KernelCost::new()
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::strided::<T>(n, self.width as u64 * T::BYTES))
            .active_threads(cfg, n)
    }
}

/// Gather one lane's SoA slots into a contiguous staging buffer:
/// `dst[e] = src[(offset + e) * width + lane]`.
pub struct LaneGatherK<T: Scalar> {
    pub src: DView<T>,
    pub dst: DViewMut<T>,
    pub lane: usize,
    pub offset: usize,
    pub width: usize,
    pub len: usize,
}

impl<T: Scalar> Kernel for LaneGatherK<T> {
    fn name(&self) -> &'static str {
        "lane_gather"
    }

    fn run(&self, t: &ThreadCtx) {
        let e = t.global_id();
        if e < self.len {
            self.dst
                .set(e, self.src.get((self.offset + e) * self.width + self.lane));
        }
    }

    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.len as u64;
        KernelCost::new()
            .read(AccessPattern::strided::<T>(n, self.width as u64 * T::BYTES))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}
