//! Block-per-LP mega-batch backend: one SoA family of same-shape LPs
//! resident on the device, advanced in lockstep by batched kernels.
//!
//! The device state is the CPU dense backend's state vector-for-vector,
//! replicated per lane with the batch index innermost (see
//! [`linalg::batch::DenseBatchLayout`]): `A`, `B⁻¹`, `β`, `π`, `α`, `d`,
//! the phase costs, `c_B`, and the basic mask. The batched kernels execute
//! each lane's arithmetic in the CPU backend's exact serial order, so every
//! member's pivot path is bitwise identical to a solo `cpu-dense` solve —
//! the differential suite in `tests/mega_batch.rs` pins that.
//!
//! Two access modes share the state:
//!
//! * the **mega chains** (`mega_price` / `mega_ftran` / `mega_ratio` /
//!   `mega_update`) advance every gated lane under one fused launch per
//!   chain — the launch-amortization the Gurung & Ray batching argument is
//!   about;
//! * a [`LaneView`] borrows one lane and implements the full
//!   [`Backend`] trait for per-member irregular work (phase entry,
//!   refactorization, warm-start installs, driving out artificials) — and
//!   doubles as the credential that the SoA state really is behind the
//!   existing backend machinery (a width-1 `LaneView` drives
//!   [`crate::revised::RevisedSimplex`] unchanged).

use gpu_sim::{DViewMut, DeviceBuffer, Gpu, LaunchConfig, SimTime, TimeCategory};
use linalg::batch::{pack_vectors, DenseBatchLayout};
use linalg::gpu::{
    BatchBookK, BatchBtranK, BatchFtranK, BatchObjK, BatchPivotK, BatchPriceK, BatchRatioK,
    BatchSelectK, LaneGatherK, LaneRebaseK, LaneScatterK, SelectRule,
};
use linalg::{DenseMatrix, Scalar};

use crate::backend::{Backend, RatioOutcome};
use crate::basis::BasisFactor;
use crate::error::BackendError;

const BLOCK: u32 = 128;
/// Sentinel for "no lane override": batched kernels obey their gate.
const ALL_LANES: usize = usize::MAX;

/// If the device flagged an injected silent corruption, overwrite the first
/// `mask`-gated lane's slice of the batch-innermost vector `out` with NaN —
/// the SoA analogue of the device BLAS layer's `poison_if_corrupted`. The
/// kernel "succeeded" but wrote garbage for one member; the lockstep driver
/// must detect it downstream and run that lane's emergency reinversion, not
/// let it leak into a terminal solution. Host-side poke, charges nothing.
fn poison_lane_if_corrupted<T: Scalar>(
    gpu: &Gpu,
    out: &gpu_sim::DViewMut<T>,
    mask: &[u32],
    rows: usize,
    width: usize,
) {
    if !gpu.take_corruption() {
        return;
    }
    let Some(b) = (0..width).find(|&b| mask[b] != 0) else {
        return;
    };
    let nan = T::from_f64(f64::NAN);
    for i in 0..rows {
        out.set(i * width + b, nan);
    }
}

/// One member of a same-shape family, borrowed from its standard form.
pub struct BatchMember<'a, T: Scalar> {
    /// Full constraint matrix (active columns then artificials).
    pub a: &'a DenseMatrix<T>,
    /// Right-hand side.
    pub b: &'a [T],
    /// Columns eligible for pricing.
    pub n_active: usize,
    /// Initial basis (identity columns).
    pub basis0: &'a [usize],
}

/// SoA device state for a same-shape LP family (see module docs).
pub struct BatchKernelBackend<'g, T: Scalar> {
    gpu: &'g Gpu,
    width: usize,
    m: usize,
    n_active: usize,
    a: DeviceBuffer<T>,
    binv: DeviceBuffer<T>,
    beta: DeviceBuffer<T>,
    pi: DeviceBuffer<T>,
    alpha: DeviceBuffer<T>,
    d: DeviceBuffer<T>,
    costs: DeviceBuffer<T>,
    cb: DeviceBuffer<T>,
    basic: DeviceBuffer<u32>,
    basic_of_row: DeviceBuffer<u32>,
    /// Per-lane convergence/Bland mask read by the batched kernels.
    ctl: DeviceBuffer<u32>,
    /// Per-round pivot/update gate (separate from `ctl` so a lane can stay
    /// live while sitting out one round, e.g. during a phase transition).
    mask: DeviceBuffer<u32>,
    /// Host mirror of `mask` (corruption poisoning needs the gated-lane set
    /// without a readback).
    mask_host: Vec<u32>,
    q_sel: DeviceBuffer<u32>,
    dq: DeviceBuffer<T>,
    p_sel: DeviceBuffer<u32>,
    theta: DeviceBuffer<T>,
    obj: DeviceBuffer<T>,
    /// Host mirror of each lane's full matrix (refactorization input).
    a_host: Vec<DenseMatrix<T>>,
    b_host: Vec<Vec<T>>,
    /// The host reinversion every lane's refactorize runs through; its
    /// `B⁻¹` holds the last lane reinverted.
    factor: BasisFactor<T>,
    /// Host mirror of the device `basic_of_row` (basis bookkeeping needs
    /// the previous occupant of a row without a readback).
    basic_of_row_host: Vec<Vec<usize>>,
}

impl<'g, T: Scalar> BatchKernelBackend<'g, T> {
    /// Upload a same-shape family. Panics on shape disagreement (grouping
    /// happens before construction); device faults surface as errors.
    pub fn try_new(gpu: &'g Gpu, members: &[BatchMember<'_, T>]) -> Result<Self, BackendError> {
        assert!(!members.is_empty(), "empty mega-batch family");
        let m = members[0].a.rows();
        let ncols = members[0].a.cols();
        let n_active = members[0].n_active;
        let width = members.len();
        let mut a_host = Vec::with_capacity(width);
        let mut b_host = Vec::with_capacity(width);
        let mut basic_of_row_host = Vec::with_capacity(width);
        for (i, mem) in members.iter().enumerate() {
            assert_eq!(mem.a.rows(), m, "member {i} row count mismatch");
            assert_eq!(mem.a.cols(), ncols, "member {i} column count mismatch");
            assert_eq!(mem.n_active, n_active, "member {i} active-column mismatch");
            assert_eq!(mem.b.len(), m, "member {i} rhs length mismatch");
            assert_eq!(mem.basis0.len(), m, "member {i} basis length mismatch");
            a_host.push(mem.a.clone());
            b_host.push(mem.b.to_vec());
            basic_of_row_host.push(mem.basis0.to_vec());
        }
        let soa = DenseBatchLayout::pack(&a_host);
        let a = gpu.try_htod(soa.as_slice())?;
        let mut binv_h = vec![T::ZERO; m * m * width];
        for b in 0..width {
            for i in 0..m {
                binv_h[(i + i * m) * width + b] = T::ONE;
            }
        }
        let binv = gpu.try_htod(&binv_h)?;
        let b_refs: Vec<&[T]> = b_host.iter().map(|v| v.as_slice()).collect();
        let beta = gpu.try_htod(&pack_vectors(&b_refs))?;
        let mut basic_h = vec![0u32; ncols * width];
        let mut bor_h = vec![0u32; m * width];
        for (b, basis0) in basic_of_row_host.iter().enumerate() {
            for (r, &j) in basis0.iter().enumerate() {
                basic_h[j * width + b] = 1;
                bor_h[r * width + b] = j as u32;
            }
        }
        let basic = gpu.try_htod(&basic_h)?;
        let basic_of_row = gpu.try_htod(&bor_h)?;
        Ok(BatchKernelBackend {
            gpu,
            width,
            m,
            n_active,
            a,
            binv,
            beta,
            pi: gpu.try_alloc(m * width, T::ZERO)?,
            alpha: gpu.try_alloc(m * width, T::ZERO)?,
            d: gpu.try_alloc(n_active * width, T::ZERO)?,
            costs: gpu.try_alloc(n_active * width, T::ZERO)?,
            cb: gpu.try_alloc(m * width, T::ZERO)?,
            basic,
            basic_of_row,
            ctl: gpu.try_alloc(width, 0u32)?,
            mask: gpu.try_alloc(width, 0u32)?,
            mask_host: vec![0u32; width],
            q_sel: gpu.try_alloc(width, u32::MAX)?,
            dq: gpu.try_alloc(width, T::ZERO)?,
            p_sel: gpu.try_alloc(width, u32::MAX)?,
            theta: gpu.try_alloc(width, T::ZERO)?,
            obj: gpu.try_alloc(width, T::ZERO)?,
            a_host,
            b_host,
            factor: BasisFactor::new(0),
            basic_of_row_host,
        })
    }

    /// The device handle (counter snapshots, round accounting).
    pub fn gpu(&self) -> &'g Gpu {
        self.gpu
    }

    /// Family width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Rows per member.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Pricing-eligible columns per member.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Borrow one lane as a full [`Backend`] for irregular per-member work.
    pub fn lane<'a>(&'a mut self, lane: usize) -> LaneView<'a, 'g, T> {
        assert!(lane < self.width, "lane out of range");
        LaneView { be: self, lane }
    }

    fn lane_cfg(&self) -> LaunchConfig {
        LaunchConfig::for_elems(self.width, BLOCK.min(32))
    }

    /// Upload the per-lane convergence/Bland mask (one transfer).
    pub fn upload_ctl(&mut self, ctl: &[u32]) -> Result<(), BackendError> {
        self.gpu.try_htod_into(ctl, &mut self.ctl)?;
        Ok(())
    }

    /// Upload the per-round pivot/update gate (one transfer).
    pub fn upload_mask(&mut self, mask: &[u32]) -> Result<(), BackendError> {
        self.gpu.try_htod_into(mask, &mut self.mask)?;
        self.mask_host.copy_from_slice(mask);
        Ok(())
    }

    /// One fused pricing chain for all `ctl`-gated lanes: BTRAN, reduced
    /// costs, entering selection — then one download each of the selected
    /// columns and their reduced costs.
    pub fn mega_price(&mut self, lanes: u64, tol: T) -> Result<(Vec<u32>, Vec<T>), BackendError> {
        let cfg = self.lane_cfg();
        let mut fl = self.gpu.try_begin_fused("mega_price")?;
        fl.launch(
            cfg,
            &BatchBtranK {
                binv: self.binv.view(),
                cb: self.cb.view(),
                pi: self.pi.view_mut(),
                gate: self.ctl.view(),
                only: ALL_LANES,
                width: self.width,
                m: self.m,
                lanes,
            },
        );
        fl.launch(
            cfg,
            &BatchPriceK {
                a: self.a.view(),
                pi: self.pi.view(),
                costs: self.costs.view(),
                d: self.d.view_mut(),
                gate: self.ctl.view(),
                only: ALL_LANES,
                width: self.width,
                m: self.m,
                start: 0,
                len: self.n_active,
                lanes,
            },
        );
        fl.launch(
            cfg,
            &BatchSelectK {
                d: self.d.view(),
                basic: self.basic.view(),
                q_sel: self.q_sel.view_mut(),
                dq: self.dq.view_mut(),
                tol,
                rule: SelectRule::PerLane,
                gate: self.ctl.view(),
                only: ALL_LANES,
                width: self.width,
                n_active: self.n_active,
                start: 0,
                len: self.n_active,
                lanes,
            },
        );
        fl.finish();
        let q = self.gpu.try_dtoh(&self.q_sel)?;
        let dq = self.gpu.try_dtoh(&self.dq)?;
        Ok((q, dq))
    }

    /// One FTRAN launch for all `mask`-gated lanes.
    pub fn mega_ftran(&mut self, lanes: u64) -> Result<(), BackendError> {
        let cfg = self.lane_cfg();
        self.gpu.try_launch(
            cfg,
            &BatchFtranK {
                binv: self.binv.view(),
                a: self.a.view(),
                q_sel: self.q_sel.view(),
                alpha: self.alpha.view_mut(),
                q_override: ALL_LANES,
                gate: self.mask.view(),
                only: ALL_LANES,
                width: self.width,
                m: self.m,
                lanes,
            },
        )?;
        poison_lane_if_corrupted(
            self.gpu,
            &self.alpha.view_mut(),
            &self.mask_host,
            self.m,
            self.width,
        );
        Ok(())
    }

    /// One ratio-test launch for all `mask`-gated lanes, then one download
    /// each of the leaving rows and step lengths.
    pub fn mega_ratio(
        &mut self,
        lanes: u64,
        pivot_tol: T,
    ) -> Result<(Vec<u32>, Vec<T>), BackendError> {
        let cfg = self.lane_cfg();
        self.gpu.try_launch(
            cfg,
            &BatchRatioK {
                alpha: self.alpha.view(),
                beta: self.beta.view(),
                p_sel: self.p_sel.view_mut(),
                theta: self.theta.view_mut(),
                pivot_tol,
                gate: self.mask.view(),
                only: ALL_LANES,
                width: self.width,
                m: self.m,
                lanes,
            },
        )?;
        let p = self.gpu.try_dtoh(&self.p_sel)?;
        let th = self.gpu.try_dtoh(&self.theta)?;
        Ok((p, th))
    }

    /// One fused update chain (β/`B⁻¹` pivot + basis bookkeeping) for all
    /// `mask`-gated lanes. `q` and `p` are the selections already downloaded
    /// by `mega_price`/`mega_ratio` this round — used to keep the host
    /// `basic_of_row` mirror in sync without another readback.
    pub fn mega_update(
        &mut self,
        lanes: u64,
        mask: &[u32],
        q: &[u32],
        p: &[u32],
    ) -> Result<(), BackendError> {
        let cfg = self.lane_cfg();
        let mut fl = self.gpu.try_begin_fused("mega_update")?;
        fl.launch(
            cfg,
            &BatchPivotK {
                binv: self.binv.view_mut(),
                beta: self.beta.view_mut(),
                alpha: self.alpha.view(),
                p_sel: self.p_sel.view(),
                theta_sel: self.theta.view(),
                p_override: ALL_LANES,
                theta_override: T::ZERO,
                gate: self.mask.view(),
                only: ALL_LANES,
                width: self.width,
                m: self.m,
                lanes,
            },
        );
        fl.launch(
            cfg,
            &BatchBookK {
                q_sel: self.q_sel.view(),
                p_sel: self.p_sel.view(),
                basic: self.basic.view_mut(),
                basic_of_row: self.basic_of_row.view_mut(),
                cb: self.cb.view_mut(),
                costs: self.costs.view(),
                fixed: None,
                gate: self.mask.view(),
                only: ALL_LANES,
                width: self.width,
                lanes,
            },
        );
        fl.finish();
        poison_lane_if_corrupted(self.gpu, &self.beta.view_mut(), mask, self.m, self.width);
        // The device bookkeeping kernel just rewired lanes' bases; keep the
        // host mirror in sync from the already-downloaded selections.
        for b in 0..self.width {
            if mask[b] != 0 && q[b] != u32::MAX && p[b] != u32::MAX {
                self.basic_of_row_host[b][p[b] as usize] = q[b] as usize;
            }
        }
        Ok(())
    }
}

/// A single lane of a [`BatchKernelBackend`], presented as a full
/// [`Backend`]. Kernels run with `only = lane`, so the rest of the family
/// is untouched (and uncharged beyond the shared device clock).
pub struct LaneView<'a, 'g, T: Scalar> {
    be: &'a mut BatchKernelBackend<'g, T>,
    lane: usize,
}

impl<T: Scalar> LaneView<'_, '_, T> {
    fn w(&self) -> usize {
        self.be.width
    }

    /// Install `src` as this lane's slice of the SoA vector `dst`: one
    /// staged upload and one scatter launch.
    fn scatter(&self, src: &[T], dst: DViewMut<T>) -> Result<(), BackendError> {
        let stage = self.be.gpu.try_htod(src)?;
        self.be.gpu.try_launch(
            LaunchConfig::for_elems(src.len(), BLOCK),
            &LaneScatterK {
                src: stage.view(),
                dst,
                lane: self.lane,
                offset: 0,
                width: self.be.width,
                len: src.len(),
            },
        )?;
        Ok(())
    }
}

impl<T: Scalar> Backend<T> for LaneView<'_, '_, T> {
    fn name(&self) -> &'static str {
        "batch-kernel"
    }

    fn clock(&self) -> SimTime {
        self.be.gpu.elapsed()
    }

    fn m(&self) -> usize {
        self.be.m
    }

    fn n_active(&self) -> usize {
        self.be.n_active
    }

    fn set_phase_costs(&mut self, c: &[T]) -> Result<(), BackendError> {
        assert!(c.len() >= self.be.n_active, "phase costs too short");
        let n = self.be.n_active;
        let dst = self.be.costs.view_mut();
        self.scatter(&c[..n], dst)
    }

    fn set_basic_costs(&mut self, cb: &[T]) -> Result<(), BackendError> {
        let dst = self.be.cb.view_mut();
        self.scatter(cb, dst)
    }

    fn compute_btran(&mut self) -> Result<(), BackendError> {
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchBtranK {
                binv: self.be.binv.view(),
                cb: self.be.cb.view(),
                pi: self.be.pi.view_mut(),
                gate: self.be.ctl.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                lanes: 1,
            },
        )?;
        Ok(())
    }

    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError> {
        assert!(
            start + len <= self.be.n_active,
            "pricing window out of range"
        );
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchPriceK {
                a: self.be.a.view(),
                pi: self.be.pi.view(),
                costs: self.be.costs.view(),
                d: self.be.d.view_mut(),
                gate: self.be.ctl.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                start,
                len,
                lanes: 1,
            },
        )?;
        Ok(())
    }

    fn entering_dantzig_window(
        &mut self,
        tol: T,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, T)>, BackendError> {
        self.select(tol, SelectRule::Dantzig, start, len)
    }

    fn entering_bland(&mut self, tol: T) -> Result<Option<(usize, T)>, BackendError> {
        self.select(tol, SelectRule::Bland, 0, self.be.n_active)
    }

    fn compute_alpha(&mut self, q: usize) -> Result<(), BackendError> {
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchFtranK {
                binv: self.be.binv.view(),
                a: self.be.a.view(),
                q_sel: self.be.q_sel.view(),
                alpha: self.be.alpha.view_mut(),
                q_override: q,
                gate: self.be.mask.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                lanes: 1,
            },
        )?;
        Ok(())
    }

    fn ratio_test(&mut self, pivot_tol: T) -> Result<RatioOutcome<T>, BackendError> {
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchRatioK {
                alpha: self.be.alpha.view(),
                beta: self.be.beta.view(),
                p_sel: self.be.p_sel.view_mut(),
                theta: self.be.theta.view_mut(),
                pivot_tol,
                gate: self.be.mask.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                lanes: 1,
            },
        )?;
        let p = self.be.gpu.try_dtoh_range(&self.be.p_sel, self.lane, 1)?[0];
        if p == u32::MAX {
            return Ok(RatioOutcome::Unbounded);
        }
        let theta = self.be.gpu.try_dtoh_range(&self.be.theta, self.lane, 1)?[0];
        Ok(RatioOutcome::Pivot {
            p: p as usize,
            theta,
        })
    }

    fn pivot(&mut self, p: usize, q: usize, theta: T, cost: T) -> Result<(), BackendError> {
        let cfg = self.be.lane_cfg();
        let mut fl = self.be.gpu.try_begin_fused("lane_pivot")?;
        fl.launch(
            cfg,
            &BatchPivotK {
                binv: self.be.binv.view_mut(),
                beta: self.be.beta.view_mut(),
                alpha: self.be.alpha.view(),
                p_sel: self.be.p_sel.view(),
                theta_sel: self.be.theta.view(),
                p_override: p,
                theta_override: theta,
                gate: self.be.mask.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                lanes: 1,
            },
        );
        fl.launch(
            cfg,
            &BatchBookK {
                q_sel: self.be.q_sel.view(),
                p_sel: self.be.p_sel.view(),
                basic: self.be.basic.view_mut(),
                basic_of_row: self.be.basic_of_row.view_mut(),
                cb: self.be.cb.view_mut(),
                costs: self.be.costs.view(),
                fixed: Some((p, q, cost)),
                gate: self.be.mask.view(),
                only: self.lane,
                width: self.be.width,
                lanes: 1,
            },
        );
        fl.finish();
        self.be.basic_of_row_host[self.lane][p] = q;
        Ok(())
    }

    fn beta(&mut self) -> Result<Vec<T>, BackendError> {
        let m = self.be.m;
        let mut stage = self.be.gpu.try_alloc(m, T::ZERO)?;
        self.be.gpu.try_launch(
            LaunchConfig::for_elems(m, BLOCK),
            &LaneGatherK {
                src: self.be.beta.view(),
                dst: stage.view_mut(),
                lane: self.lane,
                offset: 0,
                width: self.be.width,
                len: m,
            },
        )?;
        Ok(self.be.gpu.try_dtoh(&stage)?)
    }

    fn objective_now(&mut self) -> Result<T, BackendError> {
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchObjK {
                cb: self.be.cb.view(),
                beta: self.be.beta.view(),
                obj: self.be.obj.view_mut(),
                gate: self.be.ctl.view(),
                only: self.lane,
                width: self.be.width,
                m: self.be.m,
                lanes: 1,
            },
        )?;
        Ok(self.be.gpu.try_dtoh_range(&self.be.obj, self.lane, 1)?[0])
    }

    fn refactorize(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        let m = self.be.m;
        // Basis mirror: one staged upload and one rebase kernel, skipped
        // when the lane already holds this basis.
        if self.be.basic_of_row_host[self.lane] != basis {
            let xb: Vec<u32> = basis.iter().map(|&j| j as u32).collect();
            let stage = self.be.gpu.try_htod(&xb)?;
            self.be.gpu.try_launch(
                LaunchConfig::for_elems(1, 1),
                &LaneRebaseK {
                    basis: stage.view(),
                    basic: self.be.basic.view_mut(),
                    basic_of_row: self.be.basic_of_row.view_mut(),
                    lane: self.lane,
                    width: self.be.width,
                    m,
                },
            )?;
            self.be.basic_of_row_host[self.lane].copy_from_slice(basis);
        }
        // The shared host reinversion (and its modeled CPU charge), then
        // the lane's slices of the SoA `B⁻¹` and `β` are rewritten by
        // scatter kernels.
        let mut beta = vec![T::ZERO; m];
        let be = &mut *self.be;
        let t = be.factor.refactorize(
            &be.a_host[self.lane],
            basis,
            &be.b_host[self.lane],
            &mut beta,
        )?;
        be.gpu.charge(TimeCategory::KernelBody, t);
        let dst = self.be.binv.view_mut();
        self.scatter(self.be.factor.inv.as_slice(), dst)?;
        let dst = self.be.beta.view_mut();
        self.scatter(&beta, dst)
    }

    fn alpha_at(&mut self, i: usize) -> Result<T, BackendError> {
        let k = i * self.w() + self.lane;
        Ok(self.be.gpu.try_dtoh_range(&self.be.alpha, k, 1)?[0])
    }
}

impl<T: Scalar> LaneView<'_, '_, T> {
    fn select(
        &mut self,
        tol: T,
        rule: SelectRule,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, T)>, BackendError> {
        let cfg = self.be.lane_cfg();
        self.be.gpu.try_launch(
            cfg,
            &BatchSelectK {
                d: self.be.d.view(),
                basic: self.be.basic.view(),
                q_sel: self.be.q_sel.view_mut(),
                dq: self.be.dq.view_mut(),
                tol,
                rule,
                gate: self.be.ctl.view(),
                only: self.lane,
                width: self.be.width,
                n_active: self.be.n_active,
                start,
                len,
                lanes: 1,
            },
        )?;
        let q = self.be.gpu.try_dtoh_range(&self.be.q_sel, self.lane, 1)?[0];
        if q == u32::MAX {
            return Ok(None);
        }
        let dq = self.be.gpu.try_dtoh_range(&self.be.dq, self.lane, 1)?[0];
        Ok(Some((q as usize, dq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::CpuDenseBackend;
    use crate::options::SolverOptions;
    use crate::revised::RevisedSimplex;
    use gpu_sim::DeviceSpec;
    use lp::generator;
    use lp::StandardForm;

    /// A width-1 lane view behind the unchanged `RevisedSimplex` driver
    /// reproduces the CPU dense backend's pivot path bitwise.
    #[test]
    fn width_one_lane_matches_cpu_dense_bitwise() {
        for seed in [1u64, 7, 23] {
            let model = generator::dense_random(6, 9, seed);
            let sf = StandardForm::<f64>::from_lp(&model).expect("standardizes");
            let opts = SolverOptions {
                presolve: false,
                scale: false,
                ..Default::default()
            };

            let n_active = sf.num_cols() - sf.num_artificials;
            let mut cpu = CpuDenseBackend::<f64>::new(&sf.a, &sf.b, n_active, &sf.basis0);
            let cpu_res = RevisedSimplex::new(
                &mut cpu,
                &sf,
                &opts,
                crate::Start::Cold,
                None,
                None::<&mut crate::NoopRecorder>,
            )
            .solve();

            let gpu = Gpu::new(DeviceSpec::gtx280());
            let members = [BatchMember {
                a: &sf.a,
                b: &sf.b,
                n_active,
                basis0: &sf.basis0,
            }];
            let mut batch = BatchKernelBackend::try_new(&gpu, &members).expect("builds");
            let mut lane = batch.lane(0);
            let lane_res = RevisedSimplex::new(
                &mut lane,
                &sf,
                &opts,
                crate::Start::Cold,
                None,
                None::<&mut crate::NoopRecorder>,
            )
            .solve();

            assert_eq!(cpu_res.status, lane_res.status);
            assert_eq!(cpu_res.basis, lane_res.basis);
            assert_eq!(
                cpu_res.stats.pivot_fingerprint,
                lane_res.stats.pivot_fingerprint
            );
            assert_eq!(cpu_res.z_std.to_bits(), lane_res.z_std.to_bits());
            for (a, b) in cpu_res.x_std.iter().zip(&lane_res.x_std) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
