//! The paper's implementation: dense revised simplex on the (simulated)
//! GPU.
//!
//! Device-resident state: the active constraint matrix `A` (column-major so
//! the one-thread-per-row kernels coalesce), the explicit basis inverse
//! `B⁻¹`, the iterate vectors, the pricing costs, and a `u32` mirror of the
//! basis for masking. Per iteration the backend issues the same kernel
//! sequence the paper describes — two-pass transposed gemv for `π` and `d`,
//! reductions for the argmins, one gemv for FTRAN, elementwise ratio, and
//! the O(m²) eta kernel for `B⁻¹` — every launch and every PCIe round-trip
//! charged by the simulator.
//!
//! Between host decisions the backend moves no data: a pivot's basis
//! bookkeeping (`xb[p] = q`, `c_B[p] = cost`) is a one-thread kernel in the
//! update group with its operands as kernel arguments, and a reinversion is
//! one launch group — gather `[B | I]`, Gauss–Jordan with device-side
//! partial pivoting, `β = B⁻¹b` — whose only readback is a guard word. The
//! host inversion runs only when that guard is raised.

use gpu_sim::{
    BufferPool, DeviceBuffer, FusedLaunch, Gpu, LaunchConfig, Launcher, SimTime, TimeCategory,
};
use linalg::gpu::{self as gblas, DeviceMatrix, GemvTStrategy, Layout};
use linalg::{CscMatrix, Scalar};

use super::gpu_kernels::{
    BasisBookK, BuildEtaK, EtaBtranK, EtaFtranK, GatherAtK, GuardedClampK, MapNegIdxK, MaskBasicK,
    RatioK, UpdateBetaK,
};
use crate::backend::{Backend, LuReport, RatioOutcome};
use crate::basis::BasisFactor;
use crate::error::BackendError;
use crate::options::BasisRepresentation;

const BLOCK: u32 = 128;

/// Dense simulated-GPU backend.
pub struct GpuDenseBackend<'g, T: Scalar> {
    gpu: &'g Gpu,
    /// Host copy of the *full* matrix (refactorization needs artificials).
    a_host: CscMatrix<T>,
    b_host: Vec<T>,
    /// Device copy of the active columns only.
    a_dev: DeviceMatrix<T>,
    binv: DeviceMatrix<T>,
    beta: DeviceBuffer<T>,
    pi: DeviceBuffer<T>,
    d: DeviceBuffer<T>,
    alpha: DeviceBuffer<T>,
    ratios: DeviceBuffer<T>,
    costs: DeviceBuffer<T>,
    cb: DeviceBuffer<T>,
    /// Device basis mirror: the column basic in each row.
    xb: DeviceBuffer<u32>,
    /// Host copy of `xb`, kept in step by every pivot and reinversion, so
    /// a reinversion onto the current basis uploads nothing.
    xb_host: Vec<usize>,
    /// For each artificial column `n_active + t`: the row of its `+1`, or
    /// `u32::MAX` when it is not a unit column. Computed once; the device
    /// reinversion gathers artificial basis columns from it.
    unit_rows: DeviceBuffer<u32>,
    n_active: usize,
    m: usize,
    /// Layout of the device matrices (col-major normally; row-major for
    /// the F4 coalescing ablation).
    layout: Layout,
    /// Transposed-gemv strategy (two-pass coalesced vs. naive).
    gemv_t_strategy: GemvTStrategy,
    /// Split-K strip count of `gemv_n` on the m × m `B⁻¹` (FTRAN and
    /// β = B⁻¹b), derived once from the device and `m`.
    binv_strips: usize,
    /// Two-slot scalar staging buffer: fused probe chains write
    /// `(value, index)` here so each per-iteration pivot probe comes back
    /// in one batched PCIe transfer instead of one per reduction.
    stage: DeviceBuffer<T>,
    /// Charge each per-iteration kernel chain as one fused launch group
    /// (one launch overhead for the whole chain). Arithmetic is identical
    /// either way; only the accounting differs.
    fuse: bool,
    /// Device-resident eta chain (pivot row + eta column), oldest first.
    etas: Vec<(usize, DeviceBuffer<T>)>,
    /// Recycles retired eta buffers across reinversions so the steady
    /// state allocates nothing (the device eta memory manager).
    pool: BufferPool<T>,
    /// Length-m scratch: the BTRAN eta sweep's `c_B` working copy, and `b`
    /// during a device reinversion.
    work: DeviceBuffer<T>,
    /// Length-m ping-pong partner for the FTRAN eta sweep over `α`, and the
    /// fresh `B⁻¹b` during a device reinversion.
    alpha_tmp: DeviceBuffer<T>,
    /// The host factor (with the representation in effect): SparseLU's
    /// factors at every reinversion, `B⁻¹` when the device guard falls back.
    factor: BasisFactor<T>,
    /// Device mirror of the factor's SparseLU factors, re-uploaded at each
    /// reinversion.
    lu_dev: Option<gblas::DeviceLu<T>>,
    /// Length-m device scratch for the LU triangular solves.
    lu_scratch: DeviceBuffer<T>,
}

impl<'g, T: Scalar> GpuDenseBackend<'g, T> {
    /// Build with the paper's configuration: col-major device matrices and
    /// the coalesced two-pass transposed gemv. Panics on a device fault
    /// during setup; prefer [`Self::try_new`] where faults are in play.
    pub fn new(gpu: &'g Gpu, a: &CscMatrix<T>, b: &[T], n_active: usize, basis0: &[usize]) -> Self {
        Self::try_new(gpu, a, b, n_active, basis0)
            .unwrap_or_else(|e| panic!("{e} while building GPU backend"))
    }

    /// Fallible [`Self::new`]: a device fault during the initial uploads /
    /// allocations surfaces as [`BackendError::Device`] instead of a panic,
    /// so the solver reports it as a device error, not a crash.
    pub fn try_new(
        gpu: &'g Gpu,
        a: &CscMatrix<T>,
        b: &[T],
        n_active: usize,
        basis0: &[usize],
    ) -> Result<Self, BackendError> {
        Self::try_with_layout(
            gpu,
            a,
            b,
            n_active,
            basis0,
            Layout::ColMajor,
            GemvTStrategy::TwoPass,
        )
    }

    /// Build with an explicit layout/strategy (coalescing ablation).
    /// Panicking wrapper around [`Self::try_with_layout`].
    pub fn with_layout(
        gpu: &'g Gpu,
        a: &CscMatrix<T>,
        b: &[T],
        n_active: usize,
        basis0: &[usize],
        layout: Layout,
        gemv_t_strategy: GemvTStrategy,
    ) -> Self {
        Self::try_with_layout(gpu, a, b, n_active, basis0, layout, gemv_t_strategy)
            .unwrap_or_else(|e| panic!("{e} while building GPU backend"))
    }

    /// Fallible [`Self::with_layout`]: every setup upload and allocation
    /// goes through the `try_*` device API and propagates
    /// [`BackendError::Device`].
    pub fn try_with_layout(
        gpu: &'g Gpu,
        a: &CscMatrix<T>,
        b: &[T],
        n_active: usize,
        basis0: &[usize],
        layout: Layout,
        gemv_t_strategy: GemvTStrategy,
    ) -> Result<Self, BackendError> {
        let m = a.rows();
        assert_eq!(b.len(), m, "rhs length mismatch");
        assert!(n_active <= a.cols(), "n_active exceeds column count");
        if layout == Layout::RowMajor {
            assert_eq!(
                gemv_t_strategy,
                GemvTStrategy::Naive,
                "two-pass gemv_t requires col-major storage"
            );
        }
        let a_dev = DeviceMatrix::upload(gpu, &a.to_dense_cols(n_active), layout)?;
        let binv = DeviceMatrix::identity(gpu, m, layout)?;
        let beta = gpu.try_htod(b)?;
        let pi = gpu.try_alloc(m, T::ZERO)?;
        let d = gpu.try_alloc(n_active, T::ZERO)?;
        let alpha = gpu.try_alloc(m, T::ZERO)?;
        let ratios = gpu.try_alloc(m, T::ZERO)?;
        let costs = gpu.try_alloc(n_active, T::ZERO)?;
        let cb = gpu.try_alloc(m, T::ZERO)?;
        let xb_u32: Vec<u32> = basis0.iter().map(|&j| j as u32).collect();
        let xb = gpu.try_htod(&xb_u32)?;
        let unit_rows: Vec<u32> = (n_active..a.cols())
            .map(|j| basis_artificial_row(a, j).map_or(u32::MAX, |r| r as u32))
            .collect();
        let unit_rows = gpu.try_htod(&unit_rows)?;
        let stage = gpu.try_alloc(2, T::ZERO)?;
        let work = gpu.try_alloc(m, T::ZERO)?;
        let alpha_tmp = gpu.try_alloc(m, T::ZERO)?;
        let lu_scratch = gpu.try_alloc(m, T::ZERO)?;
        Ok(GpuDenseBackend {
            gpu,
            a_host: a.clone(),
            b_host: b.to_vec(),
            a_dev,
            binv,
            beta,
            pi,
            d,
            alpha,
            ratios,
            costs,
            cb,
            xb,
            xb_host: basis0.to_vec(),
            unit_rows,
            n_active,
            m,
            layout,
            gemv_t_strategy,
            binv_strips: gblas::gemv_n_strips::<T>(gpu.spec(), layout, m, m),
            stage,
            fuse: true,
            etas: Vec::new(),
            pool: BufferPool::new(),
            work,
            alpha_tmp,
            factor: BasisFactor::new(0),
            lu_dev: None,
            lu_scratch,
        })
    }

    /// The device handle (for counter snapshots in experiments).
    pub fn gpu(&self) -> &Gpu {
        self.gpu
    }

    /// Toggle fused launch accounting (the F6 ablation switch). Default on.
    pub fn set_fuse_launches(&mut self, on: bool) {
        self.fuse = on;
    }
}

impl<T: Scalar> Backend<T> for GpuDenseBackend<'_, T> {
    fn name(&self) -> &'static str {
        "gpu-dense"
    }

    fn clock(&self) -> SimTime {
        self.gpu.elapsed()
    }

    fn m(&self) -> usize {
        self.m
    }

    fn n_active(&self) -> usize {
        self.n_active
    }

    fn set_phase_costs(&mut self, c: &[T]) -> Result<(), BackendError> {
        assert!(c.len() >= self.n_active, "phase costs too short");
        self.gpu
            .try_htod_into(&c[..self.n_active], &mut self.costs)?;
        Ok(())
    }

    fn set_basic_costs(&mut self, cb: &[T]) -> Result<(), BackendError> {
        self.gpu.try_htod_into(cb, &mut self.cb)?;
        Ok(())
    }

    fn compute_btran(&mut self) -> Result<(), BackendError> {
        if self.factor.rep == BasisRepresentation::SparseLU {
            // π = B₀⁻ᵀ (E_k…E_1)ᵀ c_B: eta sweep newest-first, then two
            // sparse triangular solves against the resident factors. With
            // no factorization yet, B₀ = I and the solves vanish.
            gblas::copy(self.gpu, self.cb.view(), self.work.view_mut())?;
            for (p, eta) in self.etas.iter().rev() {
                self.gpu.try_launch(
                    LaunchConfig::for_elems(self.m, BLOCK),
                    &EtaBtranK {
                        y: self.work.view_mut(),
                        eta: eta.view(),
                        p: *p,
                        m: self.m,
                    },
                )?;
            }
            if let Some(lu_dev) = &self.lu_dev {
                lu_dev
                    .btran(self.gpu, self.work.view_mut(), self.lu_scratch.view_mut())
                    .map_err(BackendError::Device)?;
            }
            gblas::copy(self.gpu, self.work.view(), self.pi.view_mut())?;
            return Ok(());
        }
        // π = c_Bᵀ B⁻¹  ⇔  π = (B⁻¹)ᵀ c_B.
        let mut fl = open_group(self.gpu, self.fuse, "btran_fused")?;
        gblas::gemv_t_on(
            &mut launcher(self.gpu, &mut fl),
            T::ONE,
            &self.binv,
            self.cb.view(),
            T::ZERO,
            self.pi.view_mut(),
            self.gemv_t_strategy,
        )?;
        if let Some(fl) = fl {
            fl.finish();
        }
        Ok(())
    }

    fn compute_pricing_window(&mut self, start: usize, len: usize) -> Result<(), BackendError> {
        assert!(start + len <= self.n_active, "pricing window out of range");
        // d[start..start+len] = c[window] − A[:, window]ᵀπ. The column-block
        // product needs contiguous columns (col-major); the row-major
        // ablation backend always prices the full range.
        let mut fl = open_group(self.gpu, self.fuse, "pricing_fused")?;
        let mut l = launcher(self.gpu, &mut fl);
        match self.layout {
            Layout::ColMajor => {
                gblas::copy_on(
                    &mut l,
                    self.costs.view().subview(start, len),
                    self.d.view_mut().subview_mut(start, len),
                )?;
                gblas::gemv_t_cols_on(
                    &mut l,
                    -T::ONE,
                    &self.a_dev,
                    start,
                    len,
                    self.pi.view(),
                    T::ONE,
                    self.d.view_mut().subview_mut(start, len),
                    self.gemv_t_strategy,
                )?;
            }
            Layout::RowMajor => {
                gblas::copy_on(&mut l, self.costs.view(), self.d.view_mut())?;
                gblas::gemv_t_on(
                    &mut l,
                    -T::ONE,
                    &self.a_dev,
                    self.pi.view(),
                    T::ONE,
                    self.d.view_mut(),
                    self.gemv_t_strategy,
                )?;
            }
        }
        if let Some(fl) = fl {
            fl.finish();
        }
        Ok(())
    }

    fn entering_dantzig_window(
        &mut self,
        tol: T,
        start: usize,
        len: usize,
    ) -> Result<Option<(usize, T)>, BackendError> {
        assert!(
            start + len <= self.n_active,
            "selection window out of range"
        );
        let mask = MaskBasicK {
            d: self.d.view_mut(),
            xb: self.xb.view(),
            m: self.m,
            n_active: self.n_active,
        };
        let (v, q) = if self.fuse {
            // One fused group for mask + the whole argmin chain; the
            // (value, index) pair comes back in a single staged transfer.
            let mut fl = self.gpu.try_begin_fused("select_fused")?;
            let mut l = Launcher::Fused(&mut fl);
            l.try_launch(LaunchConfig::for_elems(self.m, BLOCK), &mask)?;
            gblas::argmin_into(
                &mut l,
                self.d.view().subview(start, len),
                len,
                &mut self.stage,
                0,
                1,
            )?;
            fl.finish();
            let s = self.gpu.try_dtoh_range(&self.stage, 0, 2)?;
            (s[0], s[1].to_f64() as usize)
        } else {
            // Kept as its own arm, unlike BTRAN and pricing: unfused, the
            // era's codes read each reduction back on its own, so host
            // `argmin` makes two D2H reads where the staged path makes one.
            self.gpu
                .try_launch(LaunchConfig::for_elems(self.m, BLOCK), &mask)?;
            let (v, q) = gblas::argmin(self.gpu, self.d.view().subview(start, len), len)?;
            (v, q as usize)
        };
        Ok(if v < -tol { Some((start + q, v)) } else { None })
    }

    fn entering_bland(&mut self, tol: T) -> Result<Option<(usize, T)>, BackendError> {
        let mask = MaskBasicK {
            d: self.d.view_mut(),
            xb: self.xb.view(),
            m: self.m,
            n_active: self.n_active,
        };
        let mut idx = self.gpu.try_alloc(self.n_active, u32::MAX)?;
        let map = MapNegIdxK {
            d: self.d.view(),
            tol,
            out: idx.view_mut(),
            n: self.n_active,
        };
        if self.fuse {
            // Mask + map + index min-reduce + the d_q gather as one fused
            // group; (q, d_q) returns in a single staged transfer.
            let mut fl = self.gpu.try_begin_fused("bland_fused")?;
            let mut l = Launcher::Fused(&mut fl);
            l.try_launch(LaunchConfig::for_elems(self.m, BLOCK), &mask)?;
            l.try_launch(LaunchConfig::for_elems(self.n_active, BLOCK), &map)?;
            gblas::reduce_u32_min_into(
                &mut l,
                idx.view(),
                self.n_active,
                self.stage.view_mut().subview_mut(0, 1),
            )?;
            l.try_launch(
                LaunchConfig::for_elems(1, 1),
                &GatherAtK {
                    src: self.d.view(),
                    idx: self.stage.view().subview(0, 1),
                    out: self.stage.view_mut().subview_mut(1, 1),
                    n: self.n_active,
                },
            )?;
            fl.finish();
            let s = self.gpu.try_dtoh_range(&self.stage, 0, 2)?;
            // u32::MAX (no candidate) stages as 2³², past any real index.
            if s[0].to_f64() >= self.n_active as f64 {
                return Ok(None);
            }
            Ok(Some((s[0].to_f64() as usize, s[1])))
        } else {
            // Kept as its own arm: unfused, the index reduction and d_q come
            // back in two D2H reads where the staged path makes one.
            self.gpu
                .try_launch(LaunchConfig::for_elems(self.m, BLOCK), &mask)?;
            self.gpu
                .try_launch(LaunchConfig::for_elems(self.n_active, BLOCK), &map)?;
            let q = gblas::reduce_u32_min(self.gpu, idx.view(), self.n_active)?;
            if q == u32::MAX {
                return Ok(None);
            }
            // Fetch d_q (one scalar over PCIe, as the era's codes did).
            let dq = self.gpu.try_dtoh_range(&self.d, q as usize, 1)?[0];
            Ok(Some((q as usize, dq)))
        }
    }

    fn compute_alpha(&mut self, q: usize) -> Result<(), BackendError> {
        assert!(q < self.n_active, "entering column out of active range");
        if self.factor.rep == BasisRepresentation::SparseLU {
            // α = E_k…E_1 B₀⁻¹ a_q: seed α with the entering column, two
            // sparse triangular solves, then the eta sweep oldest-first.
            match self.layout {
                Layout::ColMajor => {
                    gblas::copy(self.gpu, self.a_dev.col_view(q), self.alpha.view_mut())?;
                }
                Layout::RowMajor => {
                    self.gpu.try_launch(
                        LaunchConfig::for_elems(self.m, BLOCK),
                        &ColExtractRowMajorK {
                            mat: self.a_dev.view(),
                            rows: self.m,
                            cols: self.n_active,
                            j: q,
                            out: self.alpha.view_mut(),
                        },
                    )?;
                }
            }
            if let Some(lu_dev) = &self.lu_dev {
                lu_dev
                    .ftran(self.gpu, self.alpha.view_mut(), self.lu_scratch.view_mut())
                    .map_err(BackendError::Device)?;
            }
            for (p, eta) in &self.etas {
                self.gpu.try_launch(
                    LaunchConfig::for_elems(self.m, BLOCK),
                    &EtaFtranK {
                        x: self.alpha.view(),
                        eta: eta.view(),
                        p: *p,
                        out: self.alpha_tmp.view_mut(),
                        m: self.m,
                    },
                )?;
                std::mem::swap(&mut self.alpha, &mut self.alpha_tmp);
            }
            return Ok(());
        }
        // α = B⁻¹a_q: the split-K gemv (plus, row-major, the column
        // extraction) as one fused group.
        let mut fl = open_group(self.gpu, self.fuse, "ftran_fused")?;
        let mut l = launcher(self.gpu, &mut fl);
        match self.layout {
            Layout::ColMajor => {
                let aq = self.a_dev.col_view(q);
                gblas::gemv_n_split_on(
                    &mut l,
                    self.binv_strips,
                    T::ONE,
                    &self.binv,
                    aq,
                    T::ZERO,
                    self.alpha.view_mut(),
                )?;
            }
            Layout::RowMajor => {
                // No contiguous column view exists; extract the column with
                // a strided kernel first (honest extra cost of this layout).
                let mut aq = self.gpu.try_alloc(self.m, T::ZERO)?;
                l.try_launch(
                    LaunchConfig::for_elems(self.m, BLOCK),
                    &ColExtractRowMajorK {
                        mat: self.a_dev.view(),
                        rows: self.m,
                        cols: self.n_active,
                        j: q,
                        out: aq.view_mut(),
                    },
                )?;
                gblas::gemv_n_split_on(
                    &mut l,
                    self.binv_strips,
                    T::ONE,
                    &self.binv,
                    aq.view(),
                    T::ZERO,
                    self.alpha.view_mut(),
                )?;
            }
        }
        if let Some(fl) = fl {
            fl.finish();
        }
        Ok(())
    }

    fn ratio_test(&mut self, pivot_tol: T) -> Result<RatioOutcome<T>, BackendError> {
        if self.m == 0 {
            // Zero-row programs: nothing can block the entering variable.
            return Ok(RatioOutcome::Unbounded);
        }
        let ratio = RatioK {
            alpha: self.alpha.view(),
            beta: self.beta.view(),
            tol: pivot_tol,
            out: self.ratios.view_mut(),
            m: self.m,
        };
        let (theta, p) = if self.fuse {
            // Ratio map + argmin chain as one fused group; (θ, p) comes
            // back in a single staged transfer.
            let mut fl = self.gpu.try_begin_fused("ratio_fused")?;
            let mut l = Launcher::Fused(&mut fl);
            l.try_launch(LaunchConfig::for_elems(self.m, BLOCK), &ratio)?;
            gblas::argmin_into(&mut l, self.ratios.view(), self.m, &mut self.stage, 0, 1)?;
            fl.finish();
            let s = self.gpu.try_dtoh_range(&self.stage, 0, 2)?;
            (s[0], s[1].to_f64() as usize)
        } else {
            // Kept as its own arm: unfused, host `argmin` makes two D2H
            // reads (θ, then p) where the staged path makes one.
            self.gpu
                .try_launch(LaunchConfig::for_elems(self.m, BLOCK), &ratio)?;
            let (theta, p) = gblas::argmin(self.gpu, self.ratios.view(), self.m)?;
            (theta, p as usize)
        };
        Ok(if theta.is_finite() {
            RatioOutcome::Pivot { p, theta }
        } else {
            RatioOutcome::Unbounded
        })
    }

    fn pivot(&mut self, p: usize, q: usize, theta: T, cost: T) -> Result<(), BackendError> {
        let upd = UpdateBetaK {
            beta: self.beta.view_mut(),
            alpha: self.alpha.view(),
            theta,
            p,
            m: self.m,
        };
        let book = BasisBookK {
            xb: self.xb.view_mut(),
            cb: self.cb.view_mut(),
            p,
            q: q as u32,
            cost,
        };
        let sparse_lu = self.factor.rep == BasisRepresentation::SparseLU;
        // β update, then (SparseLU) the eta construction into a pooled
        // device buffer — the LU factors of B₀ are untouched, so no O(m²)
        // kernel — or (explicit) the rank-1 pivot chain (η scaling,
        // pivot-row extraction, elimination), then the bookkeeping. One
        // fused group when fusion is on.
        let mut eta = if sparse_lu {
            Some(self.pool.take(self.gpu, self.m, T::ZERO)?)
        } else {
            None
        };
        let name = if sparse_lu {
            "update_eta_fused"
        } else {
            "update_fused"
        };
        let mut fl = open_group(self.gpu, self.fuse, name)?;
        let mut l = launcher(self.gpu, &mut fl);
        l.try_launch(LaunchConfig::for_elems(self.m, BLOCK), &upd)?;
        match eta.as_mut() {
            Some(eta) => l.try_launch(
                LaunchConfig::for_elems(self.m, BLOCK),
                &BuildEtaK {
                    alpha: self.alpha.view(),
                    p,
                    out: eta.view_mut(),
                    m: self.m,
                },
            )?,
            None => gblas::pivot_update_on(&mut l, &mut self.binv, self.alpha.view(), p)?,
        }
        l.try_launch(LaunchConfig::for_elems(1, 1), &book)?;
        if let Some(fl) = fl {
            fl.finish();
        }
        if let Some(eta) = eta {
            self.etas.push((p, eta));
        }
        self.xb_host[p] = q;
        Ok(())
    }

    fn beta(&mut self) -> Result<Vec<T>, BackendError> {
        Ok(self.gpu.try_dtoh(&self.beta)?)
    }

    fn objective_now(&mut self) -> Result<T, BackendError> {
        Ok(gblas::dot(self.gpu, self.cb.view(), self.beta.view())?)
    }

    fn refactorize(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        // Retire the eta chain into the pool: the rebuilt B⁻¹ absorbs it,
        // and the buffers get recycled by the next round of pivots.
        for (_, eta) in self.etas.drain(..) {
            self.pool.give(eta);
        }
        self.sync_basis_mirror(basis)?;
        // Explicit inverse, col-major: the device reinversion. A *device*
        // failure propagates; only a raised guard (no stable pivot, or an
        // artificial basis column that is not a unit column) falls back to
        // the host inversion. SparseLU always factors on the host.
        if self.factor.rep == BasisRepresentation::ExplicitInverse
            && self.layout == Layout::ColMajor
            && self.refactorize_on_device()?
        {
            return Ok(());
        }
        self.refactorize_on_host(basis)
    }

    fn alpha_at(&mut self, i: usize) -> Result<T, BackendError> {
        Ok(self.gpu.try_dtoh_range(&self.alpha, i, 1)?[0])
    }

    fn set_representation(&mut self, rep: BasisRepresentation) {
        debug_assert!(
            self.etas.is_empty(),
            "representation must be chosen before the first pivot"
        );
        self.factor.rep = rep;
    }

    fn representation(&self) -> BasisRepresentation {
        self.factor.rep
    }

    fn eta_chain_len(&self) -> usize {
        self.etas.len()
    }

    fn lu_stats(&self) -> Option<LuReport> {
        self.factor.lu_stats()
    }
}

impl<T: Scalar> GpuDenseBackend<'_, T> {
    /// Make `basis` the basis mirror: one upload, skipped when the mirror
    /// already holds it (every periodic reinversion).
    fn sync_basis_mirror(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        if self.xb_host != basis {
            let xb: Vec<u32> = basis.iter().map(|&j| j as u32).collect();
            self.gpu.try_htod_into(&xb, &mut self.xb)?;
            self.xb_host.copy_from_slice(basis);
        }
        Ok(())
    }

    /// Device reinversion of the basis in the mirror: upload `b` into
    /// scratch, then one launch group (when fusion is on) gathers
    /// `[B | I]`, inverts it with device-side partial pivoting into `B⁻¹`,
    /// and installs `β = max(B⁻¹b, 0)`; the guard word is the one readback.
    /// `Ok(false)` means the guard was raised: `B⁻¹` and `β` are untouched
    /// and the caller uses the host path.
    fn refactorize_on_device(&mut self) -> Result<bool, gpu_sim::DeviceError> {
        let m = self.m;
        let pivot_tol = T::from_f64(if T::IS_F64 { 1e-11 } else { 1e-6 });
        self.gpu.try_htod_into(&self.b_host, &mut self.work)?;
        let mut fl = open_group(self.gpu, self.fuse, "refactor_fused")?;
        let mut l = launcher(self.gpu, &mut fl);
        let cols = gblas::BasisColumns {
            a: &self.a_dev,
            unit_rows: self.unit_rows.view(),
            basis: self.xb.view(),
        };
        let guard = gblas::invert_basis_on(&mut l, &cols, pivot_tol, &mut self.binv)?;
        gblas::gemv_n_split_on(
            &mut l,
            self.binv_strips,
            T::ONE,
            &self.binv,
            self.work.view(),
            T::ZERO,
            self.alpha_tmp.view_mut(),
        )?;
        l.try_launch(
            LaunchConfig::for_elems(m, BLOCK),
            &GuardedClampK {
                src: self.alpha_tmp.view(),
                dst: self.beta.view_mut(),
                guard: guard.view(),
                n: m,
            },
        )?;
        if let Some(fl) = fl {
            fl.finish();
        }
        Ok(self.gpu.try_dtoh_range(&guard, 0, 1)?[0] == gblas::INVERT_OK)
    }

    /// Host reinversion through the shared [`BasisFactor`]: SparseLU's
    /// factors at every reinversion, or `B⁻¹` when the device guard was
    /// raised. The factor's modeled CPU time goes on the GPU clock, so it
    /// stays the single timeline; then the factors (or `B⁻¹`) and
    /// `β = max(B⁻¹b, 0)` are uploaded, each transfer charged. Fails only
    /// on a singular basis or a device fault during the uploads.
    fn refactorize_on_host(&mut self, basis: &[usize]) -> Result<(), BackendError> {
        let mut beta = vec![T::ZERO; self.m];
        let t = self
            .factor
            .refactorize(&self.a_host, basis, &self.b_host, &mut beta)?;
        self.gpu.charge(TimeCategory::KernelBody, t);
        match self.factor.rep {
            BasisRepresentation::SparseLU => {
                let lu = self
                    .factor
                    .lu()
                    .expect("a SparseLU reinversion installs factors");
                self.lu_dev =
                    Some(gblas::DeviceLu::upload(self.gpu, lu).map_err(BackendError::Device)?);
            }
            BasisRepresentation::ExplicitInverse => {
                self.binv = DeviceMatrix::upload(self.gpu, &self.factor.inv, self.layout)?;
            }
        }
        self.gpu.try_htod_into(&beta, &mut self.beta)?;
        Ok(())
    }
}

/// The fused group `name` when `fuse` is on; `None` launches each kernel on
/// its own.
fn open_group<'g>(
    gpu: &'g Gpu,
    fuse: bool,
    name: &'static str,
) -> Result<Option<FusedLaunch<'g>>, gpu_sim::DeviceError> {
    fuse.then(|| gpu.try_begin_fused(name)).transpose()
}

/// Launch into the group `fl` opened by [`open_group`], or directly.
fn launcher<'a, 'g>(gpu: &'g Gpu, fl: &'a mut Option<FusedLaunch<'g>>) -> Launcher<'a, 'g> {
    match fl {
        Some(fl) => Launcher::Fused(fl),
        None => Launcher::Direct(gpu),
    }
}

/// Row carrying the single +1 of an identity (artificial) column; `None`
/// when the column is not a unit column.
fn basis_artificial_row<T: Scalar>(a: &CscMatrix<T>, j: usize) -> Option<usize> {
    let mut col = a.col(j);
    match (col.next(), col.next()) {
        (Some((i, v)), None) if v == T::ONE => Some(i),
        _ => None,
    }
}

/// Column extraction from a row-major device matrix (strided, uncoalesced —
/// part of the price the F4 ablation pays).
struct ColExtractRowMajorK<T: Scalar> {
    mat: gpu_sim::DView<T>,
    rows: usize,
    cols: usize,
    j: usize,
    out: gpu_sim::DViewMut<T>,
}

impl<T: Scalar> gpu_sim::Kernel for ColExtractRowMajorK<T> {
    fn name(&self) -> &'static str {
        "col_extract_rm"
    }
    fn run(&self, t: &gpu_sim::ThreadCtx) {
        let i = t.global_id();
        if i < self.rows {
            self.out.set(i, self.mat.get(self.j + i * self.cols));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> gpu_sim::KernelCost {
        let m = self.rows as u64;
        gpu_sim::KernelCost::new()
            .read(gpu_sim::AccessPattern::strided::<T>(
                m,
                self.cols as u64 * T::BYTES,
            ))
            .write(gpu_sim::AccessPattern::coalesced::<T>(m))
            .active_threads(cfg, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    /// The CSC image of a dense matrix given by rows.
    fn csc(rows: &[Vec<f64>]) -> CscMatrix<f64> {
        let dense = linalg::DenseMatrix::from_rows(rows);
        linalg::CsrMatrix::from_dense(&dense, 0.0).to_csc()
    }

    fn wyndor_std() -> (CscMatrix<f64>, Vec<f64>, Vec<f64>, Vec<usize>) {
        let a = csc(&[
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ]);
        (
            a,
            vec![4.0, 12.0, 18.0],
            vec![-3.0, -5.0, 0.0, 0.0, 0.0],
            vec![2, 3, 4],
        )
    }

    #[test]
    fn gpu_iteration_matches_cpu_backend() {
        use crate::backends::CpuDenseBackend;
        let (a, b, c, basis0) = wyndor_std();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::new(&gpu, &a, &b, 5, &basis0);
        let mut cb = CpuDenseBackend::new(&a, &b, 5, &basis0);
        for be in [
            &mut gb as &mut dyn Backend<f64>,
            &mut cb as &mut dyn Backend<f64>,
        ] {
            be.set_phase_costs(&c).unwrap();
            let cb: Vec<f64> = basis0.iter().map(|&j| c[j]).collect();
            be.set_basic_costs(&cb).unwrap();
            be.compute_pricing().unwrap();
        }
        let (gq, gd) = gb.entering_dantzig(1e-9).unwrap().unwrap();
        let (cq, cd) = cb.entering_dantzig(1e-9).unwrap().unwrap();
        assert_eq!(gq, cq);
        assert_eq!(gd, cd);
        gb.compute_alpha(gq).unwrap();
        cb.compute_alpha(cq).unwrap();
        let gr = gb.ratio_test(1e-9).unwrap();
        let cr = cb.ratio_test(1e-9).unwrap();
        assert_eq!(gr, cr);
        if let RatioOutcome::Pivot { p, theta } = gr {
            gb.pivot(p, gq, theta, c[gq]).unwrap();
            cb.pivot(p, cq, theta, c[cq]).unwrap();
        }
        assert_eq!(gb.beta().unwrap(), cb.beta().unwrap());
        assert_eq!(gb.objective_now().unwrap(), cb.objective_now().unwrap());
        // The GPU backend actually used the device. Fused groups fold
        // member kernels into one launch, so count both.
        let counters = gpu.counters();
        assert!(counters.kernels_launched + counters.fused_kernels_folded > 10);
        assert!(counters.fused_groups >= 4, "iteration chains fuse");
        assert!(counters.d2h_count >= 2);
    }

    #[test]
    fn refactorize_round_trips_binv() {
        let (a, b, _c, basis0) = wyndor_std();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::new(&gpu, &a, &b, 5, &basis0);
        // Pivot column 0 into row 0, then refactorize and check β = B⁻¹b.
        gb.set_phase_costs(&[-3.0, -5.0, 0.0, 0.0, 0.0]).unwrap();
        gb.compute_alpha(0).unwrap();
        gb.pivot(0, 0, 4.0, -3.0).unwrap();
        gb.refactorize(&[0, 3, 4]).unwrap();
        let beta = gb.beta().unwrap();
        // B = [a0 | e1 | e2] → β = (4, 12, 18 − 3·4) = (4, 12, 6).
        assert_eq!(beta, vec![4.0, 12.0, 6.0]);
    }

    #[test]
    fn device_refactorization_handles_artificial_columns() {
        // Basis mixing a structural column with artificials (unit columns
        // beyond n_active) — the device path must assemble e_r correctly.
        let a = csc(&[
            vec![2.0, 1.0, 1.0, 0.0], // cols: x, y | artificials u1, u2
            vec![1.0, 3.0, 0.0, 1.0],
        ]);
        let b = vec![5.0, 10.0];
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::new(&gpu, &a, &b, 2, &[2, 3]);
        // Basis = {x (col 0), artificial u2 (col 3)} → B = [[2,0],[1,1]].
        gb.refactorize(&[0, 3]).unwrap();
        let beta = gb.beta().unwrap();
        // B⁻¹ b = [[0.5,0],[-0.5,1]]·(5,10) = (2.5, 7.5).
        assert!((beta[0] - 2.5).abs() < 1e-12, "{beta:?}");
        assert!((beta[1] - 7.5).abs() < 1e-12, "{beta:?}");
        // The device path was used: the reinversion's guard word and the β
        // download come back over PCIe (the exact counts are pinned by
        // `reinversion_is_one_launch_and_one_readback`).
        let c = gpu.counters();
        assert!(c.d2h_count >= 2, "guard word and β come back over PCIe");
    }

    #[test]
    fn device_and_host_refactorization_agree() {
        let a = csc(&[
            vec![4.0, 1.0, 0.5, 1.0, 0.0, 0.0],
            vec![1.0, 5.0, 1.0, 0.0, 1.0, 0.0],
            vec![0.5, 1.0, 6.0, 0.0, 0.0, 1.0],
        ]);
        let b = vec![3.0, 7.0, 11.0];
        let basis = vec![0usize, 1, 2];

        let gpu1 = Gpu::new(DeviceSpec::gtx280());
        let mut dev = GpuDenseBackend::new(&gpu1, &a, &b, 3, &[3, 4, 5]);
        dev.sync_basis_mirror(&basis).unwrap();
        assert!(dev.refactorize_on_device().unwrap());
        let beta_dev = dev.beta().unwrap();

        let gpu2 = Gpu::new(DeviceSpec::gtx280());
        let mut host = GpuDenseBackend::new(&gpu2, &a, &b, 3, &[3, 4, 5]);
        host.refactorize_on_host(&basis).unwrap();
        let beta_host = host.beta().unwrap();

        for (d, h) in beta_dev.iter().zip(&beta_host) {
            assert!((d - h).abs() < 1e-9, "{beta_dev:?} vs {beta_host:?}");
        }
    }

    /// A reinversion is one upload of `b`, one fused launch and one
    /// readback (the guard word); onto the basis the mirror already holds
    /// it uploads nothing else.
    #[test]
    fn reinversion_is_one_launch_and_one_readback() {
        let (a, b, _c, basis0) = wyndor_std();
        for fuse in [true, false] {
            let gpu = Gpu::new(DeviceSpec::gtx280());
            let mut gb = GpuDenseBackend::new(&gpu, &a, &b, 5, &basis0);
            gb.set_fuse_launches(fuse);
            gb.sync_basis_mirror(&[0, 3, 4]).unwrap();
            gpu.reset_counters();
            gb.refactorize(&[0, 3, 4]).unwrap();
            let c = gpu.counters();
            assert_eq!(c.d2h_count, 1, "the guard word is the one readback");
            assert_eq!(c.h2d_count, 1, "b into scratch, no basis upload");
            if fuse {
                assert_eq!(c.kernels_launched, 1);
                assert_eq!(c.per_kernel["refactor_fused"].launches, 1);
            } else {
                assert!(c.kernels_launched > 5 * 3, "one launch per kernel");
            }
            assert_eq!(gb.beta().unwrap(), vec![4.0, 12.0, 6.0]);
        }
    }

    /// Between its phase installs an explicit-inverse solve that never
    /// reinverts moves nothing host→device: each pivot's bookkeeping rides
    /// on kernel arguments.
    #[test]
    fn explicit_solve_without_reinversion_uploads_only_its_phase_install() {
        use crate::revised::RevisedSimplex;
        use crate::{NoopRecorder, SolverOptions, Start, Status};
        let model = lp::generator::dense_random(32, 48, 5);
        let sf = lp::StandardForm::<f64>::from_lp(&model).unwrap();
        assert_eq!(sf.num_artificials, 0, "phase 2 only: one install");
        let n_active = sf.num_cols() - sf.num_artificials;
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
        let opts = SolverOptions {
            refactor_period: 0,
            ..Default::default()
        };
        let h2d_setup = gpu.counters().h2d_count;
        let res = RevisedSimplex::new(
            &mut gb,
            &sf,
            &opts,
            Start::Cold,
            None,
            None::<&mut NoopRecorder>,
        )
        .solve();
        assert_eq!(res.status, Status::Optimal);
        assert!(res.stats.iterations > 10);
        assert_eq!(res.stats.refactorizations, 0);
        // Phase costs and basic costs: two uploads, then none per pivot.
        assert_eq!(gpu.counters().h2d_count - h2d_setup, 2);
    }

    /// Golden pivot paths captured before device-side basis bookkeeping:
    /// GPU solves that never reinvert keep their fingerprint, objective
    /// bits and iteration count.
    #[test]
    fn solves_without_reinversion_keep_their_golden_pivot_path() {
        use crate::{BackendKind, SolveRequest, SolverOptions, Status};
        let model = lp::generator::dense_random(64, 64, 3);
        let opts = SolverOptions {
            refactor_period: 0,
            ..Default::default()
        };
        let on = BackendKind::GpuDense(DeviceSpec::gtx280());
        let sol = SolveRequest::model(&model, &opts)
            .on(&on)
            .run::<f32>()
            .unwrap();
        assert_eq!(sol.status, Status::Optimal);
        assert_eq!(sol.stats.refactorizations, 0);
        assert_eq!(sol.stats.iterations, 22);
        assert_eq!(sol.stats.pivot_fingerprint, 5804623092749193026);
        assert_eq!(sol.objective.to_bits(), 0xc0461da299bb4850);
        let sol = SolveRequest::model(&model, &opts)
            .on(&on)
            .run::<f64>()
            .unwrap();
        assert_eq!(sol.stats.iterations, 22);
        assert_eq!(sol.stats.pivot_fingerprint, 15484060712339857519);
        assert_eq!(sol.objective.to_bits(), 0xc0461da29b376d1d);
    }

    /// A sparse model whose reinverted bases need row exchanges: the device
    /// reinversion handles them without the host fallback, and the f64
    /// solve agrees with cpu-dense on status and objective.
    #[test]
    fn sparse_solve_reinverts_with_row_exchanges_on_the_device() {
        use crate::revised::RevisedSimplex;
        use crate::{NoopRecorder, SolverOptions, Start};
        let model = lp::generator::sparse_random(40, 60, 0.08, 7);
        let opts = SolverOptions {
            presolve: false,
            scale: false,
            refactor_period: 4,
            ..Default::default()
        };
        let sf = lp::StandardForm::<f64>::from_lp(&model).unwrap();
        let n_active = sf.num_cols() - sf.num_artificials;
        let m = sf.num_rows();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::new(&gpu, &sf.a, &sf.b, n_active, &sf.basis0);
        let h2d_setup = gpu.counters().h2d_bytes;
        let res = RevisedSimplex::new(
            &mut gb,
            &sf,
            &opts,
            Start::Cold,
            None,
            None::<&mut NoopRecorder>,
        )
        .solve();
        assert!(res.stats.refactorizations > 0);
        // A host fallback uploads an m × m inverse; the device path never
        // moves more than a few length-m vectors per reinversion.
        let moved = gpu.counters().h2d_bytes - h2d_setup;
        assert!(
            moved < (m * m * 8) as u64,
            "{moved} B uploaded: host fallback ran"
        );
        // The final basis cannot be inverted without row exchanges: plain
        // Gauss–Jordan meets a zero pivot on it.
        let a = sf.a.to_dense();
        let mut bmat: Vec<Vec<f64>> = (0..m)
            .map(|i| res.basis.iter().map(|&j| a.get(i, j)).collect())
            .collect();
        let needs_exchange = (0..m).any(|k| {
            let piv = bmat[k][k];
            if piv.abs() <= 1e-11 {
                return true;
            }
            for i in 0..m {
                if i != k {
                    let f = bmat[i][k] / piv;
                    for j in 0..m {
                        bmat[i][j] -= f * bmat[k][j];
                    }
                }
            }
            false
        });
        assert!(needs_exchange, "fixture must need row exchanges");
        let mut cb = crate::backends::CpuDenseBackend::new(&sf.a, &sf.b, n_active, &sf.basis0);
        let cpu = RevisedSimplex::new(
            &mut cb,
            &sf,
            &opts,
            Start::Cold,
            None,
            None::<&mut NoopRecorder>,
        )
        .solve();
        assert_eq!(res.status, crate::Status::Optimal);
        assert_eq!(res.status, cpu.status);
        assert!(
            (res.z_std - cpu.z_std).abs() <= 1e-9 * cpu.z_std.abs().max(1.0),
            "{} vs {}",
            res.z_std,
            cpu.z_std
        );
    }

    #[test]
    fn row_major_backend_produces_same_values() {
        let (a, b, c, basis0) = wyndor_std();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut gb = GpuDenseBackend::with_layout(
            &gpu,
            &a,
            &b,
            5,
            &basis0,
            Layout::RowMajor,
            GemvTStrategy::Naive,
        );
        gb.set_phase_costs(&c).unwrap();
        let cb: Vec<f64> = basis0.iter().map(|&j| c[j]).collect();
        gb.set_basic_costs(&cb).unwrap();
        gb.compute_pricing().unwrap();
        let (q, d) = gb.entering_dantzig(1e-9).unwrap().unwrap();
        assert_eq!((q, d), (1, -5.0));
        gb.compute_alpha(q).unwrap();
        assert_eq!(gb.alpha_at(1).unwrap(), 2.0);
    }

    #[test]
    fn fused_ftran_is_one_group_per_iteration() {
        // m = 64 splits the FTRAN gemv into two passes; with fusion on they
        // are charged as one `ftran_fused` launch per iteration, and with it
        // off each pass is its own launch.
        use crate::{BackendKind, SolveRequest, SolverOptions, Status};
        use std::sync::Arc;
        let model = lp::generator::dense_random(64, 64, 3);
        for fuse_launches in [true, false] {
            let device = Arc::new(Gpu::new(DeviceSpec::gtx280()));
            let opts = SolverOptions {
                fuse_launches,
                ..Default::default()
            };
            let sol = SolveRequest::model(&model, &opts)
                .on(&BackendKind::GpuShared(device.clone()))
                .run::<f32>()
                .unwrap();
            assert_eq!(sol.status, Status::Optimal);
            let iters = sol.stats.iterations as u64;
            let launches = |name: &str| device.counters().per_kernel.get(name).map(|k| k.launches);
            if fuse_launches {
                assert_eq!(launches("ftran_fused"), Some(iters));
                assert_eq!(launches("gemv_n_pass1"), None);
            } else {
                assert_eq!(launches("ftran_fused"), None);
                assert_eq!(launches("gemv_n_pass1"), Some(iters));
                assert_eq!(launches("gemv_n_pass2"), Some(iters));
            }
        }
    }
}
