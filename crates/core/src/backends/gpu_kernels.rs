//! Solver-specific device kernels (the pieces CUBLAS did not provide in
//! 2009 and the paper's authors wrote by hand).

use gpu_sim::{AccessPattern, DView, DViewMut, Kernel, KernelCost, LaunchConfig, ThreadCtx};
use linalg::Scalar;

/// Mask the reduced costs of basic columns to `+∞` so pricing reductions
/// skip them: `d[xb[i]] = ∞` for every row `i` (when `xb[i]` is an active
/// column).
pub struct MaskBasicK<T: Scalar> {
    pub d: DViewMut<T>,
    pub xb: DView<u32>,
    pub m: usize,
    pub n_active: usize,
}

impl<T: Scalar> Kernel for MaskBasicK<T> {
    fn name(&self) -> &'static str {
        "mask_basic"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        let col = self.xb.get(i) as usize;
        if col < self.n_active {
            self.d.set(col, T::infinity());
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .read(AccessPattern::coalesced::<u32>(m))
            .write(AccessPattern::scattered::<T>(m))
            .active_threads(cfg, m)
    }
}

/// Bland stage: `out[j] = (d[j] < −tol) ? j : u32::MAX`.
pub struct MapNegIdxK<T: Scalar> {
    pub d: DView<T>,
    pub tol: T,
    pub out: DViewMut<u32>,
    pub n: usize,
}

impl<T: Scalar> Kernel for MapNegIdxK<T> {
    fn name(&self) -> &'static str {
        "map_neg_idx"
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        if j >= self.n {
            return;
        }
        let v = if self.d.get(j) < -self.tol {
            j as u32
        } else {
            u32::MAX
        };
        self.out.set(j, v);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .int_ops_total(n)
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<u32>(n))
            .active_threads(cfg, n)
    }
}

/// Ratio-test map: `r[i] = (α[i] > tol) ? β[i]/α[i] : +∞`.
pub struct RatioK<T: Scalar> {
    pub alpha: DView<T>,
    pub beta: DView<T>,
    pub tol: T,
    pub out: DViewMut<T>,
    pub m: usize,
}

impl<T: Scalar> Kernel for RatioK<T> {
    fn name(&self) -> &'static str {
        "ratio"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        let a = self.alpha.get(i);
        let r = if a > self.tol {
            let b = self.beta.get(i);
            // Clamp tiny negative β (round-off) to 0 so degenerate pivots
            // report θ = 0 instead of a spurious negative step.
            if b > T::ZERO {
                b / a
            } else {
                T::ZERO
            }
        } else {
            T::infinity()
        };
        self.out.set(i, r);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(m)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            // The α ≤ tol branch diverges within warps.
            .divergence(1.2)
            .active_threads(cfg, m)
    }
}

/// Basic-solution update: `β[p] = θ`, `β[i] −= θ·α[i]` elsewhere, clamped at
/// zero to keep round-off from producing slightly negative basics.
pub struct UpdateBetaK<T: Scalar> {
    pub beta: DViewMut<T>,
    pub alpha: DView<T>,
    pub theta: T,
    pub p: usize,
    pub m: usize,
}

impl<T: Scalar> Kernel for UpdateBetaK<T> {
    fn name(&self) -> &'static str {
        "update_beta"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        if i == self.p {
            self.beta.set(i, self.theta);
        } else {
            let v = self.beta.get(i) - self.theta * self.alpha.get(i);
            self.beta.set(i, v.maxs(T::ZERO));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(2 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            .active_threads(cfg, m)
    }
}

/// Fused-Bland stage: `out[0] = src[idx[0]]`, where the index was staged on
/// device by the `u32` min-reduction (encoded as a `T` scalar, exact below
/// 2²⁴). The `u32::MAX` "no candidate" sentinel lands out of range and
/// writes zero; the host decodes the sentinel from the staged index slot.
pub struct GatherAtK<T: Scalar> {
    pub src: DView<T>,
    pub idx: DView<T>,
    pub out: DViewMut<T>,
    pub n: usize,
}

impl<T: Scalar> Kernel for GatherAtK<T> {
    fn name(&self) -> &'static str {
        "gather_at"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() > 0 {
            return;
        }
        let j = self.idx.get(0).to_f64();
        let v = if j >= 0.0 && (j as usize) < self.n {
            self.src.get(j as usize)
        } else {
            T::ZERO
        };
        self.out.set(0, v);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        KernelCost::new()
            .int_ops_total(1)
            .read(AccessPattern::broadcast::<T>(1))
            .read(AccessPattern::scattered::<T>(1))
            .write(AccessPattern::coalesced::<T>(1))
            .active_threads(cfg, 1)
    }
}

/// Build the eta column for a pivot, out-of-place:
/// `out[p] = 1/α[p]`, `out[i] = −α[i]/α[p]` elsewhere. Replaces the O(m²)
/// in-place `B⁻¹` update when the backend runs the sparse-LU
/// representation.
pub struct BuildEtaK<T: Scalar> {
    pub alpha: DView<T>,
    pub p: usize,
    pub out: DViewMut<T>,
    pub m: usize,
}

impl<T: Scalar> Kernel for BuildEtaK<T> {
    fn name(&self) -> &'static str {
        "build_eta"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        let ap = self.alpha.get(self.p);
        let v = if i == self.p {
            T::ONE / ap
        } else {
            -self.alpha.get(i) / ap
        };
        self.out.set(i, v);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(2 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::broadcast::<T>(1))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            .active_threads(cfg, m)
    }
}

/// Eta FTRAN step: apply one eta column to `x`, out-of-place
/// (ping-pong buffers avoid the read/write race on row `p`):
/// `out[i] = x[i] + η[i]·x[p]` (i ≠ p), `out[p] = η[p]·x[p]`.
pub struct EtaFtranK<T: Scalar> {
    pub x: DView<T>,
    pub eta: DView<T>,
    pub p: usize,
    pub out: DViewMut<T>,
    pub m: usize,
}

impl<T: Scalar> Kernel for EtaFtranK<T> {
    fn name(&self) -> &'static str {
        "eta_ftran"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        let xp = self.x.get(self.p);
        let v = if i == self.p {
            self.eta.get(self.p) * xp
        } else {
            self.x.get(i) + self.eta.get(i) * xp
        };
        self.out.set(i, v);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(2 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::broadcast::<T>(1))
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            .active_threads(cfg, m)
    }
}

/// Eta BTRAN step: `y[p] = ⟨y, η⟩`, every other entry unchanged —
/// one small dot-product reduction per eta in the chain, newest-first.
pub struct EtaBtranK<T: Scalar> {
    pub y: DViewMut<T>,
    pub eta: DView<T>,
    pub p: usize,
    pub m: usize,
}

impl<T: Scalar> Kernel for EtaBtranK<T> {
    fn name(&self) -> &'static str {
        "eta_btran"
    }
    fn run(&self, t: &ThreadCtx) {
        // Functionally serial (thread 0 owns the reduction); the cost
        // descriptor below models it as the parallel tree reduction it
        // would be on real hardware.
        if t.global_id() > 0 {
            return;
        }
        let mut s = T::ZERO;
        for i in 0..self.m {
            s += self.y.get(i) * self.eta.get(i);
        }
        self.y.set(self.p, s);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(2 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(1))
            .active_threads(cfg, m)
    }
}

/// Install a freshly recomputed β: `dst[i] = max(src[i], 0)` (round-off
/// must not seed negative basics), skipped when the reinversion's guard
/// word is raised, so a failed device reinversion leaves β as it was.
pub struct GuardedClampK<T: Scalar> {
    pub src: DView<T>,
    pub dst: DViewMut<T>,
    pub guard: DView<u32>,
    pub n: usize,
}

impl<T: Scalar> Kernel for GuardedClampK<T> {
    fn name(&self) -> &'static str {
        "guarded_clamp"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n && self.guard.get(0) == linalg::gpu::INVERT_OK {
            self.dst.set(i, self.src.get(i).maxs(T::ZERO));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .flops_total(n)
            .fp64(T::IS_F64)
            .read(AccessPattern::broadcast::<u32>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// Basis bookkeeping of one pivot: `xb[p] = q` and `c_B[p] = cost`. One
/// thread; `p`, `q` and `cost` ride as kernel arguments, so a pivot moves
/// no data over PCIe.
pub struct BasisBookK<T: Scalar> {
    pub xb: DViewMut<u32>,
    pub cb: DViewMut<T>,
    pub p: usize,
    pub q: u32,
    pub cost: T,
}

impl<T: Scalar> Kernel for BasisBookK<T> {
    fn name(&self) -> &'static str {
        "basis_book"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() == 0 {
            self.xb.set(self.p, self.q);
            self.cb.set(self.p, self.cost);
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        KernelCost::new()
            .write(AccessPattern::scattered::<u32>(1))
            .write(AccessPattern::scattered::<T>(1))
            .active_threads(cfg, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn mask_basic_sets_infinity_only_for_active_basics() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut d = gpu.htod(&[1.0f32, 2.0, 3.0, 4.0]);
        let xb = gpu.htod(&[1u32, 7]); // column 7 is outside n_active
        gpu.launch(
            gpu_sim::LaunchConfig::for_elems(2, 128),
            &MaskBasicK {
                d: d.view_mut(),
                xb: xb.view(),
                m: 2,
                n_active: 4,
            },
        );
        let host = gpu.dtoh(&d);
        assert_eq!(host[0], 1.0);
        assert!(host[1].is_infinite());
        assert_eq!(host[2], 3.0);
    }

    #[test]
    fn map_neg_idx_thresholds() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let d = gpu.htod(&[0.5f64, -0.05, -2.0]);
        let mut out = gpu.alloc(3, 0u32);
        gpu.launch(
            gpu_sim::LaunchConfig::for_elems(3, 128),
            &MapNegIdxK {
                d: d.view(),
                tol: 0.1,
                out: out.view_mut(),
                n: 3,
            },
        );
        assert_eq!(gpu.dtoh(&out), vec![u32::MAX, u32::MAX, 2]);
    }

    #[test]
    fn ratio_kernel_filters_and_clamps() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let alpha = gpu.htod(&[2.0f64, -1.0, 1e-12, 4.0]);
        let beta = gpu.htod(&[6.0, 5.0, 1.0, -1e-9]);
        let mut out = gpu.alloc(4, 0.0f64);
        gpu.launch(
            gpu_sim::LaunchConfig::for_elems(4, 128),
            &RatioK {
                alpha: alpha.view(),
                beta: beta.view(),
                tol: 1e-9,
                out: out.view_mut(),
                m: 4,
            },
        );
        let r = gpu.dtoh(&out);
        assert_eq!(r[0], 3.0);
        assert!(r[1].is_infinite()); // negative α filtered
        assert!(r[2].is_infinite()); // below pivot tolerance
        assert_eq!(r[3], 0.0); // negative β clamped → degenerate step
    }

    #[test]
    fn eta_kernels_apply_one_product_form_step() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let cfg = gpu_sim::LaunchConfig::for_elems(3, 128);
        let alpha = gpu.htod(&[1.0f64, 2.0, 4.0]);
        let mut eta = gpu.alloc(3, 0.0f64);
        gpu.launch(
            cfg,
            &BuildEtaK {
                alpha: alpha.view(),
                p: 2,
                out: eta.view_mut(),
                m: 3,
            },
        );
        assert_eq!(gpu.dtoh(&eta), vec![-0.25, -0.5, 0.25]);
        // FTRAN: x = (1,1,1), x_p = 1 → (1−0.25, 1−0.5, 0.25).
        let x = gpu.htod(&[1.0f64, 1.0, 1.0]);
        let mut out = gpu.alloc(3, 0.0f64);
        gpu.launch(
            cfg,
            &EtaFtranK {
                x: x.view(),
                eta: eta.view(),
                p: 2,
                out: out.view_mut(),
                m: 3,
            },
        );
        assert_eq!(gpu.dtoh(&out), vec![0.75, 0.5, 0.25]);
        // BTRAN: y = (1,1,1) → y_p = ⟨y, η⟩ = −0.5, others untouched.
        let mut y = gpu.htod(&[1.0f64, 1.0, 1.0]);
        gpu.launch(
            cfg,
            &EtaBtranK {
                y: y.view_mut(),
                eta: eta.view(),
                p: 2,
                m: 3,
            },
        );
        assert_eq!(gpu.dtoh(&y), vec![1.0, 1.0, -0.5]);
    }

    #[test]
    fn update_beta_applies_pivot() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut beta = gpu.htod(&[4.0f64, 6.0, 8.0]);
        let alpha = gpu.htod(&[1.0, 2.0, -1.0]);
        gpu.launch(
            gpu_sim::LaunchConfig::for_elems(3, 128),
            &UpdateBetaK {
                beta: beta.view_mut(),
                alpha: alpha.view(),
                theta: 3.0,
                p: 1,
                m: 3,
            },
        );
        assert_eq!(gpu.dtoh(&beta), vec![1.0, 3.0, 11.0]);
    }
}
