//! Fused first-order (PDHG) update kernels.
//!
//! One restarted-Halpern PDHG iteration on the standardized LP is four
//! kernels — `spmv_t` (Aᵀy gather), the primal update below, `spmv`
//! (A·x̄ scatter-free CSR product) and the dual update below — submitted
//! through one [`Launcher`], so a fused chain charges a single launch
//! overhead per iteration exactly like the simplex pivot chain does.
//!
//! The updates fold three textbook steps into one elementwise pass each:
//!
//! ```text
//! primal:  x⁺ = max(0, x − τ(c − g))        (g = Aᵀy)
//!          x̄  = 2x⁺ − x                      (reflection)
//!          x  = λx⁺ + (1−λ)x₀                (Halpern anchor pull)
//! dual:    y⁺ = y + σ(b − Ax̄)
//!          y  = λy⁺ + (1−λ)y₀
//! ```
//!
//! with λ = (k+1)/(k+2) and `x₀`/`y₀` the restart anchor. Everything is
//! coalesced: lane `j` touches only element `j` of each operand.
//!
//! Both updates are sweep kernels (see [`LaunchConfig::sweep`]): one host
//! pass builds every element with exactly its modeled thread's expression,
//! and the cost descriptors declare one modeled thread per element. The
//! operands of one launch must not overlap (the iterate is updated in
//! place, through its own view).

use gpu_sim::{
    AccessPattern, DView, DViewMut, DeviceError, Kernel, KernelCost, LaunchConfig, Launcher,
    ThreadCtx,
};

use crate::scalar::Scalar;

use super::blas::poison_if_corrupted;

/// Fused PDHG primal step: projection, reflection and Halpern fold.
pub struct PdhgPrimalK<T: Scalar> {
    /// Current primal iterate; overwritten with the anchored new iterate.
    pub x: DViewMut<T>,
    /// Reflected iterate `2x⁺ − x`, consumed by the following `spmv`.
    pub xbar: DViewMut<T>,
    /// `Aᵀy` from the preceding gather.
    pub g: DView<T>,
    /// Objective coefficients.
    pub c: DView<T>,
    /// Restart anchor `x₀`.
    pub x0: DView<T>,
    /// Primal step size τ.
    pub tau: T,
    /// Halpern weight λ = (k+1)/(k+2) on the PDHG step.
    pub lam: T,
    /// Anchor weight 1 − λ.
    pub mu: T,
    /// Vector length.
    pub n: usize,
}

impl<T: Scalar> Kernel for PdhgPrimalK<T> {
    fn name(&self) -> &'static str {
        "pdhg_primal"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let n = self.n;
        let (x, xbar) = (self.x.as_mut_slice(), self.xbar.as_mut_slice());
        let (x, xbar) = (&mut x[..n], &mut xbar[..n]);
        let (g, c, x0) = (
            &self.g.as_slice()[..n],
            &self.c.as_slice()[..n],
            &self.x0.as_slice()[..n],
        );
        for j in 0..n {
            let xj = x[j];
            let step = xj - self.tau * (c[j] - g[j]);
            let xnew = if step > T::ZERO { step } else { T::ZERO };
            xbar[j] = xnew + xnew - xj;
            x[j] = self.lam * xnew + self.mu * x0[j];
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .flops_total(8 * n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads_raw(n)
    }
}

/// Fused PDHG dual step: gradient ascent on the residual plus Halpern fold.
pub struct PdhgDualK<T: Scalar> {
    /// Current dual iterate; overwritten with the anchored new iterate.
    pub y: DViewMut<T>,
    /// `A·x̄` from the preceding product.
    pub ax: DView<T>,
    /// Right-hand side.
    pub b: DView<T>,
    /// Restart anchor `y₀`.
    pub y0: DView<T>,
    /// Dual step size σ.
    pub sigma: T,
    /// Halpern weight λ.
    pub lam: T,
    /// Anchor weight 1 − λ.
    pub mu: T,
    /// Vector length.
    pub m: usize,
}

impl<T: Scalar> Kernel for PdhgDualK<T> {
    fn name(&self) -> &'static str {
        "pdhg_dual"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let m = self.m;
        let y = &mut self.y.as_mut_slice()[..m];
        let (ax, b, y0) = (
            &self.ax.as_slice()[..m],
            &self.b.as_slice()[..m],
            &self.y0.as_slice()[..m],
        );
        for i in 0..m {
            let ynew = self.sigma.mul_add(b[i] - ax[i], y[i]);
            y[i] = self.lam * ynew + self.mu * y0[i];
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(6 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::coalesced::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            .active_threads_raw(m)
    }
}

/// Submit the fused primal update through `l`.
#[allow(clippy::too_many_arguments)]
pub fn pdhg_primal_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    x: DViewMut<T>,
    xbar: DViewMut<T>,
    g: DView<T>,
    c: DView<T>,
    x0: DView<T>,
    tau: T,
    lam: T,
) -> Result<(), DeviceError> {
    let n = x.len();
    assert!(
        xbar.len() == n && g.len() == n && c.len() == n && x0.len() == n,
        "pdhg_primal: operand length mismatch"
    );
    let out = x;
    l.try_launch(
        LaunchConfig::sweep(),
        &PdhgPrimalK {
            x,
            xbar,
            g,
            c,
            x0,
            tau,
            lam,
            mu: T::ONE - lam,
            n,
        },
    )?;
    poison_if_corrupted(l.gpu(), &out);
    Ok(())
}

/// Submit the fused dual update through `l`.
pub fn pdhg_dual_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    y: DViewMut<T>,
    ax: DView<T>,
    b: DView<T>,
    y0: DView<T>,
    sigma: T,
    lam: T,
) -> Result<(), DeviceError> {
    let m = y.len();
    assert!(
        ax.len() == m && b.len() == m && y0.len() == m,
        "pdhg_dual: operand length mismatch"
    );
    let out = y;
    l.try_launch(
        LaunchConfig::sweep(),
        &PdhgDualK {
            y,
            ax,
            b,
            y0,
            sigma,
            lam,
            mu: T::ONE - lam,
            m,
        },
    )?;
    poison_if_corrupted(l.gpu(), &out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::timing::kernel_timing;
    use gpu_sim::{DeviceSpec, Gpu};

    /// The thread-per-element primal update the sweep replaced, kept as
    /// the reference it must reproduce bit for bit.
    struct PrimalRefK<T: Scalar>(PdhgPrimalK<T>);

    impl<T: Scalar> Kernel for PrimalRefK<T> {
        fn name(&self) -> &'static str {
            "pdhg_primal"
        }
        fn run(&self, t: &ThreadCtx) {
            let k = &self.0;
            let j = t.global_id();
            if j >= k.n {
                return;
            }
            let xj = k.x.get(j);
            let step = xj - k.tau * (k.c.get(j) - k.g.get(j));
            let xnew = if step > T::ZERO { step } else { T::ZERO };
            k.xbar.set(j, xnew + xnew - xj);
            k.x.set(j, k.lam * xnew + k.mu * k.x0.get(j));
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            let n = self.0.n as u64;
            KernelCost::new()
                .flops_total(8 * n)
                .fp64(T::IS_F64)
                .read(AccessPattern::coalesced::<T>(n))
                .read(AccessPattern::coalesced::<T>(n))
                .read(AccessPattern::coalesced::<T>(n))
                .read(AccessPattern::coalesced::<T>(n))
                .write(AccessPattern::coalesced::<T>(n))
                .write(AccessPattern::coalesced::<T>(n))
                .active_threads(cfg, n)
        }
    }

    /// The thread-per-element dual update the sweep replaced.
    struct DualRefK<T: Scalar>(PdhgDualK<T>);

    impl<T: Scalar> Kernel for DualRefK<T> {
        fn name(&self) -> &'static str {
            "pdhg_dual"
        }
        fn run(&self, t: &ThreadCtx) {
            let k = &self.0;
            let i = t.global_id();
            if i >= k.m {
                return;
            }
            let ynew = k.sigma.mul_add(k.b.get(i) - k.ax.get(i), k.y.get(i));
            k.y.set(i, k.lam * ynew + k.mu * k.y0.get(i));
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            let m = self.0.m as u64;
            KernelCost::new()
                .flops_total(6 * m)
                .fp64(T::IS_F64)
                .read(AccessPattern::coalesced::<T>(m))
                .read(AccessPattern::coalesced::<T>(m))
                .read(AccessPattern::coalesced::<T>(m))
                .read(AccessPattern::coalesced::<T>(m))
                .write(AccessPattern::coalesced::<T>(m))
                .active_threads(cfg, m)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `len` values cycling through ordinary numbers and NaN, ±inf, ±0.
    fn values(len: usize, phase: usize) -> Vec<f64> {
        let pool = [
            0.75,
            f64::NAN,
            -0.0,
            f64::INFINITY,
            -2.5,
            0.0,
            f64::NEG_INFINITY,
            1e-300,
            3.0,
        ];
        (0..len)
            .map(|i| pool[(i * 5 + phase) % pool.len()] * (1.0 + i as f64 / 64.0))
            .collect()
    }

    /// Run one PDHG primal and dual update on the sweep kernels and on the
    /// per-thread references, with the iterate and its anchor each one
    /// `x‖y` buffer and the updates writing through subviews of it.
    fn updates_on(n: usize, m: usize) -> ([Vec<f64>; 2], [Vec<f64>; 2]) {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let run = |per_thread: bool| -> [Vec<f64>; 2] {
            let mut xy = gpu.htod(&[values(n, 0), values(m, 1)].concat());
            let xy0 = gpu.htod(&[values(n, 2), values(m, 3)].concat());
            let mut xbar = gpu.alloc(n, f64::NAN);
            let (g, c) = (gpu.htod(&values(n, 4)), gpu.htod(&values(n, 5)));
            let (ax, b) = (gpu.htod(&values(m, 6)), gpu.htod(&values(m, 7)));
            let v = xy.view_mut();
            let (x, y) = (v.subview_mut(0, n), v.subview_mut(n, m));
            let (x0, y0) = (xy0.view().subview(0, n), xy0.view().subview(n, m));
            let (tau, sigma, lam) = (0.3, 1.7, 5.0 / 6.0);
            let primal = PdhgPrimalK {
                x,
                xbar: xbar.view_mut(),
                g: g.view(),
                c: c.view(),
                x0,
                tau,
                lam,
                mu: 1.0 - lam,
                n,
            };
            let dual = PdhgDualK {
                y,
                ax: ax.view(),
                b: b.view(),
                y0,
                sigma,
                lam,
                mu: 1.0 - lam,
                m,
            };
            if per_thread {
                gpu.launch(LaunchConfig::for_elems(n, BLOCK), &PrimalRefK(primal));
                gpu.launch(LaunchConfig::for_elems(m, BLOCK), &DualRefK(dual));
            } else {
                gpu.launch(LaunchConfig::sweep(), &primal);
                gpu.launch(LaunchConfig::sweep(), &dual);
            }
            [gpu.dtoh(&xy), gpu.dtoh(&xbar)]
        };
        (run(false), run(true))
    }

    const BLOCK: u32 = 128;

    #[test]
    fn update_sweeps_match_the_per_thread_kernels_bitwise() {
        for (n, m) in [(1usize, 1usize), (9, 4), (130, 257), (1000, 333)] {
            let (sweep, reference) = updates_on(n, m);
            for (s, r) in sweep.iter().zip(&reference) {
                assert_eq!(bits(s), bits(r), "n={n} m={m}");
            }
        }
    }

    #[test]
    fn update_sweeps_keep_the_per_thread_timing() {
        let spec = DeviceSpec::gtx280();
        let gpu = Gpu::new(spec.clone());
        let sweep = LaunchConfig::sweep();
        for n in [0usize, 1, 31, 128, 129, 5000] {
            let (mut a, mut b) = (gpu.alloc(n, 0.0f64), gpu.alloc(n, 0.0f64));
            let (r, w, w2) = (a.view(), a.view_mut(), b.view_mut());
            let primal = || PdhgPrimalK {
                x: w,
                xbar: w2,
                g: r,
                c: r,
                x0: r,
                tau: 1.0,
                lam: 0.5,
                mu: 0.5,
                n,
            };
            let cfg = LaunchConfig::for_elems(n, BLOCK);
            assert_eq!(
                kernel_timing(&spec, &cfg, &PrimalRefK(primal()).cost(&cfg)),
                kernel_timing(&spec, &sweep, &primal().cost(&sweep)),
                "primal n={n}"
            );
            let dual = || PdhgDualK {
                y: w2,
                ax: r,
                b: r,
                y0: r,
                sigma: 1.0,
                lam: 0.5,
                mu: 0.5,
                m: n,
            };
            assert_eq!(
                kernel_timing(&spec, &cfg, &DualRefK(dual()).cost(&cfg)),
                kernel_timing(&spec, &sweep, &dual().cost(&sweep)),
                "dual m={n}"
            );
        }
    }

    #[test]
    fn primal_projects_reflects_and_anchors() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut x = gpu.htod(&[1.0f64, 0.5, 2.0]);
        let mut xbar = gpu.alloc(3, 0.0f64);
        let g = gpu.htod(&[0.0f64, 0.0, 0.0]);
        let c = gpu.htod(&[1.0f64, 10.0, -1.0]);
        let x0 = gpu.htod(&[0.0f64, 0.0, 0.0]);
        // τ = 1, λ = 1/2: x⁺ = max(0, x − c) = [0, 0, 3].
        pdhg_primal_on(
            &mut Launcher::Direct(&gpu),
            x.view_mut(),
            xbar.view_mut(),
            g.view(),
            c.view(),
            x0.view(),
            1.0,
            0.5,
        )
        .unwrap();
        assert_eq!(gpu.dtoh(&xbar), vec![-1.0, -0.5, 4.0]); // 2x⁺ − x
        assert_eq!(gpu.dtoh(&x), vec![0.0, 0.0, 1.5]); // λx⁺ + (1−λ)x₀
    }

    #[test]
    fn dual_ascends_and_anchors() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let mut y = gpu.htod(&[1.0f64, -1.0]);
        let ax = gpu.htod(&[0.5f64, 2.0]);
        let b = gpu.htod(&[1.0f64, 1.0]);
        let y0 = gpu.htod(&[0.0f64, 4.0]);
        // σ = 2, λ = 3/4: y⁺ = y + 2(b − ax) = [2, −3].
        pdhg_dual_on(
            &mut Launcher::Direct(&gpu),
            y.view_mut(),
            ax.view(),
            b.view(),
            y0.view(),
            2.0,
            0.75,
        )
        .unwrap();
        assert_eq!(gpu.dtoh(&y), vec![1.5, -1.25]);
    }
}
