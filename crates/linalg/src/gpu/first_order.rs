//! Fused first-order (PDHG) update kernels.
//!
//! One reflected restarted-Halpern PDHG iteration on the standardized LP is
//! four kernels — `spmv_t` (Aᵀy gather), the primal update below, `spmv`
//! (A·x̄ scatter-free CSR product) and the dual update below — submitted
//! through one [`Launcher`], so a fused chain charges a single launch
//! overhead per iteration exactly like the simplex pivot chain does.
//!
//! With `z = (x, y)` and `T` one PDHG step, the iteration is the reflected
//! Halpern step `z ← λ(2T(z) − z) + (1−λ)z₀`. The updates fold it into one
//! elementwise pass each:
//!
//! ```text
//! primal:  x⁺ = max(0, x − τ(c − g))        (g = Aᵀy)
//!          x̄  = 2x⁺ − x                      (reflection)
//!          x  = λx̄ + (1−λ)x₀                 (Halpern anchor pull)
//! dual:    y⁺ = y + σ(b − Ax̄)
//!          y  = λ(2y⁺ − y) + (1−λ)y₀
//! ```
//!
//! with λ = (k+1)/(k+2) and `x₀`/`y₀` the restart anchor. The reflected
//! iterate is not a projected point, so the driver checks and returns the
//! PDHG output `T(z) = (x⁺, y⁺)` instead. On a block's last iteration the
//! kernels `emit` it: each overwrites the element of `g` (or `Ax̄`) it has
//! just read with `x⁺ⱼ` (or `y⁺ᵢ`), so `T(z)` needs no device memory of
//! its own. Everything is coalesced: lane `j` touches only element `j` of
//! each operand.
//!
//! Both updates are sweep kernels (see [`LaunchConfig::sweep`]): one host
//! pass builds every element with exactly its modeled thread's expression,
//! and the cost descriptors declare one modeled thread per element. The
//! operands of one launch must not overlap (the iterate is updated in
//! place, through its own view).

use gpu_sim::{
    AccessPattern, DView, DViewMut, DeviceError, Gpu, Kernel, KernelCost, LaunchConfig, Launcher,
    ThreadCtx,
};

use crate::scalar::Scalar;

/// Fused PDHG primal step: projection, reflection and Halpern fold.
pub struct PdhgPrimalK<T: Scalar> {
    /// Current primal iterate; overwritten with the anchored new iterate.
    pub x: DViewMut<T>,
    /// Reflected iterate `2x⁺ − x`, consumed by the following `spmv`.
    pub xbar: DViewMut<T>,
    /// `Aᵀy` from the preceding gather; overwritten with `x⁺` when `emit`.
    pub g: DViewMut<T>,
    /// Objective coefficients.
    pub c: DView<T>,
    /// Restart anchor `x₀`.
    pub x0: DView<T>,
    /// Primal step size τ.
    pub tau: T,
    /// Halpern weight λ = (k+1)/(k+2) on the reflected step.
    pub lam: T,
    /// Anchor weight 1 − λ.
    pub mu: T,
    /// Store the PDHG output `x⁺` in `g` (a check block's last iteration).
    pub emit: bool,
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
        let (x, xbar, g) = (&mut x[..n], &mut xbar[..n], &mut self.g.as_mut_slice()[..n]);
        let (c, x0) = (&self.c.as_slice()[..n], &self.x0.as_slice()[..n]);
        for j in 0..n {
            let xj = x[j];
            let step = xj - self.tau * (c[j] - g[j]);
            let xnew = if step > T::ZERO { step } else { T::ZERO };
            let xb = xnew + xnew - xj;
            xbar[j] = xb;
            x[j] = self.lam * xb + self.mu * x0[j];
            if self.emit {
                g[j] = xnew;
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        primal_cost::<T>(self.n as u64, self.emit).active_threads_raw(self.n as u64)
    }
}

/// The primal update's traffic: four reads, two writes, and the emitted
/// `x⁺` on a block's last iteration.
fn primal_cost<T: Scalar>(n: u64, emit: bool) -> KernelCost {
    let mut cost = KernelCost::new().flops_total(8 * n).fp64(T::IS_F64);
    for _ in 0..4 {
        cost = cost.read(AccessPattern::coalesced::<T>(n));
    }
    for _ in 0..2 + emit as usize {
        cost = cost.write(AccessPattern::coalesced::<T>(n));
    }
    cost
}

/// Fused PDHG dual step: gradient ascent on the residual, reflection and
/// Halpern fold.
pub struct PdhgDualK<T: Scalar> {
    /// Current dual iterate; overwritten with the anchored new iterate.
    pub y: DViewMut<T>,
    /// `A·x̄` from the preceding product; overwritten with `y⁺` when `emit`.
    pub ax: DViewMut<T>,
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
    /// Store the PDHG output `y⁺` in `ax` (a check block's last iteration).
    pub emit: bool,
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
        let (y, ax) = (
            &mut self.y.as_mut_slice()[..m],
            &mut self.ax.as_mut_slice()[..m],
        );
        let (b, y0) = (&self.b.as_slice()[..m], &self.y0.as_slice()[..m]);
        for i in 0..m {
            let yi = y[i];
            let ynew = self.sigma.mul_add(b[i] - ax[i], yi);
            y[i] = self.lam * (ynew + ynew - yi) + self.mu * y0[i];
            if self.emit {
                ax[i] = ynew;
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        dual_cost::<T>(self.m as u64, self.emit).active_threads_raw(self.m as u64)
    }
}

/// The dual update's traffic: four reads, one write, and the emitted `y⁺`
/// on a block's last iteration.
fn dual_cost<T: Scalar>(m: u64, emit: bool) -> KernelCost {
    let mut cost = KernelCost::new().flops_total(8 * m).fp64(T::IS_F64);
    for _ in 0..4 {
        cost = cost.read(AccessPattern::coalesced::<T>(m));
    }
    for _ in 0..1 + emit as usize {
        cost = cost.write(AccessPattern::coalesced::<T>(m));
    }
    cost
}

/// If the device flagged an injected corruption, overwrite every output of
/// the kernel with NaN (host-side poke, charging nothing): the emitted
/// `T(z)` is poisoned along with the iterate, so a check sees the fault.
fn poison_outputs_if_corrupted<T: Scalar>(gpu: &Gpu, outs: &[&DViewMut<T>]) {
    if gpu.take_corruption() {
        let nan = T::from_f64(f64::NAN);
        for out in outs {
            for i in 0..out.len() {
                out.set(i, nan);
            }
        }
    }
}

/// Submit the fused primal update through `l`.
#[allow(clippy::too_many_arguments)]
pub fn pdhg_primal_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    x: DViewMut<T>,
    xbar: DViewMut<T>,
    g: DViewMut<T>,
    c: DView<T>,
    x0: DView<T>,
    tau: T,
    lam: T,
    emit: bool,
) -> Result<(), DeviceError> {
    let n = x.len();
    assert!(
        xbar.len() == n && g.len() == n && c.len() == n && x0.len() == n,
        "pdhg_primal: operand length mismatch"
    );
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
            emit,
            n,
        },
    )?;
    let outs: &[&DViewMut<T>] = if emit { &[&x, &g] } else { &[&x] };
    poison_outputs_if_corrupted(l.gpu(), outs);
    Ok(())
}

/// Submit the fused dual update through `l`.
#[allow(clippy::too_many_arguments)]
pub fn pdhg_dual_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    y: DViewMut<T>,
    ax: DViewMut<T>,
    b: DView<T>,
    y0: DView<T>,
    sigma: T,
    lam: T,
    emit: bool,
) -> Result<(), DeviceError> {
    let m = y.len();
    assert!(
        ax.len() == m && b.len() == m && y0.len() == m,
        "pdhg_dual: operand length mismatch"
    );
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
            emit,
            m,
        },
    )?;
    let outs: &[&DViewMut<T>] = if emit { &[&y, &ax] } else { &[&y] };
    poison_outputs_if_corrupted(l.gpu(), outs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::timing::kernel_timing;
    use gpu_sim::DeviceSpec;

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
            let xbar = xnew + xnew - xj;
            k.xbar.set(j, xbar);
            k.x.set(j, k.lam * xbar + k.mu * k.x0.get(j));
            if k.emit {
                k.g.set(j, xnew);
            }
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            primal_cost::<T>(self.0.n as u64, self.0.emit).active_threads(cfg, self.0.n as u64)
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
            let yi = k.y.get(i);
            let ynew = k.sigma.mul_add(k.b.get(i) - k.ax.get(i), yi);
            k.y.set(i, k.lam * (ynew + ynew - yi) + k.mu * k.y0.get(i));
            if k.emit {
                k.ax.set(i, ynew);
            }
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            dual_cost::<T>(self.0.m as u64, self.0.emit).active_threads(cfg, self.0.m as u64)
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
    /// per-thread references, laid out as the driver lays them out: the
    /// iterate, its anchor and the `g‖Ax̄` scratch are each one buffer,
    /// and the updates write through subviews of them. Returns the
    /// iterate, `x̄` and the scratch (which holds `T(z)` when `emit`).
    fn updates_on(n: usize, m: usize, emit: bool) -> ([Vec<f64>; 3], [Vec<f64>; 3]) {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let run = |per_thread: bool| -> [Vec<f64>; 3] {
            let mut xy = gpu.htod(&[values(n, 0), values(m, 1)].concat());
            let xy0 = gpu.htod(&[values(n, 2), values(m, 3)].concat());
            let mut gax = gpu.htod(&[values(n, 4), values(m, 6)].concat());
            let mut xbar = gpu.alloc(n, f64::NAN);
            let (c, b) = (gpu.htod(&values(n, 5)), gpu.htod(&values(m, 7)));
            let (v, s) = (xy.view_mut(), gax.view_mut());
            let (x, y) = (v.subview_mut(0, n), v.subview_mut(n, m));
            let (g, ax) = (s.subview_mut(0, n), s.subview_mut(n, m));
            let (x0, y0) = (xy0.view().subview(0, n), xy0.view().subview(n, m));
            let (tau, sigma, lam) = (0.3, 1.7, 5.0 / 6.0);
            let primal = PdhgPrimalK {
                x,
                xbar: xbar.view_mut(),
                g,
                c: c.view(),
                x0,
                tau,
                lam,
                mu: 1.0 - lam,
                emit,
                n,
            };
            let dual = PdhgDualK {
                y,
                ax,
                b: b.view(),
                y0,
                sigma,
                lam,
                mu: 1.0 - lam,
                emit,
                m,
            };
            if per_thread {
                gpu.launch(LaunchConfig::for_elems(n, BLOCK), &PrimalRefK(primal));
                gpu.launch(LaunchConfig::for_elems(m, BLOCK), &DualRefK(dual));
            } else {
                gpu.launch(LaunchConfig::sweep(), &primal);
                gpu.launch(LaunchConfig::sweep(), &dual);
            }
            [gpu.dtoh(&xy), gpu.dtoh(&xbar), gpu.dtoh(&gax)]
        };
        (run(false), run(true))
    }

    const BLOCK: u32 = 128;

    #[test]
    fn update_sweeps_match_the_per_thread_kernels_bitwise() {
        for (n, m) in [(1usize, 1usize), (9, 4), (130, 257), (1000, 333)] {
            for emit in [false, true] {
                let (sweep, reference) = updates_on(n, m, emit);
                for (s, r) in sweep.iter().zip(&reference) {
                    assert_eq!(bits(s), bits(r), "n={n} m={m} emit={emit}");
                }
            }
        }
    }

    #[test]
    fn update_sweeps_keep_the_per_thread_timing() {
        let spec = DeviceSpec::gtx280();
        let gpu = Gpu::new(spec.clone());
        let sweep = LaunchConfig::sweep();
        for n in [0usize, 1, 31, 128, 129, 5000] {
            for emit in [false, true] {
                let (mut a, mut b) = (gpu.alloc(n, 0.0f64), gpu.alloc(n, 0.0f64));
                let (r, w, w2) = (a.view(), a.view_mut(), b.view_mut());
                let primal = || PdhgPrimalK {
                    x: w,
                    xbar: w2,
                    g: w2,
                    c: r,
                    x0: r,
                    tau: 1.0,
                    lam: 0.5,
                    mu: 0.5,
                    emit,
                    n,
                };
                let cfg = LaunchConfig::for_elems(n, BLOCK);
                assert_eq!(
                    kernel_timing(&spec, &cfg, &PrimalRefK(primal()).cost(&cfg)),
                    kernel_timing(&spec, &sweep, &primal().cost(&sweep)),
                    "primal n={n} emit={emit}"
                );
                let dual = || PdhgDualK {
                    y: w2,
                    ax: w,
                    b: r,
                    y0: r,
                    sigma: 1.0,
                    lam: 0.5,
                    mu: 0.5,
                    emit,
                    m: n,
                };
                assert_eq!(
                    kernel_timing(&spec, &cfg, &DualRefK(dual()).cost(&cfg)),
                    kernel_timing(&spec, &sweep, &dual().cost(&sweep)),
                    "dual m={n} emit={emit}"
                );
            }
        }
    }

    #[test]
    fn primal_projects_reflects_and_anchors() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let c = gpu.htod(&[1.0f64, 10.0, -1.0]);
        let x0 = gpu.htod(&[0.0f64, 2.0, 0.0]);
        for emit in [false, true] {
            let mut x = gpu.htod(&[1.0f64, 0.5, 2.0]);
            let mut xbar = gpu.alloc(3, 0.0f64);
            let mut g = gpu.htod(&[0.0f64, 0.0, 0.0]);
            // τ = 1, λ = 1/2: x⁺ = max(0, x − c) = [0, 0, 3].
            pdhg_primal_on(
                &mut Launcher::Direct(&gpu),
                x.view_mut(),
                xbar.view_mut(),
                g.view_mut(),
                c.view(),
                x0.view(),
                1.0,
                0.5,
                emit,
            )
            .unwrap();
            assert_eq!(gpu.dtoh(&xbar), vec![-1.0, -0.5, 4.0]); // x̄ = 2x⁺ − x
            assert_eq!(gpu.dtoh(&x), vec![-0.5, 0.75, 2.0]); // λx̄ + (1−λ)x₀
            let emitted = if emit {
                vec![0.0, 0.0, 3.0]
            } else {
                vec![0.0; 3]
            };
            assert_eq!(gpu.dtoh(&g), emitted, "emit={emit}"); // x⁺ when emitting
        }
    }

    #[test]
    fn dual_ascends_and_anchors() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let b = gpu.htod(&[1.0f64, 1.0]);
        let y0 = gpu.htod(&[0.0f64, 4.0]);
        for emit in [false, true] {
            let mut y = gpu.htod(&[1.0f64, -1.0]);
            let mut ax = gpu.htod(&[0.5f64, 2.0]);
            // σ = 2, λ = 3/4: y⁺ = y + 2(b − ax) = [2, −3], 2y⁺ − y = [3, −5].
            pdhg_dual_on(
                &mut Launcher::Direct(&gpu),
                y.view_mut(),
                ax.view_mut(),
                b.view(),
                y0.view(),
                2.0,
                0.75,
                emit,
            )
            .unwrap();
            assert_eq!(gpu.dtoh(&y), vec![2.25, -2.75]); // λ(2y⁺ − y) + (1−λ)y₀
            let emitted = if emit {
                vec![2.0, -3.0]
            } else {
                vec![0.5, 2.0]
            };
            assert_eq!(gpu.dtoh(&ax), emitted, "emit={emit}"); // y⁺ when emitting
        }
    }
}
