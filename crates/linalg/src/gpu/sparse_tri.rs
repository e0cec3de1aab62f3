//! Device-resident sparse triangular solves over LU factors — the GPU leg
//! of `BasisRepresentation::SparseLU`.
//!
//! The factors come from [`crate::lu::SparseLu`] (host Markowitz
//! factorization); [`DeviceLu::upload`] moves the CSC arrays into device
//! memory and precomputes the *level schedule depth* of each factor — the
//! length of the longest dependency chain in the triangular solve DAG. The
//! kernels here execute functionally on a single host iteration running the
//! exact arithmetic sequence of the host solves (so CPU and GPU backends
//! stay bitwise interchangeable), while their cost descriptors model the
//! level-scheduled CUDA kernel of the era: one pass per level, only the
//! rows of that level active, scattered gathers into the right-hand side.
//! Average modeled parallelism is therefore `m / depth` — a genuinely
//! sparse, shallow factor keeps the device busy; a near-dense triangle
//! degenerates toward the serial solve, and the cost model says so.

use gpu_sim::{
    AccessPattern, DView, DViewMut, DeviceBuffer, DeviceError, Gpu, Kernel, KernelCost,
    LaunchConfig, ThreadCtx,
};

use crate::lu::SparseLu;
use crate::scalar::Scalar;
use crate::sparse::CscMatrix;

/// LU factors of a basis resident in simulated device memory, plus the
/// host-side level metadata the cost model needs.
pub struct DeviceLu<T: Scalar> {
    l_col_ptr: DeviceBuffer<u32>,
    l_row_idx: DeviceBuffer<u32>,
    l_values: DeviceBuffer<T>,
    u_col_ptr: DeviceBuffer<u32>,
    u_row_idx: DeviceBuffer<u32>,
    u_values: DeviceBuffer<T>,
    u_diag: DeviceBuffer<T>,
    row_perm: DeviceBuffer<u32>,
    col_perm: DeviceBuffer<u32>,
    m: usize,
    nnz_l: usize,
    nnz_u: usize,
    /// Longest dependency chain through L-forward then U-backward (the
    /// level count a level-scheduled solver would launch).
    depth: usize,
}

/// Depth of the level schedule for a forward solve with `tri` (columns
/// processed in ascending order, each column scattering to rows below).
/// The backward/transposed solves share the same DAG, so one depth per
/// factor covers every solve direction.
fn level_depth<T: Scalar>(tri: &CscMatrix<T>, forward: bool) -> usize {
    let m = tri.cols();
    if m == 0 {
        return 0;
    }
    let mut level = vec![1u32; m];
    let mut max = 1u32;
    if forward {
        for k in 0..m {
            for (i, _) in tri.col(k) {
                level[i] = level[i].max(level[k] + 1);
                max = max.max(level[i]);
            }
        }
    } else {
        for j in (0..m).rev() {
            for (k, _) in tri.col(j) {
                level[k] = level[k].max(level[j] + 1);
                max = max.max(level[k]);
            }
        }
    }
    max as usize
}

impl<T: Scalar> DeviceLu<T> {
    /// Upload host factors (every array transfer is charged H2D).
    pub fn upload(gpu: &Gpu, lu: &SparseLu<T>) -> Result<Self, DeviceError> {
        let l = lu.l();
        let u = lu.u();
        Ok(DeviceLu {
            l_col_ptr: gpu.try_htod(&l.col_ptr)?,
            l_row_idx: gpu.try_htod(&l.row_idx)?,
            l_values: gpu.try_htod(&l.values)?,
            u_col_ptr: gpu.try_htod(&u.col_ptr)?,
            u_row_idx: gpu.try_htod(&u.row_idx)?,
            u_values: gpu.try_htod(&u.values)?,
            u_diag: gpu.try_htod(lu.u_diag())?,
            row_perm: gpu.try_htod(lu.row_perm())?,
            col_perm: gpu.try_htod(lu.col_perm())?,
            m: lu.m(),
            nnz_l: l.nnz(),
            nnz_u: u.nnz(),
            depth: level_depth(l, true) + level_depth(u, false),
        })
    }

    /// Dimension.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Level-schedule depth (L-forward + U-backward chains).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// FTRAN on the device: `x ← B₀⁻¹ x`. `scratch` must be length m.
    pub fn ftran(
        &self,
        gpu: &Gpu,
        x: DViewMut<T>,
        scratch: DViewMut<T>,
    ) -> Result<(), DeviceError> {
        assert_eq!(x.len(), self.m, "ftran: x length mismatch");
        assert_eq!(scratch.len(), self.m, "ftran: scratch length mismatch");
        gpu.try_launch(
            LaunchConfig::for_elems(self.m.max(1), 128),
            &LuFtranK {
                l_col_ptr: self.l_col_ptr.view(),
                l_row_idx: self.l_row_idx.view(),
                l_values: self.l_values.view(),
                u_col_ptr: self.u_col_ptr.view(),
                u_row_idx: self.u_row_idx.view(),
                u_values: self.u_values.view(),
                u_diag: self.u_diag.view(),
                row_perm: self.row_perm.view(),
                col_perm: self.col_perm.view(),
                x,
                scratch,
                m: self.m,
                nnz_l: self.nnz_l,
                nnz_u: self.nnz_u,
                depth: self.depth,
            },
        )?;
        Ok(())
    }

    /// BTRAN on the device: `y ← B₀⁻ᵀ y`. `scratch` must be length m.
    pub fn btran(
        &self,
        gpu: &Gpu,
        y: DViewMut<T>,
        scratch: DViewMut<T>,
    ) -> Result<(), DeviceError> {
        assert_eq!(y.len(), self.m, "btran: y length mismatch");
        assert_eq!(scratch.len(), self.m, "btran: scratch length mismatch");
        gpu.try_launch(
            LaunchConfig::for_elems(self.m.max(1), 128),
            &LuBtranK {
                l_col_ptr: self.l_col_ptr.view(),
                l_row_idx: self.l_row_idx.view(),
                l_values: self.l_values.view(),
                u_col_ptr: self.u_col_ptr.view(),
                u_row_idx: self.u_row_idx.view(),
                u_values: self.u_values.view(),
                u_diag: self.u_diag.view(),
                row_perm: self.row_perm.view(),
                col_perm: self.col_perm.view(),
                y,
                scratch,
                m: self.m,
                nnz_l: self.nnz_l,
                nnz_u: self.nnz_u,
                depth: self.depth,
            },
        )?;
        Ok(())
    }
}

/// Shared cost descriptor for the level-scheduled triangular-solve pair.
/// Modeled geometry: `depth` dependent passes, each launching the rows of
/// one level — index/value gathers are scattered by nature (the row lists
/// of a level are arbitrary), the right-hand side is read-modify-scattered,
/// and average occupancy is `m / depth` threads.
fn tri_solve_cost<T: Scalar>(m: usize, nnz_l: usize, nnz_u: usize, depth: usize) -> KernelCost {
    let m64 = m as u64;
    let nnz = (nnz_l + nnz_u) as u64;
    let avg_parallelism = (m64 / depth.max(1) as u64).max(1);
    KernelCost::new()
        .flops_total(2 * nnz + 4 * m64)
        .fp64(T::IS_F64)
        // Factor values + row indices, gathered per level.
        .read(AccessPattern::scattered::<T>(nnz))
        .read(AccessPattern::scattered::<u32>(nnz))
        // Column pointers for both factors, the diagonal, and the two
        // permutation vectors stream coalesced.
        .read(AccessPattern::coalesced::<u32>(2 * (m64 + 1)))
        .read(AccessPattern::coalesced::<T>(m64))
        .read(AccessPattern::coalesced::<u32>(2 * m64))
        // The rhs is gathered and scattered as columns eliminate into it.
        .read(AccessPattern::scattered::<T>(nnz + 2 * m64))
        .write(AccessPattern::scattered::<T>(nnz + 2 * m64))
        // Ragged level populations diverge within warps.
        .divergence(1.5)
        .int_ops_total(2 * nnz + 2 * m64)
        .active_threads_raw(avg_parallelism)
}

/// FTRAN through device-resident LU factors.
///
/// Functional geometry: one host iteration replaying the host solve's exact
/// arithmetic order (bitwise parity with
/// [`SparseLu::ftran_in_place`]). Modeled geometry: the level-scheduled
/// triangular-solve pair's shared cost descriptor (`tri_solve_cost`).
pub struct LuFtranK<T: Scalar> {
    pub l_col_ptr: DView<u32>,
    pub l_row_idx: DView<u32>,
    pub l_values: DView<T>,
    pub u_col_ptr: DView<u32>,
    pub u_row_idx: DView<u32>,
    pub u_values: DView<T>,
    pub u_diag: DView<T>,
    pub row_perm: DView<u32>,
    pub col_perm: DView<u32>,
    pub x: DViewMut<T>,
    pub scratch: DViewMut<T>,
    pub m: usize,
    pub nnz_l: usize,
    pub nnz_u: usize,
    pub depth: usize,
}

impl<T: Scalar> Kernel for LuFtranK<T> {
    fn name(&self) -> &'static str {
        "lu_ftran"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let m = self.m;
        let x = self.x.as_mut_slice();
        let z = self.scratch.as_mut_slice();
        let rp = self.row_perm.as_slice();
        let cp = self.col_perm.as_slice();
        for k in 0..m {
            z[k] = x[rp[k] as usize];
        }
        let lp = self.l_col_ptr.as_slice();
        let li = self.l_row_idx.as_slice();
        let lv = self.l_values.as_slice();
        for k in 0..m {
            let zk = z[k];
            if zk != T::ZERO {
                for e in lp[k] as usize..lp[k + 1] as usize {
                    let i = li[e] as usize;
                    z[i] -= lv[e] * zk;
                }
            }
        }
        let up = self.u_col_ptr.as_slice();
        let ui = self.u_row_idx.as_slice();
        let uv = self.u_values.as_slice();
        let ud = self.u_diag.as_slice();
        for j in (0..m).rev() {
            let yj = z[j] / ud[j];
            z[j] = yj;
            if yj != T::ZERO {
                for e in up[j] as usize..up[j + 1] as usize {
                    let k = ui[e] as usize;
                    z[k] -= uv[e] * yj;
                }
            }
        }
        for k in 0..m {
            x[cp[k] as usize] = z[k];
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        tri_solve_cost::<T>(self.m, self.nnz_l, self.nnz_u, self.depth)
    }
}

/// BTRAN through device-resident LU factors (transposed solves, same
/// modeled geometry as [`LuFtranK`]).
pub struct LuBtranK<T: Scalar> {
    pub l_col_ptr: DView<u32>,
    pub l_row_idx: DView<u32>,
    pub l_values: DView<T>,
    pub u_col_ptr: DView<u32>,
    pub u_row_idx: DView<u32>,
    pub u_values: DView<T>,
    pub u_diag: DView<T>,
    pub row_perm: DView<u32>,
    pub col_perm: DView<u32>,
    pub y: DViewMut<T>,
    pub scratch: DViewMut<T>,
    pub m: usize,
    pub nnz_l: usize,
    pub nnz_u: usize,
    pub depth: usize,
}

impl<T: Scalar> Kernel for LuBtranK<T> {
    fn name(&self) -> &'static str {
        "lu_btran"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let m = self.m;
        let y = self.y.as_mut_slice();
        let z = self.scratch.as_mut_slice();
        let rp = self.row_perm.as_slice();
        let cp = self.col_perm.as_slice();
        for k in 0..m {
            z[k] = y[cp[k] as usize];
        }
        let up = self.u_col_ptr.as_slice();
        let ui = self.u_row_idx.as_slice();
        let uv = self.u_values.as_slice();
        let ud = self.u_diag.as_slice();
        for j in 0..m {
            let mut acc = z[j];
            for e in up[j] as usize..up[j + 1] as usize {
                acc -= uv[e] * z[ui[e] as usize];
            }
            z[j] = acc / ud[j];
        }
        let lp = self.l_col_ptr.as_slice();
        let li = self.l_row_idx.as_slice();
        let lv = self.l_values.as_slice();
        for k in (0..m).rev() {
            let mut acc = z[k];
            for e in lp[k] as usize..lp[k + 1] as usize {
                acc -= lv[e] * z[li[e] as usize];
            }
            z[k] = acc;
        }
        for k in 0..m {
            y[rp[k] as usize] = z[k];
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        tri_solve_cost::<T>(self.m, self.nnz_l, self.nnz_u, self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceSpec;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn random_basis(m: usize, extra: usize, seed: &mut u64) -> Vec<Vec<(usize, f64)>> {
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 2.0 + lcg(seed))]).collect();
        for _ in 0..extra {
            let i = (lcg(seed).abs() * m as f64) as usize % m;
            let j = (lcg(seed).abs() * m as f64) as usize % m;
            if i != j && !cols[j].iter().any(|&(r, _)| r == i) {
                cols[j].push((i, 0.5 * lcg(seed)));
            }
        }
        cols
    }

    #[test]
    fn device_solves_match_host_bitwise() {
        let mut seed = 11u64;
        for (m, extra) in [(5usize, 8usize), (24, 60), (40, 120)] {
            let cols = random_basis(m, extra, &mut seed);
            let lu = SparseLu::<f64>::factorize(m, &cols, 0.1).expect("nonsingular");
            let gpu = Gpu::new(DeviceSpec::gtx280());
            let dev = DeviceLu::upload(&gpu, &lu).unwrap();
            let b: Vec<f64> = (0..m).map(|i| 0.125 + i as f64 * 0.75).collect();

            let mut host_x = b.clone();
            let mut host_scratch = vec![0.0; m];
            lu.ftran_in_place(&mut host_x, &mut host_scratch);
            let mut x_dev = gpu.try_htod(&b).unwrap();
            let mut scratch = gpu.try_alloc(m, 0.0f64).unwrap();
            dev.ftran(&gpu, x_dev.view_mut(), scratch.view_mut())
                .unwrap();
            assert_eq!(gpu.try_dtoh(&x_dev).unwrap(), host_x, "ftran (m={m})");

            let mut host_y = b.clone();
            lu.btran_in_place(&mut host_y, &mut host_scratch);
            let mut y_dev = gpu.try_htod(&b).unwrap();
            dev.btran(&gpu, y_dev.view_mut(), scratch.view_mut())
                .unwrap();
            assert_eq!(gpu.try_dtoh(&y_dev).unwrap(), host_y, "btran (m={m})");
        }
    }

    #[test]
    fn identity_factors_have_unit_depth() {
        let m = 9;
        let cols: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 1.0)]).collect();
        let lu = SparseLu::<f64>::factorize(m, &cols, 0.1).unwrap();
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let dev = DeviceLu::upload(&gpu, &lu).unwrap();
        // Empty strictly-triangular factors: one level each direction.
        assert_eq!(dev.depth(), 2);
        // A dense-ish chain deepens the schedule: bidiagonal lower factor.
        let mut chain: Vec<Vec<(usize, f64)>> = (0..m).map(|j| vec![(j, 1.0)]).collect();
        for (j, col) in chain.iter_mut().enumerate().take(m - 1) {
            col.push((j + 1, 0.5));
        }
        let lu2 = SparseLu::<f64>::factorize(m, &chain, 0.1).unwrap();
        let dev2 = DeviceLu::upload(&gpu, &lu2).unwrap();
        assert!(
            dev2.depth() >= m,
            "chain basis must serialize: {}",
            dev2.depth()
        );
    }

    #[test]
    fn cost_scales_with_depth_not_just_nnz() {
        // Same nnz, different depth → the deeper solve models slower
        // (occupancy collapses), which is the whole point of the level
        // model.
        let shallow = tri_solve_cost::<f64>(1024, 2048, 2048, 4);
        let deep = tri_solve_cost::<f64>(1024, 2048, 2048, 512);
        assert_eq!(shallow.flops, deep.flops);
        assert!(shallow.active_threads > deep.active_threads);
    }
}
