//! On-device Gauss–Jordan basis reinversion with partial pivoting.
//!
//! [`invert_basis_on`] rebuilds `B⁻¹` without a host decision between its
//! kernels, so the whole routine fits one fused launch group:
//!
//! 1. one gather kernel assembles the augmented matrix `[B | I]` from the
//!    resident constraint columns and the basis mirror (artificial columns
//!    are unit columns, named by a row table computed once);
//! 2. each of the `m` steps picks the first row of largest `|·|` in the
//!    pivot column (the rule of [`crate::blas::gauss_jordan_invert`]),
//!    swaps it into place, builds the eta column, extracts the pivot row
//!    and eliminates — over columns `k..2m` only, since the columns left of
//!    `k` are already unit vectors and only the right half is read back;
//! 3. the right half is copied into the output.
//!
//! A pivot at or below the tolerance (or not finite) raises a sticky guard
//! word on the device instead of stopping the sweep. The caller reads the
//! guard back once, after the group: on a raised guard the output matrix
//! was left untouched, and the caller falls back to a host inversion.

use gpu_sim::{
    AccessPattern, DView, DViewMut, DeviceBuffer, DeviceError, Kernel, KernelCost, LaunchConfig,
    Launcher, ThreadCtx,
};

use super::kernels::{EtaK, RowExtractK};
use super::mat::{DeviceMatrix, Layout};
use crate::scalar::Scalar;

/// Block size of the per-row launches.
const BLOCK: u32 = 128;

/// Guard word value: every pivot was acceptable.
pub const INVERT_OK: u32 = 0;

/// Where the columns of the basis to invert live on the device.
pub struct BasisColumns<'a, T: Scalar> {
    /// Directly addressable columns, col-major, `m` rows.
    pub a: &'a DeviceMatrix<T>,
    /// For column `a.cols() + t`: the row of its single `+1` (an identity
    /// column), or `u32::MAX` when that column is not a unit column.
    pub unit_rows: DView<u32>,
    /// The column basic in each row (length `m`).
    pub basis: DView<u32>,
}

/// Invert the basis named by `cols` into `inv` (m × m, col-major) through
/// `l`, with partial pivoting and pivot tolerance `tol`.
///
/// Returns the device guard word (one `u32`): [`INVERT_OK`] when every
/// pivot passed, nonzero when a pivot was `≤ tol` or not finite, or when
/// the basis names a column that is neither resident nor a unit column.
/// With a raised guard `inv` is left as it was. Reading the guard is the
/// caller's one device→host transfer.
pub fn invert_basis_on<T: Scalar>(
    l: &mut Launcher<'_, '_>,
    cols: &BasisColumns<'_, T>,
    tol: T,
    inv: &mut DeviceMatrix<T>,
) -> Result<DeviceBuffer<u32>, DeviceError> {
    let m = inv.rows();
    assert_eq!(inv.cols(), m, "inverse of a non-square matrix");
    assert_eq!(
        inv.layout(),
        Layout::ColMajor,
        "device inversion is col-major"
    );
    assert_eq!(
        cols.a.layout(),
        Layout::ColMajor,
        "basis columns are col-major"
    );
    assert_eq!(cols.a.rows(), m, "basis column length mismatch");
    assert_eq!(cols.basis.len(), m, "basis length mismatch");
    let gpu = l.gpu();
    // [guard, pivot row of the current step].
    let mut ctl = gpu.try_alloc(2, INVERT_OK)?;
    if m == 0 {
        return Ok(ctl);
    }
    let mut aug = gpu.try_alloc(2 * m * m, T::ZERO)?;
    let mut eta = gpu.try_alloc(m, T::ZERO)?;
    let mut rowp = gpu.try_alloc(2 * m, T::ZERO)?;
    l.try_launch(
        LaunchConfig::sweep(),
        &GatherBasisK {
            a: cols.a.view(),
            n: cols.a.cols(),
            unit_rows: cols.unit_rows,
            basis: cols.basis,
            aug: aug.view_mut(),
            guard: ctl.view_mut(),
            m,
        },
    )?;
    for k in 0..m {
        // The live window: columns k..2m of the m × 2m augmented matrix,
        // whose first column is the pivot column.
        let w = 2 * m - k;
        let window = aug.view_mut().subview_mut(k * m, w * m);
        let pivot_col = window.as_view().subview(0, m);
        l.try_launch(
            LaunchConfig::sweep(),
            &PivotPickK {
                col: pivot_col,
                k,
                tol,
                ctl: ctl.view_mut(),
            },
        )?;
        l.try_launch(
            LaunchConfig::for_elems(w, BLOCK),
            &RowSwapK {
                mat: window,
                ctl: ctl.view(),
                k,
                rows: m,
                cols: w,
            },
        )?;
        l.try_launch(
            LaunchConfig::for_elems(m, BLOCK),
            &EtaK {
                alpha: pivot_col,
                p: k,
                eta: eta.view_mut(),
                m,
            },
        )?;
        l.try_launch(
            LaunchConfig::for_elems(w, BLOCK),
            &RowExtractK {
                mat: window.as_view(),
                rows: m,
                cols: w,
                layout: Layout::ColMajor,
                p: k,
                out: rowp.view_mut().subview_mut(0, w),
            },
        )?;
        l.try_launch(
            LaunchConfig::sweep(),
            &EliminateWindowK {
                mat: window,
                eta: eta.view(),
                rowp: rowp.view().subview(0, w),
                p: k,
                rows: m,
                cols: w,
            },
        )?;
    }
    l.try_launch(
        LaunchConfig::sweep(),
        &GuardedCopyK {
            src: aug.view().subview(m * m, m * m),
            dst: inv.view_mut(),
            guard: ctl.view(),
        },
    )?;
    Ok(ctl)
}

/// Assemble `[B | I]` (m × 2m, col-major): column `r` is resident column
/// `basis[r]`, or the unit column its row table names; columns `m..2m` are
/// the identity. Sets the guard word: clear, or raised when a basis column
/// is neither resident nor a unit column. Modeled as one thread per
/// element of the augmented matrix; functionally one host sweep.
struct GatherBasisK<T: Scalar> {
    a: DView<T>,
    n: usize,
    unit_rows: DView<u32>,
    basis: DView<u32>,
    aug: DViewMut<T>,
    guard: DViewMut<u32>,
    m: usize,
}

impl<T: Scalar> Kernel for GatherBasisK<T> {
    fn name(&self) -> &'static str {
        "gj_gather"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let m = self.m;
        let a = self.a.as_slice();
        let aug = self.aug.as_mut_slice();
        aug.fill(T::ZERO);
        let mut guard = INVERT_OK;
        for r in 0..m {
            let j = self.basis.get(r) as usize;
            let col = &mut aug[r * m..(r + 1) * m];
            if j < self.n {
                col.copy_from_slice(&a[j * m..(j + 1) * m]);
            } else {
                match self.unit_rows.as_slice().get(j - self.n) {
                    Some(&row) if (row as usize) < m => col[row as usize] = T::ONE,
                    _ => guard = 1,
                }
            }
            aug[(m + r) * m + r] = T::ONE;
        }
        self.guard.set(0, guard);
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .read(AccessPattern::broadcast::<u32>(m * m))
            .read(AccessPattern::coalesced::<T>(m * m))
            .write(AccessPattern::coalesced::<T>(2 * m * m))
            .active_threads_raw(2 * m * m)
    }
}

/// Partial-pivot pick for step `k`: the first row `i ≥ k` of largest
/// `|col[i]|` goes to `ctl[1]`; a best value `≤ tol` or not finite raises
/// the sticky guard `ctl[0]`. Modeled as a one-block tree reduction over
/// the `m − k` candidates; functionally one host scan.
struct PivotPickK<T: Scalar> {
    col: DView<T>,
    k: usize,
    tol: T,
    ctl: DViewMut<u32>,
}

impl<T: Scalar> Kernel for PivotPickK<T> {
    fn name(&self) -> &'static str {
        "gj_pivot_pick"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let col = self.col.as_slice();
        let mut piv = self.k;
        let mut best = col[self.k].abs();
        for (i, v) in col.iter().enumerate().skip(self.k + 1) {
            let v = v.abs();
            if v > best {
                best = v;
                piv = i;
            }
        }
        if !(best > self.tol) || !best.is_finite() {
            self.ctl.set(0, 1);
        }
        self.ctl.set(1, piv as u32);
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let n = (self.col.len() - self.k) as u64;
        KernelCost::new()
            .flops_total(2 * n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(n))
            .smem(2 * n)
            .write(AccessPattern::coalesced::<u32>(2))
            .active_threads_raw(n)
    }
}

/// Swap row `k` with the picked pivot row `ctl[1]` across the `cols`
/// columns of the window (a no-op when they coincide). Rows are strided
/// by `rows` elements in col-major storage.
struct RowSwapK<T: Scalar> {
    mat: DViewMut<T>,
    ctl: DView<u32>,
    k: usize,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Kernel for RowSwapK<T> {
    fn name(&self) -> &'static str {
        "gj_row_swap"
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        let r = self.ctl.get(1) as usize;
        if j >= self.cols || r == self.k {
            return;
        }
        let (a, b) = (self.k + j * self.rows, r + j * self.rows);
        let (va, vb) = (self.mat.get(a), self.mat.get(b));
        self.mat.set(a, vb);
        self.mat.set(b, va);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.cols as u64;
        let stride = self.rows as u64 * T::BYTES;
        KernelCost::new()
            .read(AccessPattern::broadcast::<u32>(n))
            .read(AccessPattern::strided::<T>(2 * n, stride))
            .write(AccessPattern::strided::<T>(2 * n, stride))
            .active_threads(cfg, n)
    }
}

/// The elimination of one Gauss–Jordan step over the live window:
/// `M[i,j] ← (i == p ? 0 : M[i,j]) + eta[i]·rowp[j]`, the arithmetic of
/// [`super::kernels::PivotUpdateK`]. The functional body skips columns
/// whose pivot-row entry is zero and rows whose multiplier is zero, as the
/// host inversion does; either skip leaves the entry as it was, up to the
/// sign of a zero. The model charges the dense window, one thread per
/// element.
struct EliminateWindowK<T: Scalar> {
    mat: DViewMut<T>,
    eta: DView<T>,
    rowp: DView<T>,
    p: usize,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> Kernel for EliminateWindowK<T> {
    fn name(&self) -> &'static str {
        "gj_eliminate"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let m = self.rows;
        let mat = self.mat.as_mut_slice();
        let eta = self.eta.as_slice();
        let live: Vec<usize> = (0..m)
            .filter(|&i| i != self.p && eta[i] != T::ZERO)
            .collect();
        let ep = eta[self.p];
        for (j, &rpj) in self.rowp.as_slice().iter().enumerate() {
            if rpj == T::ZERO {
                continue;
            }
            let col = &mut mat[j * m..(j + 1) * m];
            col[self.p] = ep.mul_add(rpj, T::ZERO);
            for &i in &live {
                col[i] = eta[i].mul_add(rpj, col[i]);
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let mn = (self.rows * self.cols) as u64;
        KernelCost::new()
            .flops_total(2 * mn)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(mn))
            .read(AccessPattern::coalesced::<T>(mn))
            .read(AccessPattern::broadcast::<T>(mn))
            .write(AccessPattern::coalesced::<T>(mn))
            .active_threads_raw(mn)
    }
}

/// `dst ← src` unless the guard word is raised. Modeled as one thread per
/// element (the guard read is a warp-uniform broadcast); functionally one
/// host copy.
struct GuardedCopyK<T: Scalar> {
    src: DView<T>,
    dst: DViewMut<T>,
    guard: DView<u32>,
}

impl<T: Scalar> Kernel for GuardedCopyK<T> {
    fn name(&self) -> &'static str {
        "guarded_copy"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 || self.guard.get(0) != INVERT_OK {
            return;
        }
        self.dst.as_mut_slice().copy_from_slice(self.src.as_slice());
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let n = self.src.len() as u64;
        KernelCost::new()
            .read(AccessPattern::broadcast::<u32>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads_raw(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dense::DenseMatrix;
    use gpu_sim::{DeviceSpec, Gpu};

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::gtx280())
    }

    fn well_conditioned(m: usize) -> DenseMatrix<f64> {
        let mut a = DenseMatrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                let v = (((i * 31 + j * 17 + 3) % 19) as f64 - 9.0) / 19.0;
                a.set(i, j, v + if i == j { 4.0 } else { 0.0 });
            }
        }
        a
    }

    /// Invert `host` (as the basis `0..m` of its own columns) on the device:
    /// `Some(inverse)` on a clear guard, `None` on a raised one.
    fn device_invert(g: &Gpu, host: &DenseMatrix<f64>, tol: f64) -> Option<DenseMatrix<f64>> {
        let m = host.rows();
        let a = DeviceMatrix::upload(g, host, Layout::ColMajor).unwrap();
        let basis: Vec<u32> = (0..m as u32).collect();
        let basis = g.htod(&basis);
        let unit_rows = g.alloc(0, 0u32);
        let mut inv = DeviceMatrix::zeros(g, m, m, Layout::ColMajor).unwrap();
        let cols = BasisColumns {
            a: &a,
            unit_rows: unit_rows.view(),
            basis: basis.view(),
        };
        let guard = invert_basis_on(&mut Launcher::Direct(g), &cols, tol, &mut inv).unwrap();
        (g.dtoh_range(&guard, 0, 1)[0] == INVERT_OK).then(|| inv.download(g).unwrap())
    }

    fn assert_matches_host(host: &DenseMatrix<f64>) {
        let g = gpu();
        let dev = device_invert(&g, host, 1e-12).expect("invertible");
        let reference = blas::gauss_jordan_invert(host).expect("invertible");
        let m = host.rows();
        for i in 0..m {
            for j in 0..m {
                assert!(
                    (dev.get(i, j) - reference.get(i, j)).abs() < 1e-9,
                    "({i},{j}): {} vs {}",
                    dev.get(i, j),
                    reference.get(i, j)
                );
            }
        }
    }

    #[test]
    fn device_inverse_matches_host_inverse() {
        assert_matches_host(&well_conditioned(24));
    }

    #[test]
    fn zero_diagonal_permutation_is_inverted_by_row_exchanges() {
        // A cyclic permutation: every diagonal entry is zero, so elimination
        // without row exchanges fails at the first step.
        let m = 7;
        let mut p = DenseMatrix::zeros(m, m);
        for j in 0..m {
            p.set((j + 3) % m, j, 1.0);
        }
        assert_matches_host(&p);
    }

    #[test]
    fn sparse_basis_matches_host_inverse() {
        // A sparse basis with a zero leading entry and mixed magnitudes:
        // column j holds a large entry in row π(j) and a smaller one in row
        // π(j + 1), for the row permutation π(j) = (5j + 1) mod m — lower
        // bidiagonal up to row order, so invertible, yet every step needs
        // the pivot search.
        let m = 12;
        let pi = |j: usize| (5 * j + 1) % m;
        let mut b = DenseMatrix::zeros(m, m);
        for j in 0..m {
            b.set(pi(j), j, 2.0 + j as f64 * 0.25);
            if j + 1 < m {
                b.set(pi(j + 1), j, -0.5 - (j % 3) as f64);
            }
        }
        assert!(
            blas::gauss_jordan_invert(&b).is_some(),
            "fixture invertible"
        );
        assert_matches_host(&b);
    }

    #[test]
    fn singular_matrix_raises_the_guard() {
        let g = gpu();
        let mut host = well_conditioned(6);
        // Make row 3 a copy of row 2 → singular, caught at some pivot.
        for j in 0..6 {
            host.set(3, j, host.get(2, j));
        }
        assert!(device_invert(&g, &host, 1e-9).is_none());
    }

    #[test]
    fn raised_guard_leaves_the_output_untouched() {
        let g = gpu();
        let m = 3;
        let a =
            DeviceMatrix::upload(&g, &DenseMatrix::<f64>::zeros(m, m), Layout::ColMajor).unwrap();
        let basis = g.htod(&[0u32, 1, 2]);
        let unit_rows = g.alloc(0, 0u32);
        let mut inv = DeviceMatrix::identity(&g, m, Layout::ColMajor).unwrap();
        let cols = BasisColumns {
            a: &a,
            unit_rows: unit_rows.view(),
            basis: basis.view(),
        };
        let guard = invert_basis_on(&mut Launcher::Direct(&g), &cols, 1e-12, &mut inv).unwrap();
        assert_ne!(g.dtoh(&guard)[0], INVERT_OK);
        assert_eq!(inv.download(&g).unwrap(), DenseMatrix::identity(m));
    }

    #[test]
    fn unit_columns_come_from_the_row_table() {
        // Basis {a0, unit column of row 0}: B = [[2, 1], [1, 0]].
        let g = gpu();
        let host = DenseMatrix::from_rows(&[vec![2.0f64], vec![1.0]]);
        let a = DeviceMatrix::upload(&g, &host, Layout::ColMajor).unwrap();
        let basis = g.htod(&[0u32, 1]);
        let unit_rows = g.htod(&[0u32]);
        let mut inv = DeviceMatrix::zeros(&g, 2, 2, Layout::ColMajor).unwrap();
        let cols = BasisColumns {
            a: &a,
            unit_rows: unit_rows.view(),
            basis: basis.view(),
        };
        let guard = invert_basis_on(&mut Launcher::Direct(&g), &cols, 1e-12, &mut inv).unwrap();
        assert_eq!(g.dtoh(&guard)[0], INVERT_OK);
        let expect = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, -2.0]]);
        assert_eq!(inv.download(&g).unwrap(), expect);
    }

    #[test]
    fn fused_inversion_is_one_launch_and_the_guard_one_read() {
        let g = gpu();
        let m = 16;
        let a = DeviceMatrix::upload(&g, &well_conditioned(m), Layout::ColMajor).unwrap();
        let basis: Vec<u32> = (0..m as u32).collect();
        let basis = g.htod(&basis);
        let unit_rows = g.alloc(0, 0u32);
        let mut inv = DeviceMatrix::zeros(&g, m, m, Layout::ColMajor).unwrap();
        g.reset_counters();
        let mut fl = g.begin_fused("refactor_fused");
        let cols = BasisColumns {
            a: &a,
            unit_rows: unit_rows.view(),
            basis: basis.view(),
        };
        let guard = invert_basis_on(&mut Launcher::Fused(&mut fl), &cols, 1e-12, &mut inv).unwrap();
        fl.finish();
        assert_eq!(g.dtoh(&guard)[0], INVERT_OK);
        let c = g.counters();
        assert_eq!(c.kernels_launched, 1);
        assert_eq!(c.d2h_count, 1);
        assert_eq!(c.h2d_count, 0);
        // Gather, 5 kernels per step, and the guarded copy.
        assert_eq!(c.fused_kernels_folded as usize, 1 + 5 * m + 1);
    }
}
