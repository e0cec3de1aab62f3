//! Sparse matrix formats (COO, CSR, CSC) and SpMV.
//!
//! The 2009 paper works on dense matrices; sparse storage backs the
//! sparse-extension experiment (F5) — the question the follow-on literature
//! asked of it — plus the sparse instance generators in the `lp` crate.

use gpu_sim::{
    AccessPattern, DView, DViewMut, Gpu, Kernel, KernelCost, LaunchConfig, Launcher, ThreadCtx,
};

use crate::dense::DenseMatrix;
use crate::scalar::Scalar;

/// Coordinate-list sparse matrix; triplets sorted by (row, col).
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    /// Row indices of the nonzeros.
    pub row_idx: Vec<u32>,
    /// Column indices of the nonzeros.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Empty matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix {
            rows,
            cols,
            row_idx: Vec::new(),
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from unsorted triplets; duplicates are summed. A duplicate
    /// group that sums to exactly zero is dropped entirely — keeping it
    /// would inflate `nnz()`/`density()` and feed a structural zero into
    /// every symbolic consumer (e.g. the LU symbolic phase). A *single*
    /// explicit zero triplet is kept: the caller wrote it on purpose.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, T)]) -> Self {
        let mut ts: Vec<(usize, usize, T)> = triplets.to_vec();
        ts.sort_by_key(|a| (a.0, a.1));
        let mut m = CooMatrix::new(rows, cols);
        let mut i = 0;
        while i < ts.len() {
            let (r, c, _) = ts[i];
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
            let mut acc = T::ZERO;
            let mut j = i;
            while j < ts.len() && ts[j].0 == r && ts[j].1 == c {
                acc += ts[j].2;
                j += 1;
            }
            let cancelled = j - i > 1 && acc == T::ZERO;
            if !cancelled {
                m.row_idx.push(r as u32);
                m.col_idx.push(c as u32);
                m.values.push(acc);
            }
            i = j;
        }
        m
    }

    /// Append one nonzero; the caller must keep (row, col) order or call
    /// [`CooMatrix::from_triplets`] instead.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        assert!(
            r < self.rows && c < self.cols,
            "push ({r},{c}) out of bounds"
        );
        self.row_idx.push(r as u32);
        self.col_idx.push(c as u32);
        self.values.push(v);
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Convert to CSR. Triplets may be in any row order (e.g. assembled
    /// via [`CooMatrix::push`] column-by-column): the payload is permuted
    /// through the counting sort, not cloned positionally, so each value
    /// lands in the row `row_ptr` says it does. The sort is stable, so
    /// within a row the nonzeros keep their assembly order.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let mut row_ptr = vec![0u32; self.rows + 1];
        for &r in &self.row_idx {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0u32; nnz];
        let mut values = vec![T::ZERO; nnz];
        let mut cursor = row_ptr.clone();
        for k in 0..nnz {
            let r = self.row_idx[k] as usize;
            let dst = cursor[r] as usize;
            col_idx[dst] = self.col_idx[k];
            values[dst] = self.values[k];
            cursor[r] += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dense copy (tests and small problems).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for k in 0..self.nnz() {
            let (i, j) = (self.row_idx[k] as usize, self.col_idx[k] as usize);
            let v = d.get(i, j) + self.values[k];
            d.set(i, j, v);
        }
        d
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s nonzeros.
    pub row_ptr: Vec<u32>,
    /// Column index of each nonzero.
    pub col_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build from a dense matrix, dropping elements with `|x| <= tol`.
    pub fn from_dense(d: &DenseMatrix<T>, tol: T) -> Self {
        let mut coo = CooMatrix::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                let v = d.get(i, j);
                if v.abs() > tol {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill fraction.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// `y ← Ax` (serial CPU).
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(self.cols, x.len(), "spmv: x length mismatch");
        assert_eq!(self.rows, y.len(), "spmv: y length mismatch");
        for (yi, w) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            *yi = gather_dot(&self.values[lo..hi], &self.col_idx[lo..hi], x);
        }
    }

    /// `y ← Aᵀx` (serial CPU).
    pub fn spmv_t(&self, x: &[T], y: &mut [T]) {
        assert_eq!(self.rows, x.len(), "spmv_t: x length mismatch");
        assert_eq!(self.cols, y.len(), "spmv_t: y length mismatch");
        for v in y.iter_mut() {
            *v = T::ZERO;
        }
        for i in 0..self.rows {
            let xi = x[i];
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let j = self.col_idx[k] as usize;
                y[j] = self.values[k].mul_add(xi, y[j]);
            }
        }
    }

    /// Extract column `j` as a dense vector (O(nnz); CSC is the right
    /// format when this is hot — see [`CscMatrix`]).
    pub fn col_dense(&self, j: usize) -> Vec<T> {
        assert!(j < self.cols);
        let mut out = vec![T::ZERO; self.rows];
        for i in 0..self.rows {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                if self.col_idx[k] as usize == j {
                    out[i] = self.values[k];
                }
            }
        }
        out
    }

    /// Convert to CSC.
    pub fn to_csc(&self) -> CscMatrix<T> {
        let (col_ptr, row_idx, values) =
            transpose(self.cols, &self.row_ptr, &self.col_idx, &self.values);
        CscMatrix::from_parts(self.rows, self.cols, col_ptr, row_idx, values)
    }

    /// Dense copy.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                d.set(i, self.col_idx[k] as usize, self.values[k]);
            }
        }
        d
    }
}

/// Compressed sparse column matrix (fast column access for pricing).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s nonzeros.
    pub col_ptr: Vec<u32>,
    /// Row index of each nonzero.
    pub row_idx: Vec<u32>,
    /// Nonzero values.
    pub values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Assemble from compressed columns. Panics when the parts disagree on
    /// the shape or the nonzero count.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(col_ptr.len(), cols + 1, "col_ptr length mismatch");
        assert_eq!(
            col_ptr[cols] as usize,
            values.len(),
            "nonzero count mismatch"
        );
        assert_eq!(row_idx.len(), values.len(), "row_idx length mismatch");
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros of column `j` as `(row, value)` pairs.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        self.row_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&r, &v)| (r as usize, v))
    }

    /// Sparse dot of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, x: &[T]) -> T {
        let lo = self.col_ptr[j] as usize;
        let hi = self.col_ptr[j + 1] as usize;
        gather_dot(&self.values[lo..hi], &self.row_idx[lo..hi], x)
    }

    /// `y ← Ax` (serial CPU, column-wise scatter).
    ///
    /// The zeroing pass is an unconditional overwrite, *before* any
    /// `x[j] == 0` skip: a NaN parked in `y` by a faulted kernel must be
    /// healed here (β = 0 semantics), while a NaN riding in through `x`
    /// fails the zero test and still propagates — poison in real inputs
    /// stays visible.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(self.cols, x.len(), "csc spmv: x length mismatch");
        assert_eq!(self.rows, y.len(), "csc spmv: y length mismatch");
        for v in y.iter_mut() {
            *v = T::ZERO;
        }
        for (j, &xj) in x.iter().enumerate() {
            if xj == T::ZERO {
                continue;
            }
            for (i, v) in self.col(j) {
                y[i] = v.mul_add(xj, y[i]);
            }
        }
    }

    /// `y ← Aᵀx` (serial CPU, per-column gather — overwrite semantics).
    pub fn spmv_t(&self, x: &[T], y: &mut [T]) {
        assert_eq!(self.rows, x.len(), "csc spmv_t: x length mismatch");
        assert_eq!(self.cols, y.len(), "csc spmv_t: y length mismatch");
        for (j, yj) in y.iter_mut().enumerate() {
            *yj = self.col_dot(j, x);
        }
    }

    /// Convert to CSR; within a row the columns ascend.
    pub fn to_csr(&self) -> CsrMatrix<T> {
        let (row_ptr, col_idx, values) =
            transpose(self.rows, &self.col_ptr, &self.row_idx, &self.values);
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Dense copy of the leading `n` columns, in one pass over their
    /// nonzeros.
    pub fn to_dense_cols(&self, n: usize) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.rows, n);
        for j in 0..n {
            let col = d.col_mut(j);
            for (i, v) in self.col(j) {
                col[i] = v;
            }
        }
        d
    }

    /// Dense copy.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        self.to_dense_cols(self.cols)
    }
}

/// Transpose compressed storage: `(ptr, idx, vals)` over the major slots
/// becomes the same entries compressed over the `minor` slots named by
/// `idx`, each minor slot holding its entries in ascending major order.
fn transpose<T: Scalar>(
    minor: usize,
    ptr: &[u32],
    idx: &[u32],
    vals: &[T],
) -> (Vec<u32>, Vec<u32>, Vec<T>) {
    let mut out_ptr = vec![0u32; minor + 1];
    for &k in idx {
        out_ptr[k as usize + 1] += 1;
    }
    for k in 0..minor {
        out_ptr[k + 1] += out_ptr[k];
    }
    let mut out_idx = vec![0u32; vals.len()];
    let mut out_vals = vec![T::ZERO; vals.len()];
    let mut cursor = out_ptr.clone();
    for (major, w) in ptr.windows(2).enumerate() {
        for k in w[0] as usize..w[1] as usize {
            let dst = &mut cursor[idx[k] as usize];
            out_idx[*dst as usize] = major as u32;
            out_vals[*dst as usize] = vals[k];
            *dst += 1;
        }
    }
    (out_ptr, out_idx, out_vals)
}

// --------------------------------------------------------------------------
// Device SpMV (CSR scalar kernel, one thread per row — the 2009 baseline
// sparse kernel; column-index gathers are scattered by nature).
// --------------------------------------------------------------------------

/// A CSR matrix resident in simulated device memory.
pub struct DeviceCsr<T: Scalar> {
    row_ptr: gpu_sim::DeviceBuffer<u32>,
    col_idx: gpu_sim::DeviceBuffer<u32>,
    values: gpu_sim::DeviceBuffer<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> DeviceCsr<T> {
    /// Upload a host CSR matrix; an allocation or transfer fault is
    /// returned.
    pub fn upload(gpu: &Gpu, m: &CsrMatrix<T>) -> Result<Self, gpu_sim::DeviceError> {
        Ok(DeviceCsr {
            row_ptr: gpu.try_htod(&m.row_ptr)?,
            col_idx: gpu.try_htod(&m.col_idx)?,
            values: gpu.try_htod(&m.values)?,
            rows: m.rows(),
            cols: m.cols(),
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y ← Ax` through a [`Launcher`], so the product can join a fused
    /// kernel chain (one launch overhead for the whole PDHG step).
    pub fn spmv_on(
        &self,
        l: &mut Launcher<'_, '_>,
        x: DView<T>,
        y: DViewMut<T>,
    ) -> Result<(), gpu_sim::DeviceError> {
        assert_eq!(self.cols, x.len(), "device spmv: x length mismatch");
        assert_eq!(self.rows, y.len(), "device spmv: y length mismatch");
        let kernel = SpmvCsrK {
            row_ptr: self.row_ptr.view(),
            col_idx: self.col_idx.view(),
            values: self.values.view(),
            x,
            y,
            rows: self.rows,
            nnz: self.nnz(),
        };
        l.try_launch(LaunchConfig::sweep(), &kernel)
    }
}

/// `Σ_k vals[k] · x[idx[k]]` as one `mul_add` chain in storage order: the
/// sum one thread of the scalar CSR/CSC kernels builds for its row or
/// column.
#[inline]
fn gather_dot<T: Scalar>(vals: &[T], idx: &[u32], x: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&v, &i) in vals.iter().zip(idx) {
        acc = v.mul_add(x[i as usize], acc);
    }
    acc
}

/// Scalar CSR `y ← Ax`, modeled with one device thread per row.
///
/// A sweep kernel (see [`LaunchConfig::sweep`]): one host pass builds every
/// `y[i]` as row `i`'s modeled thread does, with one `mul_add` chain in
/// storage order, overwriting `y[i]` (an empty row writes an exact zero).
struct SpmvCsrK<T: Scalar> {
    row_ptr: DView<u32>,
    col_idx: DView<u32>,
    values: DView<T>,
    x: DView<T>,
    y: DViewMut<T>,
    rows: usize,
    nnz: usize,
}

impl<T: Scalar> Kernel for SpmvCsrK<T> {
    fn name(&self) -> &'static str {
        "spmv_csr"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let (vals, cols, x) = (
            self.values.as_slice(),
            self.col_idx.as_slice(),
            self.x.as_slice(),
        );
        let rows = self.row_ptr.as_slice().windows(2);
        for (yi, w) in self.y.as_mut_slice().iter_mut().zip(rows) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            *yi = gather_dot(&vals[lo..hi], &cols[lo..hi], x);
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let rows = self.rows as u64;
        let nnz = self.nnz as u64;
        KernelCost::new()
            .flops_total(2 * nnz)
            .fp64(T::IS_F64)
            // Scalar CSR: each lane walks its own row — value/index reads
            // are effectively scattered across lanes; x gathers likewise.
            .read(AccessPattern::scattered::<T>(nnz))
            .read(AccessPattern::scattered::<u32>(nnz))
            .read(AccessPattern::scattered::<T>(nnz))
            .read(AccessPattern::coalesced::<u32>(2 * rows))
            .write(AccessPattern::coalesced::<T>(rows))
            // Ragged rows diverge within warps.
            .divergence(1.5)
            .active_threads_raw(rows)
    }
}

// --------------------------------------------------------------------------
// Device CSC (one thread per column). `Aᵀx` over CSC is a pure per-column
// gather — deterministic with no atomics, which is exactly what the PDHG
// dual update `c − Aᵀy` needs every iteration.
// --------------------------------------------------------------------------

/// A CSC matrix resident in simulated device memory.
pub struct DeviceCsc<T: Scalar> {
    col_ptr: gpu_sim::DeviceBuffer<u32>,
    row_idx: gpu_sim::DeviceBuffer<u32>,
    values: gpu_sim::DeviceBuffer<T>,
    rows: usize,
    cols: usize,
}

impl<T: Scalar> DeviceCsc<T> {
    /// Upload a host CSC matrix; an allocation or transfer fault is
    /// returned.
    pub fn upload(gpu: &Gpu, m: &CscMatrix<T>) -> Result<Self, gpu_sim::DeviceError> {
        Ok(DeviceCsc {
            col_ptr: gpu.try_htod(&m.col_ptr)?,
            row_idx: gpu.try_htod(&m.row_idx)?,
            values: gpu.try_htod(&m.values)?,
            rows: m.rows(),
            cols: m.cols(),
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y ← Aᵀx` through a [`Launcher`] (fusable per-column gather).
    pub fn spmv_t_on(
        &self,
        l: &mut Launcher<'_, '_>,
        x: DView<T>,
        y: DViewMut<T>,
    ) -> Result<(), gpu_sim::DeviceError> {
        assert_eq!(self.rows, x.len(), "device spmv_t: x length mismatch");
        assert_eq!(self.cols, y.len(), "device spmv_t: y length mismatch");
        let kernel = SpmvCscTK {
            col_ptr: self.col_ptr.view(),
            row_idx: self.row_idx.view(),
            values: self.values.view(),
            x,
            y,
            cols: self.cols,
            nnz: self.nnz(),
        };
        l.try_launch(LaunchConfig::sweep(), &kernel)
    }
}

/// Scalar CSC `y ← Aᵀx`, modeled with one device thread per column.
///
/// A sweep kernel (see [`LaunchConfig::sweep`]): one host pass builds every
/// `y[j]` as column `j`'s modeled thread does.
struct SpmvCscTK<T: Scalar> {
    col_ptr: DView<u32>,
    row_idx: DView<u32>,
    values: DView<T>,
    x: DView<T>,
    y: DViewMut<T>,
    cols: usize,
    nnz: usize,
}

impl<T: Scalar> Kernel for SpmvCscTK<T> {
    fn name(&self) -> &'static str {
        "spmv_t_csc"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let (vals, rows, x) = (
            self.values.as_slice(),
            self.row_idx.as_slice(),
            self.x.as_slice(),
        );
        let cols = self.col_ptr.as_slice().windows(2);
        for (yj, w) in self.y.as_mut_slice().iter_mut().zip(cols) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            // Unconditional overwrite: an empty column writes an exact
            // zero, so a NaN-poisoned y entry cannot survive the product
            // (no `*= 0`).
            *yj = gather_dot(&vals[lo..hi], &rows[lo..hi], x);
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let cols = self.cols as u64;
        let nnz = self.nnz as u64;
        KernelCost::new()
            .flops_total(2 * nnz)
            .fp64(T::IS_F64)
            // Mirror image of the scalar CSR kernel: per-lane column walks
            // scatter the value/index reads, and the x gathers follow the
            // row indices.
            .read(AccessPattern::scattered::<T>(nnz))
            .read(AccessPattern::scattered::<u32>(nnz))
            .read(AccessPattern::scattered::<T>(nnz))
            .read(AccessPattern::coalesced::<u32>(2 * cols))
            .write(AccessPattern::coalesced::<T>(cols))
            // Ragged columns diverge within warps.
            .divergence(1.5)
            .active_threads_raw(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::timing::kernel_timing;
    use gpu_sim::DeviceSpec;

    fn example() -> CooMatrix<f64> {
        // [0 1 5]
        // [0 0 4]
        // [1 0 0]  — the thesis's running example, a fine tiny fixture.
        CooMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (0, 2, 5.0), (1, 2, 4.0), (2, 0, 1.0)])
    }

    #[test]
    fn coo_to_csr_layout() {
        let csr = example().to_csr();
        assert_eq!(csr.row_ptr, vec![0, 2, 3, 4]);
        assert_eq!(csr.col_idx, vec![1, 2, 2, 0]);
        assert_eq!(csr.values, vec![1.0, 5.0, 4.0, 1.0]);
        assert_eq!(csr.nnz(), 4);
        assert!((csr.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_are_summed() {
        let coo = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0f32), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.to_dense().get(0, 0), 3.0);
    }

    #[test]
    fn to_csr_permutes_unsorted_pushes() {
        // Assemble column-by-column, so row indices arrive out of order —
        // the regression for the unpermuted-clone bug: row_ptr was right
        // but col_idx/values stayed in push order, silently mis-assigning
        // values to rows.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(2, 0, 1.0f64);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(0, 2, 4.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_ptr, vec![0, 2, 3, 4]);
        assert_eq!(csr.to_dense(), coo.to_dense());
        // Row-sorted with stable within-row order: exact layout.
        assert_eq!(csr.col_idx, vec![1, 2, 1, 0]);
        assert_eq!(csr.values, vec![2.0, 4.0, 3.0, 1.0]);
    }

    #[test]
    fn cancelled_duplicates_are_dropped() {
        // (0,0) sums to exactly zero across duplicates: it must not
        // survive as an explicit zero inflating nnz()/density().
        let coo = CooMatrix::from_triplets(2, 2, &[(0, 0, 1.0f64), (1, 1, 3.0), (0, 0, -1.0)]);
        assert_eq!(coo.nnz(), 1);
        assert_eq!(coo.to_dense().get(1, 1), 3.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert!((csr.density() - 0.25).abs() < 1e-12);
        // A single explicit zero is intentional and kept.
        let z = CooMatrix::from_triplets(1, 1, &[(0, 0, 0.0f64)]);
        assert_eq!(z.nnz(), 1);
    }

    #[test]
    fn spmv_matches_dense() {
        let coo = example();
        let csr = coo.to_csr();
        let dense = coo.to_dense();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        csr.spmv(&x, &mut y);
        let mut expect = vec![0.0; 3];
        crate::blas::gemv_n(1.0, &dense, &x, 0.0, &mut expect);
        assert_eq!(y, expect);
    }

    #[test]
    fn spmv_t_matches_dense() {
        let csr = example().to_csr();
        let dense = example().to_dense();
        let x = vec![1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        csr.spmv_t(&x, &mut y);
        let mut expect = vec![0.0; 3];
        crate::blas::gemv_t(1.0, &dense, &x, 0.0, &mut expect);
        assert_eq!(y, expect);
    }

    #[test]
    fn csc_roundtrip_and_col_access() {
        let csr = example().to_csr();
        let csc = csr.to_csc();
        assert_eq!(csc.nnz(), csr.nnz());
        let col2: Vec<(usize, f64)> = csc.col(2).collect();
        assert_eq!(col2, vec![(0, 5.0), (1, 4.0)]);
        assert_eq!(csc.col_dot(2, &[1.0, 2.0, 3.0]), 13.0);
        assert_eq!(csr.col_dense(2), vec![5.0, 4.0, 0.0]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let dense = example().to_dense();
        let csr = CsrMatrix::from_dense(&dense, 0.0);
        assert_eq!(csr.to_dense(), dense);
    }

    #[test]
    fn csc_spmv_matches_csr() {
        let csr = example().to_csr();
        let csc = csr.to_csc();
        let x = vec![1.0, 2.0, 3.0];
        let mut y_csr = vec![0.0; 3];
        let mut y_csc = vec![0.0; 3];
        csr.spmv(&x, &mut y_csr);
        csc.spmv(&x, &mut y_csc);
        assert_eq!(y_csr, y_csc);
        let xt = vec![1.0, -2.0, 0.5];
        let mut t_csr = vec![0.0; 3];
        let mut t_csc = vec![0.0; 3];
        csr.spmv_t(&xt, &mut t_csr);
        csc.spmv_t(&xt, &mut t_csc);
        assert_eq!(t_csr, t_csc);
    }

    #[test]
    fn sparse_spmv_heals_poisoned_y() {
        // Overwrite semantics: whatever garbage is sitting in y — NaN from
        // a faulted kernel included — must be gone after the product. The
        // row/column with no nonzeros is the trap: a `y[i] *= 0` zeroing
        // pass (or one skipped on an x == 0 fast path) keeps the NaN alive.
        let csr = example().to_csr();
        let csc = csr.to_csc();
        let x = vec![0.0, 0.0, 0.0]; // exercises every x == 0 fast path
        let mut y = vec![f64::NAN, f64::NAN, f64::NAN];
        csr.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
        let mut y = vec![f64::NAN, f64::NAN, f64::NAN];
        csc.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
        let mut y = vec![f64::NAN, f64::NAN, f64::NAN];
        csr.spmv_t(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
        let mut y = vec![f64::NAN, f64::NAN, f64::NAN];
        csc.spmv_t(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn sparse_spmv_keeps_x_poison_visible() {
        // The heal is only for the output operand: NaN in x is real data
        // corruption and must reach every row/column that touches it.
        let csr = example().to_csr();
        let csc = csr.to_csc();
        let x = vec![f64::NAN, 0.0, 0.0];
        let mut y = vec![0.0; 3];
        csc.spmv(&x, &mut y); // column 0 has a nonzero in row 2
        assert!(y[2].is_nan());
        let mut y = vec![0.0; 3];
        csr.spmv_t(&x, &mut y); // row 0 hits columns 1 and 2
        assert!(y[1].is_nan() && y[2].is_nan());
    }

    #[test]
    fn device_csc_spmv_t_matches_cpu_and_heals() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let csr = example().to_csr();
        let csc = csr.to_csc();
        let d = DeviceCsc::upload(&gpu, &csc).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let dx = gpu.htod(&x);
        // Pre-poison the device output: the gather must overwrite it.
        let mut dy = gpu.alloc(3, f64::NAN);
        d.spmv_t_on(&mut Launcher::Direct(&gpu), dx.view(), dy.view_mut())
            .unwrap();
        let mut expect = vec![0.0; 3];
        csc.spmv_t(&x, &mut expect);
        assert_eq!(gpu.dtoh(&dy), expect);
    }

    /// The thread-per-row CSR kernel the sweep replaced, kept as the
    /// reference it must reproduce bit for bit.
    struct SpmvCsrRefK<T: Scalar> {
        row_ptr: DView<u32>,
        col_idx: DView<u32>,
        values: DView<T>,
        x: DView<T>,
        y: DViewMut<T>,
        rows: usize,
        nnz: usize,
    }

    impl<T: Scalar> Kernel for SpmvCsrRefK<T> {
        fn name(&self) -> &'static str {
            "spmv_csr"
        }
        fn run(&self, t: &ThreadCtx) {
            let i = t.global_id();
            if i >= self.rows {
                return;
            }
            let lo = self.row_ptr.get(i) as usize;
            let hi = self.row_ptr.get(i + 1) as usize;
            let mut acc = T::ZERO;
            for k in lo..hi {
                acc = self
                    .values
                    .get(k)
                    .mul_add(self.x.get(self.col_idx.get(k) as usize), acc);
            }
            self.y.set(i, acc);
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            let (rows, nnz) = (self.rows as u64, self.nnz as u64);
            KernelCost::new()
                .flops_total(2 * nnz)
                .fp64(T::IS_F64)
                .read(AccessPattern::scattered::<T>(nnz))
                .read(AccessPattern::scattered::<u32>(nnz))
                .read(AccessPattern::scattered::<T>(nnz))
                .read(AccessPattern::coalesced::<u32>(2 * rows))
                .write(AccessPattern::coalesced::<T>(rows))
                .divergence(1.5)
                .active_threads(cfg, rows)
        }
    }

    /// The thread-per-column CSC transpose kernel the sweep replaced.
    struct SpmvCscTRefK<T: Scalar> {
        col_ptr: DView<u32>,
        row_idx: DView<u32>,
        values: DView<T>,
        x: DView<T>,
        y: DViewMut<T>,
        cols: usize,
        nnz: usize,
    }

    impl<T: Scalar> Kernel for SpmvCscTRefK<T> {
        fn name(&self) -> &'static str {
            "spmv_t_csc"
        }
        fn run(&self, t: &ThreadCtx) {
            let j = t.global_id();
            if j >= self.cols {
                return;
            }
            let lo = self.col_ptr.get(j) as usize;
            let hi = self.col_ptr.get(j + 1) as usize;
            let mut acc = T::ZERO;
            for k in lo..hi {
                acc = self
                    .values
                    .get(k)
                    .mul_add(self.x.get(self.row_idx.get(k) as usize), acc);
            }
            self.y.set(j, acc);
        }
        fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
            let (cols, nnz) = (self.cols as u64, self.nnz as u64);
            KernelCost::new()
                .flops_total(2 * nnz)
                .fp64(T::IS_F64)
                .read(AccessPattern::scattered::<T>(nnz))
                .read(AccessPattern::scattered::<u32>(nnz))
                .read(AccessPattern::scattered::<T>(nnz))
                .read(AccessPattern::coalesced::<u32>(2 * cols))
                .write(AccessPattern::coalesced::<T>(cols))
                .divergence(1.5)
                .active_threads(cfg, cols)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A ragged `rows × cols` matrix: empty, single-entry and long rows
    /// and columns, with entries of mixed sign and magnitude.
    fn ragged(rows: usize, cols: usize) -> CsrMatrix<f64> {
        // With three or more columns, the last is empty and the one before
        // holds a single entry; the others take the spray.
        let spread = if cols >= 3 { cols - 2 } else { cols };
        let mut trips = Vec::new();
        for i in 0..rows {
            let len = match i % 5 {
                0 => 0,
                1 => 1,
                2 => spread,
                _ => 1 + (i * 7) % spread,
            };
            for k in 0..len {
                let j = (i * 3 + k * 5) % spread;
                let sign = if k % 2 == 0 { 1.0 } else { -1e3 };
                trips.push((i, j, ((i + 1) as f64 * 0.37 - k as f64 * 1.13) * sign));
            }
        }
        if cols >= 3 && rows > 3 {
            trips.push((3, cols - 2, -0.5));
        }
        CooMatrix::from_triplets(rows, cols, &trips).to_csr()
    }

    /// `n` inputs cycling through ordinary values and NaN, ±inf and −0.0.
    fn special_x(n: usize) -> Vec<f64> {
        let specials = [
            1.5,
            f64::NAN,
            -0.0,
            f64::INFINITY,
            0.25,
            f64::NEG_INFINITY,
            -3.0,
            0.0,
        ];
        (0..n)
            .map(|i| {
                specials[(i * 3) % specials.len()]
                    * if i % 11 == 0 {
                        1.0
                    } else {
                        1.0 + i as f64 * 1e-3
                    }
            })
            .collect()
    }

    #[test]
    fn spmv_sweeps_match_the_per_thread_kernels_bitwise() {
        let spec = DeviceSpec::gtx280();
        let gpu = Gpu::new(spec.clone());
        for (rows, cols) in [(1usize, 1usize), (7, 3), (40, 33), (300, 129)] {
            for finite in [true, false] {
                let csr = ragged(rows, cols);
                let csc = csr.to_csc();
                let x_of = |n: usize| -> Vec<f64> {
                    let x = special_x(n);
                    if finite {
                        x.iter()
                            .map(|v| if v.is_finite() { *v } else { 2.0 })
                            .collect()
                    } else {
                        x
                    }
                };
                // One x‖y buffer: each product reads one part and writes
                // the other, as the PDHG iterate's subviews do.
                let (xa, xt) = (x_of(cols), x_of(rows));
                let d_csr = DeviceCsr::upload(&gpu, &csr).unwrap();
                let mut xy = gpu.htod(&[xa.clone(), vec![f64::NAN; rows]].concat());
                let v = xy.view_mut();
                d_csr
                    .spmv_on(
                        &mut Launcher::Direct(&gpu),
                        v.subview_mut(0, cols).as_view(),
                        v.subview_mut(cols, rows),
                    )
                    .unwrap();
                let sweep_y = gpu.dtoh(&xy)[cols..].to_vec();
                let mut xy_ref = gpu.htod(&[xa.clone(), vec![f64::NAN; rows]].concat());
                let v = xy_ref.view_mut();
                let reference = SpmvCsrRefK {
                    row_ptr: d_csr.row_ptr.view(),
                    col_idx: d_csr.col_idx.view(),
                    values: d_csr.values.view(),
                    x: v.subview_mut(0, cols).as_view(),
                    y: v.subview_mut(cols, rows),
                    rows,
                    nnz: csr.nnz(),
                };
                gpu.launch(LaunchConfig::for_elems(rows, 128), &reference);
                assert_eq!(
                    bits(&sweep_y),
                    bits(&gpu.dtoh(&xy_ref)[cols..]),
                    "csr {rows}×{cols}"
                );

                let d_csc = DeviceCsc::upload(&gpu, &csc).unwrap();
                let mut xy = gpu.htod(&[xt.clone(), vec![f64::NAN; cols]].concat());
                let v = xy.view_mut();
                d_csc
                    .spmv_t_on(
                        &mut Launcher::Direct(&gpu),
                        v.subview_mut(0, rows).as_view(),
                        v.subview_mut(rows, cols),
                    )
                    .unwrap();
                let sweep_y = gpu.dtoh(&xy)[rows..].to_vec();
                let mut xy_ref = gpu.htod(&[xt.clone(), vec![f64::NAN; cols]].concat());
                let v = xy_ref.view_mut();
                let reference = SpmvCscTRefK {
                    col_ptr: d_csc.col_ptr.view(),
                    row_idx: d_csc.row_idx.view(),
                    values: d_csc.values.view(),
                    x: v.subview_mut(0, rows).as_view(),
                    y: v.subview_mut(rows, cols),
                    cols,
                    nnz: csc.nnz(),
                };
                gpu.launch(LaunchConfig::for_elems(cols, 128), &reference);
                assert_eq!(
                    bits(&sweep_y),
                    bits(&gpu.dtoh(&xy_ref)[rows..]),
                    "csc {rows}×{cols}"
                );
            }
        }
    }

    #[test]
    fn spmv_sweeps_keep_the_per_thread_timing() {
        let spec = DeviceSpec::gtx280();
        let gpu = Gpu::new(spec.clone());
        let sweep = LaunchConfig::sweep();
        // (rows, cols) = (0, 0) is the empty launch: no modeled thread.
        for (rows, cols) in [(0usize, 0usize), (1, 1), (7, 3), (129, 40), (1000, 2000)] {
            let csr = if rows == 0 {
                CsrMatrix::from_dense(&DenseMatrix::zeros(0, 0), 0.0)
            } else {
                ragged(rows, cols)
            };
            let csc = csr.to_csc();
            let (d_csr, d_csc) = (
                DeviceCsr::upload(&gpu, &csr).unwrap(),
                DeviceCsc::upload(&gpu, &csc).unwrap(),
            );
            let (x, mut y) = (
                gpu.alloc(rows.max(cols), 1.0f64),
                gpu.alloc(rows.max(cols), 0.0f64),
            );
            let (xv, yv) = (x.view(), y.view_mut());
            let csr_cfg = LaunchConfig::for_elems(rows, 128);
            let old = SpmvCsrRefK {
                row_ptr: d_csr.row_ptr.view(),
                col_idx: d_csr.col_idx.view(),
                values: d_csr.values.view(),
                x: xv.subview(0, cols),
                y: yv.subview_mut(0, rows),
                rows,
                nnz: csr.nnz(),
            };
            let new = SpmvCsrK {
                row_ptr: d_csr.row_ptr.view(),
                col_idx: d_csr.col_idx.view(),
                values: d_csr.values.view(),
                x: xv.subview(0, cols),
                y: yv.subview_mut(0, rows),
                rows,
                nnz: csr.nnz(),
            };
            assert_eq!(
                kernel_timing(&spec, &csr_cfg, &old.cost(&csr_cfg)),
                kernel_timing(&spec, &sweep, &new.cost(&sweep)),
                "csr {rows}×{cols}"
            );
            let csc_cfg = LaunchConfig::for_elems(cols, 128);
            let old = SpmvCscTRefK {
                col_ptr: d_csc.col_ptr.view(),
                row_idx: d_csc.row_idx.view(),
                values: d_csc.values.view(),
                x: xv.subview(0, rows),
                y: yv.subview_mut(0, cols),
                cols,
                nnz: csc.nnz(),
            };
            let new = SpmvCscTK {
                col_ptr: d_csc.col_ptr.view(),
                row_idx: d_csc.row_idx.view(),
                values: d_csc.values.view(),
                x: xv.subview(0, rows),
                y: yv.subview_mut(0, cols),
                cols,
                nnz: csc.nnz(),
            };
            assert_eq!(
                kernel_timing(&spec, &csc_cfg, &old.cost(&csc_cfg)),
                kernel_timing(&spec, &sweep, &new.cost(&sweep)),
                "csc {rows}×{cols}"
            );
        }
    }

    #[test]
    fn device_spmv_matches_cpu() {
        let gpu = Gpu::new(DeviceSpec::gtx280());
        let csr = example().to_csr();
        let d = DeviceCsr::upload(&gpu, &csr).unwrap();
        let x = vec![1.0, 2.0, 3.0];
        let dx = gpu.htod(&x);
        let mut dy = gpu.alloc(3, 0.0f64);
        d.spmv_on(&mut Launcher::Direct(&gpu), dx.view(), dy.view_mut())
            .unwrap();
        let mut expect = vec![0.0; 3];
        csr.spmv(&x, &mut expect);
        assert_eq!(gpu.dtoh(&dy), expect);
        assert!(gpu.counters().kernels_launched == 1);
    }
}
