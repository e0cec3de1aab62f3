//! Kernel definitions for the simublas routines.
//!
//! Every kernel pairs a functional body with a cost descriptor that models
//! the corresponding 2009-style CUDA kernel. Where the two use different
//! geometries (see module docs in [`super`]), the comment on `cost` states
//! the modeled geometry explicitly; the traffic numbers in each descriptor
//! are validated against hand counts in this file's tests and in
//! `tests/cost_validation.rs` at the crate root.

use gpu_sim::{AccessPattern, DView, DViewMut, Kernel, KernelCost, LaunchConfig, ThreadCtx};

use super::mat::Layout;
use crate::scalar::Scalar;

// --------------------------------------------------------------------------
// Elementwise vector kernels (functional geometry == modeled geometry).
// --------------------------------------------------------------------------

/// `out[i] = val`.
pub struct FillK<T: Scalar> {
    pub out: DViewMut<T>,
    pub val: T,
    pub n: usize,
}

impl<T: Scalar> Kernel for FillK<T> {
    fn name(&self) -> &'static str {
        "fill"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            self.out.set(i, self.val);
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        KernelCost::new()
            .write(AccessPattern::coalesced::<T>(self.n as u64))
            .active_threads(cfg, self.n as u64)
    }
}

/// `x[i] *= alpha`.
pub struct ScalK<T: Scalar> {
    pub x: DViewMut<T>,
    pub alpha: T,
    pub n: usize,
}

impl<T: Scalar> Kernel for ScalK<T> {
    fn name(&self) -> &'static str {
        "scal"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            self.x.set(i, self.x.get(i) * self.alpha);
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .flops_total(n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// `y[i] += alpha * x[i]`.
pub struct AxpyK<T: Scalar> {
    pub alpha: T,
    pub x: DView<T>,
    pub y: DViewMut<T>,
    pub n: usize,
}

impl<T: Scalar> Kernel for AxpyK<T> {
    fn name(&self) -> &'static str {
        "axpy"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            self.y
                .set(i, self.alpha.mul_add(self.x.get(i), self.y.get(i)));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .flops_total(2 * n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// `dst[i] = src[i]`.
pub struct CopyK<T: Scalar> {
    pub src: DView<T>,
    pub dst: DViewMut<T>,
    pub n: usize,
}

impl<T: Scalar> Kernel for CopyK<T> {
    fn name(&self) -> &'static str {
        "copy"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            self.dst.set(i, self.src.get(i));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// `out[i] = x[i] * y[i]` (first stage of a device dot product).
pub struct MulEwK<T: Scalar> {
    pub x: DView<T>,
    pub y: DView<T>,
    pub out: DViewMut<T>,
    pub n: usize,
}

impl<T: Scalar> Kernel for MulEwK<T> {
    fn name(&self) -> &'static str {
        "mul_ew"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i < self.n {
            self.out.set(i, self.x.get(i) * self.y.get(i));
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.n as u64;
        KernelCost::new()
            .flops_total(n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

// --------------------------------------------------------------------------
// Matrix-vector kernels.
// --------------------------------------------------------------------------

/// `y ← αAx + βy`.
///
/// Modeled geometry: one device thread per row (m threads), each looping over
/// the n columns — the standard 2009 `sgemv` kernel. With col-major storage
/// lane i reads `A[i + j·ld]`: consecutive lanes, consecutive addresses —
/// coalesced. Row-major storage makes the same kernel stride by `n` elements
/// between lanes — the F4 ablation case.
///
/// Functional geometry: a single host iteration performing the whole product
/// in cache-friendly order (results are identical; see module docs).
///
/// This is the one-strip form of the split-K product below; `gemv_n` uses it
/// where the strip chooser finds that splitting does not pay (square f32
/// matrices up to m = 48 on the GTX 280).
pub struct GemvNK<T: Scalar> {
    pub a: DView<T>,
    pub layout: Layout,
    pub m: usize,
    pub n: usize,
    pub alpha: T,
    pub x: DView<T>,
    pub beta: T,
    pub y: DViewMut<T>,
}

impl<T: Scalar> Kernel for GemvNK<T> {
    fn name(&self) -> &'static str {
        "gemv_n"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let a = self.a.as_slice();
        let x = self.x.as_slice();
        let y = self.y.as_mut_slice();
        // NaN-aware β-scale: with β = 0 the output is overwritten, so a
        // poisoned previous y must be healed, not kept alive as 0 · NaN.
        for yi in y.iter_mut() {
            *yi = crate::blas::beta_scale(*yi, self.beta);
        }
        match self.layout {
            Layout::ColMajor => {
                for j in 0..self.n {
                    let s = self.alpha * x[j];
                    if s == T::ZERO {
                        continue;
                    }
                    let col = &a[j * self.m..(j + 1) * self.m];
                    for (yi, &aij) in y.iter_mut().zip(col) {
                        *yi = s.mul_add(aij, *yi);
                    }
                }
            }
            Layout::RowMajor => {
                for (i, yi) in y.iter_mut().enumerate() {
                    let row = &a[i * self.n..(i + 1) * self.n];
                    let mut acc = T::ZERO;
                    for (&aij, &xj) in row.iter().zip(x) {
                        acc = aij.mul_add(xj, acc);
                    }
                    *yi = self.alpha.mul_add(acc, *yi);
                }
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        gemv_n_cost::<T>(self.layout, self.m, self.n)
    }
}

/// Reads of `A` by lanes that vary the row index: coalesced on col-major
/// storage, strided by a row (`n` elements) on row-major storage.
fn row_lane_reads<T: Scalar>(layout: Layout, m: u64, n: u64) -> AccessPattern {
    match layout {
        Layout::ColMajor => AccessPattern::coalesced::<T>(m * n),
        Layout::RowMajor => AccessPattern::strided::<T>(m * n, n * T::BYTES),
    }
}

/// Modeled cost of [`GemvNK`] on an `m × n` matrix.
pub(crate) fn gemv_n_cost<T: Scalar>(layout: Layout, m: usize, n: usize) -> KernelCost {
    let (m, n) = (m as u64, n as u64);
    KernelCost::new()
        .flops_total(2 * m * n + 2 * m)
        .fp64(T::IS_F64)
        .read(row_lane_reads::<T>(layout, m, n))
        .read(AccessPattern::broadcast::<T>(m * n))
        .read(AccessPattern::coalesced::<T>(m))
        .write(AccessPattern::coalesced::<T>(m))
        .active_threads_raw(m)
}

/// Columns of strip `k` when `n` columns are split into `strips` blocks.
fn strip_cols(k: usize, strips: usize, n: usize) -> std::ops::Range<usize> {
    k * n / strips..(k + 1) * n / strips
}

/// Pass 1 of the split-K `gemv_n`: thread `(i, k)` sums row `i` over column
/// block `k` (columns `k·n/s .. (k+1)·n/s`) into `partials[k·m + i]`, with
/// no `α`. Lanes vary `i`, so col-major reads of `A` stay coalesced and all
/// lanes of a warp read the same `x[j]` (broadcast); row-major storage
/// strides lanes by a row, as in [`GemvNK`]. Columns with `x[j] = 0` are
/// skipped — a warp-uniform branch, so the model charges the dense product.
///
/// Functional geometry: one host sweep that builds every partial in the
/// same order as its modeled thread (bitwise identical; see module docs).
/// Launch it on a one-thread grid.
pub struct GemvNPass1K<T: Scalar> {
    pub a: DView<T>,
    pub layout: Layout,
    pub m: usize,
    pub n: usize,
    pub strips: usize,
    pub x: DView<T>,
    pub partials: DViewMut<T>,
}

impl<T: Scalar> Kernel for GemvNPass1K<T> {
    fn name(&self) -> &'static str {
        "gemv_n_pass1"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let (m, n) = (self.m, self.n);
        let a = self.a.as_slice();
        let x = self.x.as_slice();
        let partials = self.partials.as_mut_slice();
        for k in 0..self.strips {
            let part = &mut partials[k * m..(k + 1) * m];
            part.fill(T::ZERO);
            let cols = strip_cols(k, self.strips, n);
            match self.layout {
                Layout::ColMajor => {
                    for j in cols {
                        let xj = x[j];
                        if xj == T::ZERO {
                            continue;
                        }
                        for (acc, &aij) in part.iter_mut().zip(&a[j * m..(j + 1) * m]) {
                            *acc = aij.mul_add(xj, *acc);
                        }
                    }
                }
                Layout::RowMajor => {
                    for (i, acc) in part.iter_mut().enumerate() {
                        let row = &a[i * n..(i + 1) * n];
                        for j in cols.clone() {
                            if x[j] != T::ZERO {
                                *acc = row[j].mul_add(x[j], *acc);
                            }
                        }
                    }
                }
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        gemv_n_pass1_cost::<T>(self.layout, self.m, self.n, self.strips)
    }
}

/// Modeled cost of [`GemvNPass1K`]: `m · strips` threads.
pub(crate) fn gemv_n_pass1_cost<T: Scalar>(
    layout: Layout,
    m: usize,
    n: usize,
    strips: usize,
) -> KernelCost {
    let (m, n, s) = (m as u64, n as u64, strips as u64);
    KernelCost::new()
        .flops_total(2 * m * n)
        .fp64(T::IS_F64)
        .read(row_lane_reads::<T>(layout, m, n))
        .read(AccessPattern::broadcast::<T>(m * n))
        .write(AccessPattern::coalesced::<T>(m * s))
        .active_threads_raw(m * s)
}

/// `y ← αAᵀx + βy`, naive: one modeled thread per column.
///
/// With col-major storage lane j reads `A[i + j·ld]`: lanes stride by `m`
/// elements — *uncoalesced*. (Row-major flips it: coalesced.) This is the
/// kernel the two-pass variant below exists to replace.
pub struct GemvTNaiveK<T: Scalar> {
    pub a: DView<T>,
    pub layout: Layout,
    pub m: usize,
    pub n: usize,
    pub alpha: T,
    pub x: DView<T>,
    pub beta: T,
    pub y: DViewMut<T>,
}

impl<T: Scalar> Kernel for GemvTNaiveK<T> {
    fn name(&self) -> &'static str {
        "gemv_t_naive"
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        if j >= self.n {
            return;
        }
        let a = self.a.as_slice();
        let x = self.x.as_slice();
        let mut acc = T::ZERO;
        match self.layout {
            Layout::ColMajor => {
                let col = &a[j * self.m..(j + 1) * self.m];
                for (&aij, &xi) in col.iter().zip(x) {
                    acc = aij.mul_add(xi, acc);
                }
            }
            Layout::RowMajor => {
                for (i, &xi) in x.iter().enumerate() {
                    acc = a[j + i * self.n].mul_add(xi, acc);
                }
            }
        }
        let base = crate::blas::beta_scale(self.y.get(j), self.beta);
        self.y.set(j, self.alpha * acc + base);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        let n = self.n as u64;
        let a_pattern = match self.layout {
            Layout::ColMajor => AccessPattern::strided::<T>(m * n, m * T::BYTES),
            Layout::RowMajor => AccessPattern::coalesced::<T>(m * n),
        };
        KernelCost::new()
            .flops_total(2 * m * n + 2 * n)
            .fp64(T::IS_F64)
            .read(a_pattern)
            .read(AccessPattern::broadcast::<T>(m * n))
            .read(AccessPattern::coalesced::<T>(n))
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// Number of cooperating threads per column in the two-pass transposed gemv.
pub const GEMV_T_STRIPS: usize = 32;

/// Pass 1 of the coalesced `gemv_t` (col-major only): thread `(k, j)` sums
/// rows `k, k+32, …` of column `j` into `partials[j·32 + k]`. Lanes with
/// consecutive `k` read consecutive rows — coalesced.
///
/// Functional geometry: one host sweep that builds every partial in the
/// same order as its modeled thread (bitwise identical; see module docs).
/// Launch it on a one-thread grid.
pub struct GemvTPass1K<T: Scalar> {
    pub a: DView<T>,
    pub m: usize,
    pub n: usize,
    pub x: DView<T>,
    pub partials: DViewMut<T>,
}

impl<T: Scalar> Kernel for GemvTPass1K<T> {
    fn name(&self) -> &'static str {
        "gemv_t_pass1"
    }
    fn run(&self, t: &ThreadCtx) {
        if t.global_id() != 0 {
            return;
        }
        let (m, s) = (self.m, GEMV_T_STRIPS);
        let a = self.a.as_slice();
        let x = self.x.as_slice();
        let partials = self.partials.as_mut_slice();
        for (j, part) in partials.chunks_exact_mut(s).enumerate().take(self.n) {
            part.fill(T::ZERO);
            // Row i feeds strip i mod 32, rows in ascending order.
            let col = &a[j * m..(j + 1) * m];
            for (rows, xs) in col.chunks(s).zip(x.chunks(s)) {
                for ((acc, &aij), &xi) in part.iter_mut().zip(rows).zip(xs) {
                    *acc = aij.mul_add(xi, *acc);
                }
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        let n = self.n as u64;
        let s = GEMV_T_STRIPS as u64;
        KernelCost::new()
            .flops_total(2 * m * n)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m * n))
            .read(AccessPattern::coalesced::<T>(m * n))
            .write(AccessPattern::coalesced::<T>(n * s))
            .active_threads_raw(n * s)
    }
}

/// Pass 2 of both strip-reduce gemvs: one thread per output `j` adds its
/// `strips` partials in strip order and applies `α`/`β`. Partial `k` of
/// output `j` sits at `j·out_stride + k·strip_stride`: `(32, 1)` for
/// `gemv_t`, whose lanes then stride by 32 elements, and `(1, m)` for
/// `gemv_n`, whose lanes read consecutive rows — coalesced.
pub struct StripSumK<T: Scalar> {
    pub name: &'static str,
    pub partials: DView<T>,
    pub n: usize,
    pub strips: usize,
    pub out_stride: usize,
    pub strip_stride: usize,
    pub alpha: T,
    pub beta: T,
    pub y: DViewMut<T>,
}

impl<T: Scalar> Kernel for StripSumK<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        if j >= self.n {
            return;
        }
        let p = self.partials.as_slice();
        let mut acc = T::ZERO;
        for k in 0..self.strips {
            acc += p[j * self.out_stride + k * self.strip_stride];
        }
        let base = crate::blas::beta_scale(self.y.get(j), self.beta);
        self.y.set(j, self.alpha * acc + base);
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        strip_sum_cost::<T>(cfg, self.n, self.strips, self.out_stride)
    }
}

/// Modeled cost of [`StripSumK`] launched as `cfg`.
pub(crate) fn strip_sum_cost<T: Scalar>(
    cfg: &LaunchConfig,
    n: usize,
    strips: usize,
    out_stride: usize,
) -> KernelCost {
    let (n, s) = (n as u64, strips as u64);
    KernelCost::new()
        .flops_total(n * s + 2 * n)
        .fp64(T::IS_F64)
        .read(AccessPattern::strided::<T>(
            n * s,
            out_stride as u64 * T::BYTES,
        ))
        .read(AccessPattern::coalesced::<T>(n))
        .write(AccessPattern::coalesced::<T>(n))
        .active_threads(cfg, n)
}

/// Rank-1 update `A ← A + αxyᵀ`.
///
/// Modeled geometry: one thread per element in storage order (coalesced on
/// `A` regardless of layout; the small operand vector on the lane-varying
/// axis is coalesced, the other is broadcast). Functional geometry: one
/// iteration per storage column.
pub struct GerK<T: Scalar> {
    pub alpha: T,
    pub x: DView<T>,
    pub y: DView<T>,
    pub a: DViewMut<T>,
    pub m: usize,
    pub n: usize,
    pub layout: Layout,
}

impl<T: Scalar> Kernel for GerK<T> {
    fn name(&self) -> &'static str {
        "ger"
    }
    fn run(&self, t: &ThreadCtx) {
        let a = self.a.as_mut_slice();
        match self.layout {
            Layout::ColMajor => {
                let j = t.global_id();
                if j >= self.n {
                    return;
                }
                let s = self.alpha * self.y.get(j);
                let x = self.x.as_slice();
                for (aij, &xi) in a[j * self.m..(j + 1) * self.m].iter_mut().zip(x) {
                    *aij = s.mul_add(xi, *aij);
                }
            }
            Layout::RowMajor => {
                let i = t.global_id();
                if i >= self.m {
                    return;
                }
                let s = self.alpha * self.x.get(i);
                let y = self.y.as_slice();
                for (aij, &yj) in a[i * self.n..(i + 1) * self.n].iter_mut().zip(y) {
                    *aij = s.mul_add(yj, *aij);
                }
            }
        }
    }
    fn cost(&self, _cfg: &LaunchConfig) -> KernelCost {
        let mn = (self.m * self.n) as u64;
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

// --------------------------------------------------------------------------
// Basis pivot-update kernels (the paper's per-iteration core).
// --------------------------------------------------------------------------

/// Compute the eta column: `eta[i] = −α[i]/α[p]` for `i ≠ p`,
/// `eta[p] = 1/α[p]`.
pub struct EtaK<T: Scalar> {
    pub alpha: DView<T>,
    pub p: usize,
    pub eta: DViewMut<T>,
    pub m: usize,
}

impl<T: Scalar> Kernel for EtaK<T> {
    fn name(&self) -> &'static str {
        "eta"
    }
    fn run(&self, t: &ThreadCtx) {
        let i = t.global_id();
        if i >= self.m {
            return;
        }
        let ap = self.alpha.get(self.p);
        if i == self.p {
            self.eta.set(i, T::ONE / ap);
        } else {
            self.eta.set(i, -self.alpha.get(i) / ap);
        }
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let m = self.m as u64;
        KernelCost::new()
            .flops_total(2 * m)
            .fp64(T::IS_F64)
            .read(AccessPattern::coalesced::<T>(m))
            .read(AccessPattern::broadcast::<T>(m))
            .write(AccessPattern::coalesced::<T>(m))
            .active_threads(cfg, m)
    }
}

/// Extract row `p` of a matrix into a contiguous vector.
///
/// In col-major storage a row is strided by `m` elements — an honest
/// uncoalesced read the paper's implementation also paid once per iteration.
pub struct RowExtractK<T: Scalar> {
    pub mat: DView<T>,
    pub rows: usize,
    pub cols: usize,
    pub layout: Layout,
    pub p: usize,
    pub out: DViewMut<T>,
}

impl<T: Scalar> Kernel for RowExtractK<T> {
    fn name(&self) -> &'static str {
        "row_extract"
    }
    fn run(&self, t: &ThreadCtx) {
        let j = t.global_id();
        if j >= self.cols {
            return;
        }
        let idx = match self.layout {
            Layout::ColMajor => self.p + j * self.rows,
            Layout::RowMajor => j + self.p * self.cols,
        };
        self.out.set(j, self.mat.get(idx));
    }
    fn cost(&self, cfg: &LaunchConfig) -> KernelCost {
        let n = self.cols as u64;
        let pattern = match self.layout {
            Layout::ColMajor => AccessPattern::strided::<T>(n, self.rows as u64 * T::BYTES),
            Layout::RowMajor => AccessPattern::coalesced::<T>(n),
        };
        KernelCost::new()
            .read(pattern)
            .write(AccessPattern::coalesced::<T>(n))
            .active_threads(cfg, n)
    }
}

/// Apply the eta (Gauss–Jordan column elimination) transformation to a
/// `rows × cols` matrix in place:
/// `M[i,j] ← (i == p ? 0 : M[i,j]) + eta[i]·rowp[j]`.
///
/// Used for the revised method's `B⁻¹ ← E·B⁻¹` update (square) and for the
/// full-tableau baseline's elimination step (rectangular) — the O(rows·cols)
/// kernel per-iteration time is dominated by. Modeled geometry: one thread
/// per element in storage order (coalesced read+write of `M`; the
/// lane-varying operand vector coalesced, the other broadcast). Branchless,
/// so no divergence penalty.
pub struct PivotUpdateK<T: Scalar> {
    pub mat: DViewMut<T>,
    pub eta: DView<T>,
    pub rowp: DView<T>,
    pub p: usize,
    pub rows: usize,
    pub cols: usize,
    pub layout: Layout,
}

impl<T: Scalar> Kernel for PivotUpdateK<T> {
    fn name(&self) -> &'static str {
        "pivot_update"
    }
    fn run(&self, t: &ThreadCtx) {
        let (m, n) = (self.rows, self.cols);
        let mat = self.mat.as_mut_slice();
        let eta = self.eta.as_slice();
        let rowp = self.rowp.as_slice();
        match self.layout {
            Layout::ColMajor => {
                let j = t.global_id();
                if j >= n {
                    return;
                }
                let rpj = rowp[j];
                let col = &mut mat[j * m..(j + 1) * m];
                for (i, (b, &ei)) in col.iter_mut().zip(eta).enumerate() {
                    let old = if i == self.p { T::ZERO } else { *b };
                    *b = ei.mul_add(rpj, old);
                }
            }
            Layout::RowMajor => {
                let i = t.global_id();
                if i >= m {
                    return;
                }
                let ei = eta[i];
                let keep = i != self.p;
                let row = &mut mat[i * n..(i + 1) * n];
                for (b, &rpj) in row.iter_mut().zip(rowp) {
                    let old = if keep { *b } else { T::ZERO };
                    *b = ei.mul_add(rpj, old);
                }
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
