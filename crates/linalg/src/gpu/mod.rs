//! "simublas" — the CUBLAS-role BLAS subset as [`gpu_sim`] kernels.
//!
//! Layout matters here the way it mattered in 2009: [`DeviceMatrix`] carries
//! its storage [`Layout`], and every kernel's cost descriptor derives its
//! coalescing pattern from that layout. The paper stores matrices
//! column-major so `gemv`'s row-indexed lanes stream coalesced; experiment
//! F4 flips the layout and measures the damage.
//!
//! `gemv_n` is a split-K strip reduce: `m · s` threads each sum one row over
//! one of `s` column blocks, then one thread per row adds its `s` partials.
//! One thread per row (`s = 1`, the 2009 `sgemv`) leaves most SMs idle
//! below a few thousand rows, so [`gemv_n_strips`] derives `s` from the
//! [`gpu_sim::DeviceSpec`] and the shape: the candidate with the least
//! modeled kernel-body time. The transposed product has the same two-pass
//! form with a fixed 32 threads per column.
//!
//! ## Functional vs. modeled geometry
//!
//! Kernels whose modeled CUDA geometry is one-thread-per-element (the basis
//! pivot update, `ger`) execute functionally with one host iteration per
//! *column* running a tight slice loop — same results, ~m× fewer closure
//! dispatches — and declare the modeled thread count via
//! `KernelCost::active_threads_raw`. The thread-per-row `gemv_n` and the
//! first pass of both strip-reduce gemvs go further: one host sweep on a
//! one-thread grid builds every output or partial in the same order as its
//! modeled thread, so the results are bitwise those of the per-thread form.
//! Reductions mirror 2009 CUDA style:
//! `log`-depth passes of block-tree kernels, finishing with a tiny
//! device→host transfer (which is charged, because that per-iteration PCIe
//! latency is part of the paper's story).

mod algo;
mod batch_kernels;
mod blas;
mod first_order;
mod invert;
mod kernels;
mod mat;
mod sparse_tri;

pub use algo::{
    argmin, argmin_into, reduce, reduce_into, reduce_u32_min, reduce_u32_min_into, ReduceOp,
};
pub use batch_kernels::{
    BatchBookK, BatchBtranK, BatchFtranK, BatchObjK, BatchPivotK, BatchPriceK, BatchRatioK,
    BatchSelectK, LaneGatherK, LaneRebaseK, LaneScatterK, SelectRule, CTL_ACTIVE, CTL_BLAND,
};
pub use blas::{
    axpy, copy, copy_on, dot, eliminate, eliminate_on, fill, gemv_n, gemv_n_on, gemv_n_split_on,
    gemv_n_strips, gemv_t, gemv_t_cols_on, gemv_t_on, ger, pivot_update, pivot_update_on, scal,
    GemvTStrategy, GEMV_N_STRIP_CANDIDATES, GEMV_N_STRIP_TIE,
};
pub use first_order::{pdhg_dual_on, pdhg_primal_on, PdhgDualK, PdhgPrimalK};
pub use invert::{invert_basis_on, BasisColumns, INVERT_OK};
pub use kernels::{CopyK, EtaK, RowExtractK};
pub use mat::{DeviceMatrix, Layout};
pub use sparse_tri::{DeviceLu, LuBtranK, LuFtranK};
