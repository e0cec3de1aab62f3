//! Serial CPU BLAS subset — the reproduction's stand-in for the ATLAS
//! routines behind the paper's CPU baseline.
//!
//! Routines are deliberately straightforward loops: the baseline the paper
//! compares against is a single CPU core, and the *modeled* baseline time
//! comes from [`crate::cpu_model`], not from wall-clocking these loops.

mod inv;
mod level1;
mod level2;
mod level3;

pub use inv::{gauss_jordan_invert, DenseLu};
pub use level1::{asum, axpy, copy, dot, iamax, nrm2, scal};
pub(crate) use level2::beta_scale;
pub use level2::{col_dots, gemv_n, gemv_t, ger};
pub use level3::gemm;
