//! # linalg — the linear-algebra substrate of the gplex reproduction
//!
//! Two mirrored BLAS subsets over the same [`Scalar`] abstraction
//! (`f32`/`f64`):
//!
//! * [`blas`] — serial CPU routines (the role ATLAS played for the paper's
//!   baseline), plus Gauss–Jordan inversion for basis refactorization and
//!   a dense LU factor for host solves against a basis, with a calibrated
//!   [`cpu_model`] that converts operation counts into modeled single-core
//!   time;
//! * [`gpu`] — the same operations as [`gpu_sim`] kernels (the role CUBLAS
//!   played for the paper's GPU implementation), including coalesced and
//!   deliberately *uncoalesced* variants for the layout ablation, and
//!   multi-pass device reductions (sum, dot, argmin) in the style of 2009
//!   CUDA reduction code.
//!
//! [`sparse`] provides CSR/COO/CSC storage and SpMV for the sparse-extension
//! experiment.
//!
//! Everything here is deterministic: given the same inputs, CPU and GPU
//! paths produce bitwise-reproducible results (GPU reductions use a fixed
//! tree order, not atomics).

// Numeric-kernel idioms used throughout: `!(a < b)` keeps NaN on the
// "no improvement" side of pivot/ratio tests (rewriting to `a >= b` flips
// NaN behavior), and indexed loops mirror the BLAS reference formulation
// over multiple co-indexed buffers.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod blas;
pub mod cpu_model;
pub mod dense;
pub mod gpu;
pub mod lu;
pub mod scalar;
pub mod sparse;

pub use batch::DenseBatchLayout;
pub use cpu_model::CpuModel;
pub use dense::DenseMatrix;
pub use lu::{LuStats, SparseLu};
pub use scalar::Scalar;
pub use sparse::{CooMatrix, CscMatrix, CsrMatrix, DeviceCsc, DeviceCsr};
