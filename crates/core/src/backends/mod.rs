//! Backend implementations: the serial CPU backend over a dense or a CSC
//! column store, and the simulated-GPU dense backends the paper is about.

mod batch_kernel;
mod cpu;
mod gpu_dense;
pub(crate) mod gpu_kernels;

pub use batch_kernel::{BatchKernelBackend, BatchMember, LaneView};
pub use cpu::{CpuBackend, CpuDenseBackend, CpuSparseBackend};
pub use gpu_dense::GpuDenseBackend;
