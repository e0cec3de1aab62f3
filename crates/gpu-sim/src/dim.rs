//! Grid/block geometry, mirroring CUDA's `dim3` launch configuration.

/// Three-dimensional extent, as in CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    pub x: u32,
    pub y: u32,
    pub z: u32,
}

impl Dim3 {
    /// One-dimensional extent `(x, 1, 1)`.
    pub const fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// Two-dimensional extent `(x, y, 1)`.
    pub const fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements in the extent.
    pub const fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::x(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

/// A kernel launch configuration: grid of blocks, block of threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    pub grid: Dim3,
    pub block: Dim3,
}

impl LaunchConfig {
    /// Build a launch configuration from explicit grid and block extents.
    pub fn new(grid: impl Into<Dim3>, block: impl Into<Dim3>) -> Self {
        LaunchConfig {
            grid: grid.into(),
            block: block.into(),
        }
    }

    /// 1-D configuration covering at least `elems` threads with blocks of
    /// `block_size` threads — the standard `(n + b - 1) / b` idiom.
    pub fn for_elems(elems: usize, block_size: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let blocks = (elems as u64).div_ceil(block_size as u64);
        LaunchConfig {
            grid: Dim3::x(blocks.max(1) as u32),
            block: Dim3::x(block_size),
        }
    }

    /// The one-thread functional grid of a *sweep* kernel.
    ///
    /// A sweep kernel's single host thread builds every output element in
    /// one tight loop, each with exactly the expression and operation order
    /// of the device thread it models, so results are bitwise those of the
    /// thread-per-element grid. Its cost descriptor states the modeled
    /// thread count with [`crate::KernelCost::active_threads_raw`], which
    /// is all the timing model reads of the grid.
    pub fn sweep() -> Self {
        LaunchConfig::for_elems(1, 1)
    }

    /// Total threads in the launch (including any tail overshoot).
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }

    /// Total blocks in the launch.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Number of warps in the launch, given the device warp size.
    pub fn total_warps(&self, warp_size: u32) -> u64 {
        let warps_per_block = self.block.count().div_ceil(warp_size as u64);
        warps_per_block * self.grid.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_elems_covers_exactly_enough_blocks() {
        let c = LaunchConfig::for_elems(1000, 256);
        assert_eq!(c.grid.x, 4);
        assert_eq!(c.total_threads(), 1024);
        assert!(c.total_threads() >= 1000);
    }

    #[test]
    fn for_elems_zero_still_launches_one_block() {
        let c = LaunchConfig::for_elems(0, 128);
        assert_eq!(c.total_blocks(), 1);
    }

    #[test]
    fn warp_count_rounds_up_per_block() {
        // 33-thread blocks occupy 2 warps each (ragged warp wasted).
        let c = LaunchConfig::new(10u32, 33u32);
        assert_eq!(c.total_warps(32), 20);
    }

    #[test]
    fn dim3_conversions() {
        assert_eq!(Dim3::from(7u32), Dim3 { x: 7, y: 1, z: 1 });
        assert_eq!(Dim3::from((3u32, 4u32)).count(), 12);
    }
}
