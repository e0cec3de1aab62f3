//! Collection strategies (the `vec` subset).

use crate::{Gen, Strategy};

/// Accepted size arguments for [`vec()`]: an exact `usize`, `a..b`, or
/// `a..=b`.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Strategy producing a `Vec` whose length is drawn from a [`SizeRange`]
/// and whose elements come from an inner strategy.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// `Vec` strategy constructor, mirroring `proptest::collection::vec`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
        let len = g.below(self.size.lo, self.size.hi);
        (0..len).map(|_| self.element.generate(g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_ranged_sizes() {
        let mut g = Gen::from_seed(5);
        let exact = vec(0u32..10, 7usize);
        assert_eq!(exact.generate(&mut g).len(), 7);
        let ranged = vec(0u32..10, 1..4usize);
        for _ in 0..100 {
            let v = ranged.generate(&mut g);
            assert!((1..4).contains(&v.len()));
        }
    }
}
