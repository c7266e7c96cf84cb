//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Element-count specification for [`vec()`]: an exact length or a
/// half-open range of lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeRange {
    start: usize,
    end: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            start: n,
            end: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            start: r.start,
            end: r.end,
        }
    }
}

/// Strategy generating `Vec`s whose elements come from `element` and
/// whose length is drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn exact_size_from_usize() {
        let mut rng = TestRng::from_seed(9);
        for _ in 0..20 {
            assert_eq!(vec(any::<u8>(), 5).generate(&mut rng).len(), 5);
        }
    }

    #[test]
    fn ranged_size_varies() {
        let mut rng = TestRng::from_seed(10);
        let mut lens = std::collections::BTreeSet::new();
        for _ in 0..100 {
            lens.insert(vec(any::<u8>(), 1..6).generate(&mut rng).len());
        }
        assert!(lens.len() > 1);
        assert!(lens.iter().all(|&l| (1..6).contains(&l)));
    }
}
