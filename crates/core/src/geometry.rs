//! Axis-aligned hyper-rectangles of the join-attribute space.
//!
//! RecPart partitions the `d`-dimensional attribute space `A_1 × … × A_d` into
//! rectangular regions. Regions are *half-open*: a point belongs to a region iff
//! `lo[i] <= x[i] < hi[i]` in every dimension. Half-openness guarantees that the
//! children of a split form a disjoint cover of their parent, so every point of
//! the space belongs to exactly one leaf of the split tree.

use crate::band::BandCondition;

/// A half-open axis-aligned box `[lo_1, hi_1) × … × [lo_d, hi_d)`.
///
/// Unbounded sides are represented by `-∞` / `+∞`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// The whole `d`-dimensional space.
    pub fn unbounded(dims: usize) -> Self {
        assert!(dims > 0);
        Rect {
            lo: vec![f64::NEG_INFINITY; dims],
            hi: vec![f64::INFINITY; dims],
        }
    }

    /// A box with explicit bounds.
    ///
    /// # Panics
    /// Panics if the bounds have different lengths or any `lo[i] > hi[i]`.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound vectors must have equal length");
        assert!(!lo.is_empty(), "rectangles need at least one dimension");
        for (l, h) in lo.iter().zip(&hi) {
            assert!(l <= h, "lower bound {l} exceeds upper bound {h}");
        }
        Rect { lo, hi }
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound in dimension `dim` (inclusive).
    #[inline]
    pub fn lo(&self, dim: usize) -> f64 {
        self.lo[dim]
    }

    /// Upper bound in dimension `dim` (exclusive).
    #[inline]
    pub fn hi(&self, dim: usize) -> f64 {
        self.hi[dim]
    }

    /// Extent (side length) in dimension `dim`; may be infinite.
    #[inline]
    pub fn extent(&self, dim: usize) -> f64 {
        self.hi[dim] - self.lo[dim]
    }

    /// Extent in dimension `dim` after clipping this rectangle to `domain`.
    ///
    /// Used to decide whether a partition is "small" even when the partition itself is
    /// unbounded (the root starts at ±∞): only the part that overlaps the observed data
    /// domain matters.
    pub(crate) fn clipped_extent(&self, dim: usize, domain: &Rect) -> f64 {
        let lo = self.lo[dim].max(domain.lo[dim]);
        let hi = self.hi[dim].min(domain.hi[dim]);
        (hi - lo).max(0.0)
    }

    /// Does the point belong to this (half-open) rectangle?
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        // Half-open: [lo, hi). The unbounded upper side (+∞) accepts everything finite.
        point
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&p, (&lo, &hi))| p >= lo && p < hi)
    }

    /// Does the ε-range around a **T**-tuple `t` intersect this rectangle?
    ///
    /// The ε-range around `t` is the closed box of S-values that can join with `t`
    /// (see [`BandCondition::range_around_t`]). A T-tuple must be copied to every
    /// partition whose region intersects its ε-range (Algorithm 3 of the paper).
    #[inline]
    pub fn intersects_t_range(&self, t: &[f64], band: &BandCondition) -> bool {
        debug_assert_eq!(t.len(), self.dims());
        for (i, &tv) in t.iter().enumerate() {
            let (lo, hi) = band.range_around_t(i, tv);
            // Closed range [lo, hi] vs half-open [self.lo, self.hi):
            // empty intersection iff hi < self.lo or lo >= self.hi.
            if hi < self.lo[i] || lo >= self.hi[i] {
                return false;
            }
        }
        true
    }

    /// Split this rectangle at `value` in dimension `dim`.
    ///
    /// Returns `(left, right)` where `left` keeps points with `x[dim] < value` and
    /// `right` keeps points with `x[dim] >= value`.
    ///
    /// # Panics
    /// Panics if `value` lies outside `[lo(dim), hi(dim)]`.
    pub fn split(&self, dim: usize, value: f64) -> (Rect, Rect) {
        assert!(
            value >= self.lo[dim] && value <= self.hi[dim],
            "split value {value} outside rectangle bounds [{}, {}] in dim {dim}",
            self.lo[dim],
            self.hi[dim]
        );
        let mut left = self.clone();
        let mut right = self.clone();
        left.hi[dim] = value;
        right.lo[dim] = value;
        (left, right)
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub(crate) fn union(&self, other: &Rect) -> Rect {
        assert_eq!(self.dims(), other.dims());
        let lo = self
            .lo
            .iter()
            .zip(&other.lo)
            .map(|(a, b)| a.min(*b))
            .collect();
        let hi = self
            .hi
            .iter()
            .zip(&other.hi)
            .map(|(a, b)| a.max(*b))
            .collect();
        Rect { lo, hi }
    }

    /// The bounding box of a set of points (each of dimension `dims`), or `None` if
    /// the iterator is empty. The upper bounds are widened by the smallest positive
    /// amount that keeps every point strictly inside the half-open box.
    pub(crate) fn bounding_box<'a>(
        dims: usize,
        points: impl Iterator<Item = &'a [f64]>,
    ) -> Option<Rect> {
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        let mut any = false;
        for p in points {
            any = true;
            for i in 0..dims {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
        if !any {
            return None;
        }
        // Widen upper bounds so every observed point is strictly inside [lo, hi).
        for h in hi.iter_mut() {
            let bumped = if *h == 0.0 {
                f64::MIN_POSITIVE
            } else {
                *h + h.abs() * f64::EPSILON * 4.0
            };
            *h = bumped.max(*h + f64::MIN_POSITIVE);
        }
        Some(Rect { lo, hi })
    }

    /// Volume of the rectangle; infinite if any side is unbounded.
    pub fn volume(&self) -> f64 {
        (0..self.dims()).map(|d| self.extent(d)).product()
    }

    /// The center point, with unbounded sides clamped to the finite bound (or 0 if both
    /// sides are unbounded). Mostly useful for diagnostics and tests.
    pub fn center(&self) -> Vec<f64> {
        (0..self.dims())
            .map(|d| {
                let (lo, hi) = (self.lo[d], self.hi[d]);
                match (lo.is_finite(), hi.is_finite()) {
                    (true, true) => 0.5 * (lo + hi),
                    (true, false) => lo,
                    (false, true) => hi,
                    (false, false) => 0.0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_contains_everything() {
        let r = Rect::unbounded(3);
        assert!(r.contains(&[0.0, -1e300, 1e300]));
        assert_eq!(r.extent(0), f64::INFINITY);
    }

    #[test]
    fn contains_is_half_open() {
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 2.0]);
        assert!(r.contains(&[0.0, 0.0]));
        assert!(r.contains(&[0.999, 1.999]));
        assert!(!r.contains(&[1.0, 0.5]));
        assert!(!r.contains(&[0.5, 2.0]));
        assert!(!r.contains(&[-0.001, 0.5]));
    }

    #[test]
    fn split_partitions_points() {
        let r = Rect::new(vec![0.0], vec![10.0]);
        let (left, right) = r.split(0, 4.0);
        assert!(left.contains(&[3.999]));
        assert!(!left.contains(&[4.0]));
        assert!(right.contains(&[4.0]));
        assert!(!right.contains(&[3.999]));
        // Every point in the parent is in exactly one child.
        for x in [0.0, 1.0, 3.9999, 4.0, 7.5, 9.999] {
            let p = [x];
            assert!(r.contains(&p));
            assert_ne!(left.contains(&p), right.contains(&p));
        }
    }

    #[test]
    fn split_of_unbounded_rect() {
        let r = Rect::unbounded(2);
        let (left, right) = r.split(1, 0.0);
        assert!(left.contains(&[100.0, -0.0001]));
        assert!(right.contains(&[100.0, 0.0]));
        assert!(!left.contains(&[100.0, 0.0]));
    }

    #[test]
    fn t_range_intersection_symmetric() {
        let band = BandCondition::symmetric(&[1.0]);
        let r = Rect::new(vec![5.0], vec![10.0]);
        // t = 4.5 → ε-range [3.5, 5.5] overlaps [5, 10)
        assert!(r.intersects_t_range(&[4.5], &band));
        // t = 3.9 → ε-range [2.9, 4.9] does not reach 5.0
        assert!(!r.intersects_t_range(&[3.9], &band));
        // t = 10.9 → ε-range [9.9, 11.9] overlaps
        assert!(r.intersects_t_range(&[10.9], &band));
        // t = 11.1 → ε-range [10.1, 12.1] does not overlap half-open [5, 10)
        assert!(!r.intersects_t_range(&[11.1], &band));
        // Boundary: t = 11.0 → ε-range starts exactly at 10.0, which is excluded.
        assert!(!r.intersects_t_range(&[11.0], &band));
    }

    #[test]
    fn epsilon_range_consistency_with_matches() {
        // If (s, t) matches then the region containing s must intersect the ε-range of t.
        let band = BandCondition::symmetric(&[0.5, 2.0]);
        let region = Rect::new(vec![0.0, 0.0], vec![5.0, 5.0]);
        let s = [4.9, 0.1];
        let t = [5.3, 2.0];
        assert!(band.matches(&s, &t));
        assert!(region.contains(&s));
        assert!(region.intersects_t_range(&t, &band));
    }

    #[test]
    fn bounding_box_covers_points() {
        let pts: Vec<Vec<f64>> = vec![vec![1.0, 5.0], vec![-2.0, 3.0], vec![0.5, 7.0]];
        let bb = Rect::bounding_box(2, pts.iter().map(|p| p.as_slice())).unwrap();
        for p in &pts {
            assert!(bb.contains(p), "bounding box must contain {p:?}");
        }
        assert!(Rect::bounding_box(2, std::iter::empty()).is_none());
    }

    #[test]
    fn clipped_extent_uses_domain() {
        let domain = Rect::new(vec![0.0], vec![100.0]);
        let r = Rect::unbounded(1);
        assert_eq!(r.clipped_extent(0, &domain), 100.0);
        let (left, _) = r.split(0, 30.0);
        assert_eq!(left.clipped_extent(0, &domain), 30.0);
        let outside = Rect::new(vec![200.0], vec![300.0]);
        assert_eq!(outside.clipped_extent(0, &domain), 0.0);
    }

    #[test]
    fn volume_and_center() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(r.volume(), 6.0);
        assert_eq!(r.center(), vec![1.0, 1.5]);
        assert_eq!(Rect::unbounded(2).volume(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn split_outside_bounds_panics() {
        let r = Rect::new(vec![0.0], vec![1.0]);
        let _ = r.split(0, 2.0);
    }
}
