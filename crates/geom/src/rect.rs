use crate::Point;

/// An axis-aligned, closed rectangle in `D`-dimensional space.
///
/// `lo[d] <= hi[d]` must hold for every dimension `d`; constructors enforce
/// this in debug builds. Rectangles are *closed* on all sides, matching the
/// R-tree convention where bounding rectangles touching at an edge are
/// considered overlapping (a touching insert must still conflict with a
/// touching scan for phantom protection to be conservative).
///
/// ```
/// use dgl_geom::Rect2;
///
/// let a = Rect2::new([0.0, 0.0], [2.0, 2.0]);
/// let b = Rect2::new([1.0, 1.0], [3.0, 3.0]);
/// assert!(a.intersects(&b));
/// assert_eq!(a.overlap_area(&b), 1.0);
/// assert_eq!(a.union(&b), Rect2::new([0.0, 0.0], [3.0, 3.0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect<const D: usize> {
    /// Lower corner (minimum coordinate per dimension).
    pub lo: [f64; D],
    /// Upper corner (maximum coordinate per dimension).
    pub hi: [f64; D],
}

/// The 2-D rectangle used throughout the workspace (the paper's setting).
pub type Rect2 = Rect<2>;

impl<const D: usize> Rect<D> {
    /// Creates a rectangle from lower and upper corners.
    ///
    /// # Panics
    /// Panics in debug builds if `lo[d] > hi[d]` for any dimension.
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        debug_assert!(
            lo.iter().zip(hi.iter()).all(|(l, h)| l <= h),
            "invalid rect: lo {lo:?} > hi {hi:?}"
        );
        Self { lo, hi }
    }

    /// Creates a rectangle from a center point and per-dimension half-extents.
    pub fn from_center(center: [f64; D], half_extent: [f64; D]) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = center[d] - half_extent[d];
            hi[d] = center[d] + half_extent[d];
        }
        Self::new(lo, hi)
    }

    /// The degenerate rectangle at a single point.
    pub fn point(p: [f64; D]) -> Self {
        Self::new(p, p)
    }

    /// A rectangle covering the entire embedded space.
    ///
    /// The paper defines the external granule of the root as `S − ⋃children`
    /// where `S` is the whole embedded space; this constant stands in for
    /// `S`. Bounds are kept finite so that area arithmetic stays finite.
    pub fn everything() -> Self {
        Self {
            lo: [-1e18; D],
            hi: [1e18; D],
        }
    }

    /// The unit hypercube `[0,1]^D`, the embedded space used by the
    /// workload generators.
    pub fn unit() -> Self {
        Self {
            lo: [0.0; D],
            hi: [1.0; D],
        }
    }

    /// Extent along dimension `d`.
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// The center point.
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for (d, v) in c.iter_mut().enumerate() {
            *v = 0.5 * (self.lo[d] + self.hi[d]);
        }
        Point::new(c)
    }

    /// Volume (area in 2-D) of the rectangle.
    pub fn area(&self) -> f64 {
        (0..D).map(|d| self.extent(d)).product()
    }

    /// Whether `self` and `other` intersect (closed-interval semantics:
    /// touching rectangles intersect).
    ///
    /// All `2·D` comparisons are evaluated and ANDed (`&`, not `&&`): a
    /// tree walk asks this of every entry of every node it opens and a
    /// minority answer yes, so a short-circuit is a branch the predictor
    /// keeps missing.
    pub fn intersects(&self, other: &Self) -> bool {
        (0..D).fold(true, |all, d| {
            all & (self.lo[d] <= other.hi[d]) & (other.lo[d] <= self.hi[d])
        })
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &Self) -> bool {
        (0..D).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Whether the point `p` lies inside the (closed) rectangle.
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= p.coords[d] && p.coords[d] <= self.hi[d])
    }

    /// The smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Self) -> Self {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = self.lo[d].min(other.lo[d]);
            hi[d] = self.hi[d].max(other.hi[d]);
        }
        Self { lo, hi }
    }

    /// The intersection of `self` and `other`, or `None` if disjoint.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        if !self.intersects(other) {
            return None;
        }
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = self.lo[d].max(other.lo[d]);
            hi[d] = self.hi[d].min(other.hi[d]);
        }
        Some(Self { lo, hi })
    }

    /// Area of the intersection with `other` (0 if disjoint).
    pub fn overlap_area(&self, other: &Self) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// The increase in area needed for `self` to also cover `other`
    /// (Guttman's ChooseLeaf criterion).
    pub fn enlargement(&self, other: &Self) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Whether the rectangle has zero volume (degenerate in some dimension).
    pub fn is_degenerate(&self) -> bool {
        (0..D).any(|d| self.extent(d) == 0.0)
    }

    /// The smallest rectangle containing every rectangle in `rects`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn union_all<'a>(mut rects: impl Iterator<Item = &'a Self>) -> Option<Self> {
        let first = *rects.next()?;
        Some(rects.fold(first, |acc, r| acc.union(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
        Rect::new(lo, hi)
    }

    #[test]
    fn area_of_box_and_point() {
        let a = r([0.0, 0.0], [2.0, 3.0]);
        assert_eq!(a.area(), 6.0);
        assert_eq!(Rect::point([1.0, 1.0]).area(), 0.0);
    }

    #[test]
    fn intersection_basics() {
        let a = r([0.0, 0.0], [2.0, 2.0]);
        let b = r([1.0, 1.0], [3.0, 3.0]);
        assert!(a.intersects(&b));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r([1.0, 1.0], [2.0, 2.0]));
        assert_eq!(a.overlap_area(&b), 1.0);
    }

    #[test]
    fn touching_rects_intersect() {
        // Closed-interval semantics: rectangles sharing only an edge overlap.
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([1.0, 0.0], [2.0, 1.0]);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 2.0], [3.0, 3.0]);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = r([0.0, 0.0], [10.0, 10.0]);
        let inner = r([1.0, 1.0], [2.0, 2.0]);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer), "containment is reflexive");
    }

    #[test]
    fn union_covers_both() {
        let a = r([0.0, 0.0], [1.0, 1.0]);
        let b = r([2.0, 2.0], [3.0, 3.0]);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r([0.0, 0.0], [3.0, 3.0]));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let outer = r([0.0, 0.0], [10.0, 10.0]);
        let inner = r([1.0, 1.0], [2.0, 2.0]);
        assert_eq!(outer.enlargement(&inner), 0.0);
        assert!(inner.enlargement(&outer) > 0.0);
    }

    #[test]
    fn union_all_of_many() {
        let rects = [
            r([0.0, 0.0], [1.0, 1.0]),
            r([5.0, -1.0], [6.0, 0.5]),
            r([2.0, 2.0], [3.0, 3.0]),
        ];
        let u = Rect::union_all(rects.iter()).unwrap();
        assert_eq!(u, r([0.0, -1.0], [6.0, 3.0]));
        assert!(Rect2::union_all(std::iter::empty()).is_none());
    }

    #[test]
    fn everything_contains_unit() {
        assert!(Rect::<2>::everything().contains(&Rect::unit()));
        assert!(Rect::<2>::everything().area().is_finite());
    }

    #[test]
    fn from_center_roundtrip() {
        let c = Rect::from_center([5.0, 5.0], [1.0, 2.0]);
        assert_eq!(c, r([4.0, 3.0], [6.0, 7.0]));
        assert_eq!(c.center().coords, [5.0, 5.0]);
    }

    #[test]
    fn degeneracy() {
        assert!(Rect::point([1.0, 2.0]).is_degenerate());
        assert!(r([0.0, 0.0], [1.0, 0.0]).is_degenerate());
        assert!(!r([0.0, 0.0], [1.0, 1.0]).is_degenerate());
    }
}
