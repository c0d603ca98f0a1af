//! Covering algebra over axis-aligned boxes.
//!
//! The ICDE-98 protocol defines the *external granule* of a non-leaf R-tree
//! node `T` as `ext(T) = T.space − ⋃ children(T)` — a region that is in
//! general not a rectangle. Two exact primitives over closed boxes let the
//! protocol reason about such regions without ever materializing them as
//! polygons:
//!
//! * [`residual`] — decompose `q ∖ ⋃ rects` into disjoint boxes, and
//! * [`covers`] — decide whether `⋃ rects ⊇ q` (i.e. the residual is empty).
//!
//! A search predicate `P` overlaps `ext(T)` exactly when
//! `!covers(P ∩ T.space, children(T))`; the region a leaf granule grows
//! into is `difference(new_br, old_br)`. Both are used on every scan and
//! granule-changing insert, so the implementation is allocation-light and
//! processes boxes in-place.

use crate::Rect;

/// Splits `q ∖ r` into at most `2·D` disjoint boxes.
///
/// Returns the boxes in an arbitrary order; their union together with
/// `q ∩ r` is exactly `q`. If `q` and `r` are disjoint the result is `[q]`;
/// if `r ⊇ q` the result is empty.
///
/// Boxes are closed, so adjacent pieces share boundary faces; this is the
/// conservative convention used throughout the lock protocol (a predicate
/// touching a granule boundary conflicts with that granule).
pub fn difference<const D: usize>(q: &Rect<D>, r: &Rect<D>) -> Vec<Rect<D>> {
    let mut out = Vec::new();
    difference_into(q, r, &mut out);
    out
}

/// Like [`difference`], appending the pieces to `out` (hot-path variant
/// that lets callers reuse an allocation).
pub fn difference_into<const D: usize>(q: &Rect<D>, r: &Rect<D>, out: &mut Vec<Rect<D>>) {
    if !q.intersects(r) {
        out.push(*q);
        return;
    }
    // Carve slabs off `q` one dimension at a time; what remains after all
    // dimensions is `q ∩ r`, which is covered by `r` and therefore dropped.
    let mut rem = *q;
    for d in 0..D {
        if rem.lo[d] < r.lo[d] {
            let mut slab = rem;
            slab.hi[d] = r.lo[d];
            out.push(slab);
            rem.lo[d] = r.lo[d];
        }
        if rem.hi[d] > r.hi[d] {
            let mut slab = rem;
            slab.lo[d] = r.hi[d];
            out.push(slab);
            rem.hi[d] = r.hi[d];
        }
    }
}

/// Decomposes `q ∖ ⋃ rects` into disjoint closed boxes.
///
/// The result is exact up to measure zero: residual boxes may share
/// boundary faces with the input rectangles but never overlap their
/// interiors. An empty result means `⋃ rects` covers `q` entirely
/// (including degenerate `q`, e.g. a point).
pub fn residual<const D: usize>(q: &Rect<D>, rects: &[Rect<D>]) -> Vec<Rect<D>> {
    let mut pieces = vec![*q];
    let mut next = Vec::new();
    for r in rects {
        if pieces.is_empty() {
            break;
        }
        next.clear();
        for p in &pieces {
            difference_into(p, r, &mut next);
        }
        std::mem::swap(&mut pieces, &mut next);
    }
    pieces
}

/// Whether `⋃ rects` fully covers `q`.
///
/// Exact for closed boxes, including degenerate queries (a point query is
/// covered iff it lies inside some rectangle). This is the primitive behind
/// the protocol's "does predicate P overlap `ext(T)`" test:
/// `P` overlaps `ext(T)` ⇔ `!covers(P ∩ T.space, children)`.
///
/// ```
/// use dgl_geom::{coverage::covers, Rect2};
///
/// let q = Rect2::new([0.0, 0.0], [2.0, 1.0]);
/// let tiles = [
///     Rect2::new([0.0, 0.0], [1.0, 1.0]),
///     Rect2::new([1.0, 0.0], [2.0, 1.0]),
/// ];
/// assert!(covers(&q, &tiles));
/// assert!(!covers(&q, &tiles[..1]));
/// ```
pub fn covers<const D: usize>(q: &Rect<D>, rects: &[Rect<D>]) -> bool {
    Pieces::default().covers(q, rects.iter().copied())
}

/// The piece buffers of a [`covers`] test, kept so that a caller asking
/// about one node after another (a tree walk's `ext(T)` tests) allocates
/// them once, and takes its rectangles from wherever they live instead of
/// copying them into a slice first.
#[derive(Debug, Default)]
pub struct Pieces<const D: usize> {
    pieces: Vec<Rect<D>>,
    next: Vec<Rect<D>>,
}

impl<const D: usize> Pieces<D> {
    /// [`covers`] over any re-iterable source of rectangles.
    pub fn covers(&mut self, q: &Rect<D>, rects: impl Iterator<Item = Rect<D>> + Clone) -> bool {
        // Fast path: a single child often covers the whole query.
        if rects.clone().any(|r| r.contains(q)) {
            return true;
        }
        // Process rects that intersect q, emptying the piece list as we go.
        self.pieces.clear();
        self.pieces.push(*q);
        for r in rects {
            if self.pieces.is_empty() {
                return true;
            }
            if !r.intersects(q) {
                continue;
            }
            self.next.clear();
            for p in &self.pieces {
                difference_into(p, &r, &mut self.next);
            }
            std::mem::swap(&mut self.pieces, &mut self.next);
        }
        self.pieces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect2;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
        Rect2::new(lo, hi)
    }

    #[test]
    fn difference_disjoint_returns_query() {
        let q = r([0.0, 0.0], [1.0, 1.0]);
        let x = r([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(difference(&q, &x), vec![q]);
    }

    #[test]
    fn difference_contained_is_empty() {
        let q = r([1.0, 1.0], [2.0, 2.0]);
        let x = r([0.0, 0.0], [3.0, 3.0]);
        assert!(difference(&q, &x).is_empty());
    }

    #[test]
    fn difference_partial_overlap() {
        let q = r([0.0, 0.0], [2.0, 1.0]);
        let x = r([1.0, 0.0], [3.0, 1.0]);
        let d = difference(&q, &x);
        assert_eq!(d, vec![r([0.0, 0.0], [1.0, 1.0])]);
    }

    #[test]
    fn difference_hole_in_middle_gives_four_slabs() {
        let q = r([0.0, 0.0], [3.0, 3.0]);
        let x = r([1.0, 1.0], [2.0, 2.0]);
        let d = difference(&q, &x);
        assert_eq!(d.len(), 4);
        let area: f64 = d.iter().map(Rect2::area).sum();
        assert_eq!(area, 9.0 - 1.0);
        // Pieces must stay inside q and not overlap x's interior.
        for p in &d {
            assert!(q.contains(p));
            assert_eq!(p.overlap_area(&x), 0.0);
        }
    }

    #[test]
    fn covers_exact_tiling() {
        let q = r([0.0, 0.0], [2.0, 2.0]);
        let tiles = [
            r([0.0, 0.0], [1.0, 1.0]),
            r([1.0, 0.0], [2.0, 1.0]),
            r([0.0, 1.0], [1.0, 2.0]),
            r([1.0, 1.0], [2.0, 2.0]),
        ];
        assert!(covers(&q, &tiles));
        // Remove any one tile and coverage fails.
        for skip in 0..tiles.len() {
            let partial: Vec<_> = tiles
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, t)| *t)
                .collect();
            assert!(!covers(&q, &partial), "missing tile {skip}");
        }
    }

    #[test]
    fn covers_with_overlapping_rects() {
        let q = r([0.0, 0.0], [4.0, 1.0]);
        let rects = [r([-1.0, -1.0], [2.5, 2.0]), r([2.0, -0.5], [5.0, 1.5])];
        assert!(covers(&q, &rects));
    }

    #[test]
    fn covers_point_query() {
        let p = Rect2::point([1.0, 1.0]);
        assert!(covers(&p, &[r([0.0, 0.0], [2.0, 2.0])]));
        // Point on the boundary is covered (closed rectangles).
        let edge = Rect2::point([0.0, 1.0]);
        assert!(covers(&edge, &[r([0.0, 0.0], [2.0, 2.0])]));
        let outside = Rect2::point([3.0, 3.0]);
        assert!(!covers(&outside, &[r([0.0, 0.0], [2.0, 2.0])]));
    }

    #[test]
    fn covers_empty_rect_list() {
        let q = r([0.0, 0.0], [1.0, 1.0]);
        assert!(!covers(&q, &[]));
        assert_eq!(residual(&q, &[]), vec![q]);
    }

    #[test]
    fn covers_needle_gap() {
        // Two rects leaving a thin uncovered strip in the middle.
        let q = r([0.0, 0.0], [10.0, 1.0]);
        let rects = [r([0.0, 0.0], [4.9, 1.0]), r([5.1, 0.0], [10.0, 1.0])];
        assert!(!covers(&q, &rects));
        let res = residual(&q, &rects);
        let area: f64 = res.iter().map(Rect2::area).sum();
        assert!((area - 0.2).abs() < 1e-12);
    }

    #[test]
    fn residual_pieces_disjoint_from_rect_interiors() {
        let q = r([0.0, 0.0], [6.0, 6.0]);
        let rects = [
            r([1.0, 1.0], [3.0, 5.0]),
            r([2.0, 0.0], [5.0, 2.0]),
            r([4.0, 3.0], [7.0, 7.0]),
        ];
        let res = residual(&q, &rects);
        assert!(!res.is_empty());
        for p in &res {
            assert!(q.contains(p));
            for rect in &rects {
                assert_eq!(
                    p.overlap_area(rect),
                    0.0,
                    "residual piece {p:?} overlaps {rect:?}"
                );
            }
        }
        // Total measure checks out: |q| = |residual| + |q ∩ union| (inclusion–
        // exclusion over three rects clipped to q).
        let res_area: f64 = res.iter().map(Rect2::area).sum();
        let clipped: Vec<_> = rects.iter().filter_map(|x| q.intersection(x)).collect();
        let union_area = {
            let [a, b, c] = [&clipped[0], &clipped[1], &clipped[2]];
            let ab = a.intersection(b);
            let ac = a.intersection(c);
            let bc = b.intersection(c);
            let abc = ab.and_then(|x| x.intersection(c));
            a.area() + b.area() + c.area()
                - ab.map_or(0.0, |x| x.area())
                - ac.map_or(0.0, |x| x.area())
                - bc.map_or(0.0, |x| x.area())
                + abc.map_or(0.0, |x| x.area())
        };
        assert!((res_area + union_area - q.area()).abs() < 1e-9);
    }

    #[test]
    fn three_dimensional_difference() {
        let q = Rect::<3>::new([0.0; 3], [2.0; 3]);
        let x = Rect::<3>::new([0.0; 3], [1.0; 3]);
        let d = difference(&q, &x);
        let vol: f64 = d.iter().map(Rect::area).sum();
        assert_eq!(vol, 8.0 - 1.0);
        assert!(covers(&q, &[x, Rect::<3>::new([0.0; 3], [2.0; 3])]));
    }
}
