//! Property-based tests for the rectangle algebra and covering primitives.

use dgl_geom::coverage::{covers, difference, residual, Pieces};
use dgl_geom::Rect2;
use proptest::prelude::*;

fn arb_rect() -> impl Strategy<Value = Rect2> {
    (0.0..10.0f64, 0.0..10.0f64, 0.0..5.0f64, 0.0..5.0f64)
        .prop_map(|(x, y, w, h)| Rect2::new([x, y], [x + w, y + h]))
}

fn arb_rects(max: usize) -> impl Strategy<Value = Vec<Rect2>> {
    prop::collection::vec(arb_rect(), 0..max)
}

/// Deterministic grid of sample points spanning `q` (including corners).
fn sample_points(q: &Rect2, n: usize) -> Vec<[f64; 2]> {
    let mut pts = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let fx = i as f64 / (n - 1) as f64;
            let fy = j as f64 / (n - 1) as f64;
            pts.push([
                q.lo[0] + fx * (q.hi[0] - q.lo[0]),
                q.lo[1] + fy * (q.hi[1] - q.lo[1]),
            ]);
        }
    }
    pts
}

fn point_in(p: [f64; 2], r: &Rect2) -> bool {
    r.lo[0] <= p[0] && p[0] <= r.hi[0] && r.lo[1] <= p[1] && p[1] <= r.hi[1]
}

proptest! {
    /// union/intersection/containment laws.
    #[test]
    fn union_contains_operands(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
        prop_assert!(u.area() + 1e-12 >= a.area().max(b.area()));
    }

    #[test]
    fn intersection_symmetric_and_contained(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
            prop_assert!((a.overlap_area(&b) - i.area()).abs() < 1e-12);
        } else {
            prop_assert!(!a.intersects(&b));
        }
    }

    #[test]
    fn enlargement_nonnegative(a in arb_rect(), b in arb_rect()) {
        prop_assert!(a.enlargement(&b) >= -1e-12);
        if a.contains(&b) {
            prop_assert!(a.enlargement(&b).abs() < 1e-12);
        }
    }

    /// difference(q, r) partitions q: pieces ⊆ q, pieces avoid r's interior,
    /// and the measures add up.
    #[test]
    fn difference_is_exact_partition(q in arb_rect(), r in arb_rect()) {
        let pieces = difference(&q, &r);
        let mut piece_area = 0.0;
        for p in &pieces {
            prop_assert!(q.contains(p));
            prop_assert!(p.overlap_area(&r) < 1e-12);
            piece_area += p.area();
        }
        let expect = q.area() - q.overlap_area(&r);
        prop_assert!((piece_area - expect).abs() < 1e-9,
            "piece area {piece_area} vs expected {expect}");
        // Pieces are interior-disjoint.
        for (i, a) in pieces.iter().enumerate() {
            for b in pieces.iter().skip(i + 1) {
                prop_assert!(a.overlap_area(b) < 1e-12);
            }
        }
    }

    /// residual(q, rects) is the measure-exact complement of the union.
    #[test]
    fn residual_measure_and_disjointness(q in arb_rect(), rects in arb_rects(6)) {
        let res = residual(&q, &rects);
        for p in &res {
            prop_assert!(q.contains(p));
            for r in &rects {
                prop_assert!(p.overlap_area(r) < 1e-12);
            }
        }
        for (i, a) in res.iter().enumerate() {
            for b in res.iter().skip(i + 1) {
                prop_assert!(a.overlap_area(b) < 1e-12);
            }
        }
        // covers ⇔ residual empty.
        prop_assert_eq!(covers(&q, &rects), res.is_empty());
    }

    /// The iterator form — rectangles mapped out of where they live, piece
    /// buffers reused from one query to the next — is the same test.
    #[test]
    fn covers_iterator_form_agrees_with_residual(
        queries in prop::collection::vec(arb_rect(), 1..5),
        rects in arb_rects(7),
    ) {
        let entries: Vec<(u32, Rect2)> = rects.iter().map(|r| (7, *r)).collect();
        let mut pieces = Pieces::default();
        for q in &queries {
            prop_assert_eq!(
                pieces.covers(q, entries.iter().map(|e| e.1)),
                residual(q, &rects).is_empty()
            );
        }
    }

    /// Point-sampling oracle: every sampled point of q is either inside some
    /// input rect or inside some residual piece.
    #[test]
    fn residual_point_oracle(q in arb_rect(), rects in arb_rects(5)) {
        let res = residual(&q, &rects);
        for p in sample_points(&q, 7) {
            let in_rects = rects.iter().any(|r| point_in(p, r));
            let in_res = res.iter().any(|r| point_in(p, r));
            prop_assert!(in_rects || in_res,
                "point {p:?} lost: not in rects nor residual");
        }
    }

    /// covers() oracle: if covers() is true, every sampled point lies in the
    /// union; if a strictly interior sampled point escapes the union,
    /// covers() must be false.
    #[test]
    fn covers_point_oracle(q in arb_rect(), rects in arb_rects(5)) {
        let c = covers(&q, &rects);
        for p in sample_points(&q, 7) {
            let in_union = rects.iter().any(|r| point_in(p, r));
            if c {
                prop_assert!(in_union, "covered query has escaped point {p:?}");
            }
        }
    }

    /// Adding rectangles never un-covers a query (monotonicity).
    #[test]
    fn covers_monotone(q in arb_rect(), rects in arb_rects(5), extra in arb_rect()) {
        if covers(&q, &rects) {
            let mut more = rects.clone();
            more.push(extra);
            prop_assert!(covers(&q, &more));
        }
    }
}
