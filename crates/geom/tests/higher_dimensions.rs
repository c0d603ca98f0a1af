//! The geometry layer is generic over dimensionality; the paper works in
//! 2-D but explicitly targets "multidimensional access methods". These
//! tests pin the covering algebra in 3-D and 4-D, where the
//! difference decomposition produces up to `2·D` slabs.

use dgl_geom::coverage::{covers, difference, residual};
use dgl_geom::Rect;

#[test]
fn cube_difference_peels_six_slabs() {
    let q = Rect::<3>::new([0.0; 3], [3.0; 3]);
    let hole = Rect::<3>::new([1.0; 3], [2.0; 3]);
    let d = difference(&q, &hole);
    assert_eq!(d.len(), 6, "a centered hole peels 2·D slabs");
    let vol: f64 = d.iter().map(Rect::area).sum();
    assert!((vol - (27.0 - 1.0)).abs() < 1e-12);
    for p in &d {
        assert!(q.contains(p));
        assert_eq!(p.overlap_area(&hole), 0.0);
    }
}

#[test]
fn octant_tiling_covers_cube() {
    // Split a cube into its 8 octants; coverage must hold and fail when
    // any octant is removed.
    let q = Rect::<3>::new([0.0; 3], [2.0; 3]);
    let mut tiles = Vec::new();
    for cx in 0..2 {
        for cy in 0..2 {
            for cz in 0..2 {
                let lo = [f64::from(cx), f64::from(cy), f64::from(cz)];
                let hi = [lo[0] + 1.0, lo[1] + 1.0, lo[2] + 1.0];
                tiles.push(Rect::<3>::new(lo, hi));
            }
        }
    }
    assert!(covers(&q, &tiles));
    for skip in 0..tiles.len() {
        let partial: Vec<_> = tiles
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, t)| *t)
            .collect();
        assert!(!covers(&q, &partial), "octant {skip} is load-bearing");
        let res = residual(&q, &partial);
        let missing: f64 = res.iter().map(Rect::area).sum();
        assert!((missing - 1.0).abs() < 1e-12, "exactly one octant missing");
    }
}

#[test]
fn four_dimensional_point_membership() {
    let r = Rect::<4>::new([0.0; 4], [1.0; 4]);
    let probe = Rect::<4>::point([0.25; 4]);
    assert!(covers(&probe, &[r]));
}

#[test]
fn hypercube_volume_overlap_and_union() {
    let r = Rect::<4>::new([0.0; 4], [2.0; 4]);
    assert_eq!(r.area(), 16.0);
    let shifted = Rect::<4>::new([1.0; 4], [3.0; 4]);
    assert_eq!(r.overlap_area(&shifted), 1.0);
    assert_eq!(r.union(&shifted), Rect::<4>::new([0.0; 4], [3.0; 4]));
}

#[test]
fn residual_in_three_dimensions_is_measure_exact() {
    let q = Rect::<3>::new([0.0; 3], [4.0; 3]);
    let blocks = [
        Rect::<3>::new([0.0; 3], [4.0, 4.0, 2.0]),
        Rect::<3>::new([0.0, 0.0, 2.0], [4.0, 2.0, 4.0]),
    ];
    let res = residual(&q, &blocks);
    let vol: f64 = res.iter().map(Rect::area).sum();
    // 64 total − 32 (bottom slab) − 16 (half of top) = 16 remaining.
    assert!((vol - 16.0).abs() < 1e-12);
    assert!(!covers(&q, &blocks));
    let full = [
        blocks[0],
        blocks[1],
        Rect::<3>::new([0.0, 2.0, 2.0], [4.0, 4.0, 4.0]),
    ];
    assert!(covers(&q, &full));
}

/// The per-dimension definition `Rect::intersects` must keep, however its
/// comparisons are combined.
fn intersects_by_definition<const D: usize>(a: &Rect<D>, b: &Rect<D>) -> bool {
    (0..D).all(|d| a.lo[d] <= b.hi[d] && b.lo[d] <= a.hi[d])
}

/// Every box over a small coordinate set — proper, degenerate (a point, a
/// segment), inverted, NaN-bearing — against every other: overlapping,
/// touching at a face or a corner, disjoint in one dimension only.
fn intersects_agrees_in<const D: usize>() {
    let coords = [0.0, 1.0, 2.0, f64::NAN];
    let n = coords.len();
    let mut boxes = Vec::new();
    for code in 0..n.pow(2 * D as u32) {
        let digit = |k: usize| coords[code / n.pow(k as u32) % n];
        boxes.push(Rect::<D> {
            lo: std::array::from_fn(|d| digit(2 * d)),
            hi: std::array::from_fn(|d| digit(2 * d + 1)),
        });
    }
    // D = 3 has 4096 boxes; a stride keeps its pairing near 10^6.
    let step = boxes.len() / 256 + 1;
    for a in &boxes {
        for b in boxes.iter().step_by(step) {
            assert_eq!(
                a.intersects(b),
                intersects_by_definition(a, b),
                "{a:?} vs {b:?}"
            );
            assert_eq!(a.intersects(b), b.intersects(a), "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn branch_free_intersects_keeps_the_definition() {
    intersects_agrees_in::<1>();
    intersects_agrees_in::<2>();
    intersects_agrees_in::<3>();
    let a = Rect::<2>::new([0.0, 0.0], [1.0, 1.0]);
    assert!(a.intersects(&Rect::new([1.0, 1.0], [2.0, 2.0])), "corner");
    assert!(a.intersects(&Rect::point([1.0, 0.5])), "point on a face");
    assert!(
        !a.intersects(&Rect::new([0.0, 1.5], [1.0, 2.0])),
        "one axis"
    );
    let nan = Rect::<2> {
        lo: [0.0, f64::NAN],
        hi: [1.0, 1.0],
    };
    assert!(!a.intersects(&nan) && !nan.intersects(&a) && !nan.intersects(&nan));
}
