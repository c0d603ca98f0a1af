//! Edge cases of tree condensation: deep elimination cascades and root
//! absorption chains.

use dgl_geom::{Rect, Rect2};
use dgl_rtree::{ObjectId, RTree2, RTreeConfig};

fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
    Rect2::new(lo, hi)
}

/// Builds a tree of the given fanout holding `n` clustered objects and
/// returns their rects.
fn build(fanout: usize, n: u64) -> (RTree2, Vec<Rect2>) {
    let mut tree = RTree2::new(RTreeConfig::with_fanout(fanout), Rect::unit());
    let mut rects = Vec::new();
    for i in 0..n {
        // Two clusters + a sprinkle, to get non-trivial structure.
        let rect = match i % 3 {
            0 => {
                let o = 0.002 * i as f64;
                r([0.1 + o, 0.1 + o], [0.11 + o, 0.11 + o])
            }
            1 => {
                let o = 0.002 * i as f64;
                r([0.7 + o / 2.0, 0.7], [0.71 + o / 2.0, 0.71])
            }
            _ => {
                let o = 0.004 * i as f64;
                r([0.4, 0.1 + o], [0.41, 0.11 + o])
            }
        };
        tree.insert(ObjectId(i), rect);
        rects.push(rect);
    }
    (tree, rects)
}

#[test]
fn deleting_down_to_one_object_collapses_all_levels() {
    let (mut tree, rects) = build(3, 120);
    assert!(
        tree.height() >= 4,
        "need a deep tree, got {}",
        tree.height()
    );
    for i in 0..119u64 {
        assert!(tree.delete(ObjectId(i), rects[i as usize]), "delete {i}");
        tree.validate(true)
            .unwrap_or_else(|e| panic!("after delete {i}: {e}"));
    }
    assert_eq!(tree.len(), 1);
    assert_eq!(tree.height(), 1, "single object lives in a leaf root");
    assert_eq!(tree.pages().count(), 1);
}

#[test]
fn alternating_insert_delete_thrash_at_min_fill_boundary() {
    // Repeatedly push a node just over/under the underflow boundary.
    let mut tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    let base: Vec<Rect2> = (0..8)
        .map(|i| {
            let o = 0.05 * f64::from(i);
            r([0.1 + o, 0.1], [0.12 + o, 0.12])
        })
        .collect();
    for (i, rect) in base.iter().enumerate() {
        tree.insert(ObjectId(i as u64), *rect);
    }
    for round in 0..50u64 {
        let oid = ObjectId(1000 + round);
        let rect = r([0.3, 0.3], [0.32, 0.32]);
        tree.insert(oid, rect);
        assert!(tree.delete(oid, rect));
        tree.validate(true)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
    assert_eq!(tree.len(), 8);
}
