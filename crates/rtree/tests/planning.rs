//! Planning exactness: `plan_insert` / `plan_delete` must predict exactly
//! what `apply_insert` / `apply_delete` do — the protocol acquires locks
//! from the plan and must never discover new lock-relevant facts during
//! application.

use dgl_geom::{Rect, Rect2};
use dgl_rtree::{Entry, ObjectId, RTree2, RTreeConfig};

fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
    Rect2::new(lo, hi)
}

fn obj(oid: u64, rect: Rect2) -> Entry<2> {
    Entry::Object {
        mbr: rect,
        oid: ObjectId(oid),
        tombstone: None,
    }
}

fn gen_rects(n: usize, seed: u64) -> Vec<Rect2> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let x = next() * 0.9;
            let y = next() * 0.9;
            let w = next() * 0.08;
            let h = next() * 0.08;
            r([x, y], [x + w, y + h])
        })
        .collect()
}

#[test]
fn plan_predicts_growth_exactly() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    t.insert(ObjectId(0), r([0.1, 0.1], [0.3, 0.3]));
    // Insert inside the leaf BR: no growth.
    let plan = t.plan_insert(r([0.15, 0.15], [0.2, 0.2]));
    assert!(!plan.grows);
    assert!(plan.growth.is_empty());
    assert!(plan.changed_ext.is_empty());
    assert!(!plan.changes_granules());
    // Insert outside: growth with the exact delta region.
    let plan = t.plan_insert(r([0.3, 0.1], [0.5, 0.3]));
    assert!(plan.grows);
    assert!(plan.changes_granules());
    let area: f64 = plan.growth.iter().map(Rect2::area).sum();
    let expect = r([0.1, 0.1], [0.5, 0.3]).area() - r([0.1, 0.1], [0.3, 0.3]).area();
    assert!((area - expect).abs() < 1e-12);
}

#[test]
fn plan_predicts_split_cascade() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    // Fill the root leaf exactly.
    for i in 0..4 {
        let o = i as f64 * 0.1;
        t.insert(ObjectId(i), r([o, o], [o + 0.05, o + 0.05]));
    }
    let plan = t.plan_insert(r([0.9, 0.9], [0.95, 0.95]));
    assert_eq!(plan.split_pages, vec![t.root()]);
    assert!(plan.root_will_split);
    let result = t.apply_insert(&plan, obj(99, plan.rect));
    assert!(
        result.root_split.is_some(),
        "apply must agree with the plan"
    );
    t.validate(true).unwrap();
}

#[test]
fn plan_and_apply_agree_over_bulk_load() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(5), Rect::unit());
    for (i, rect) in gen_rects(400, 17).iter().enumerate() {
        let plan = t.plan_insert(*rect);
        let result = t.apply_insert(&plan, obj(i as u64, *rect));

        // Split prediction must be exact: same pages, bottom-up.
        let applied_splits: Vec<_> = result.splits.iter().map(|s| s.old_page).collect();
        if plan.root_will_split {
            assert!(result.root_split.is_some(), "insert {i}: root split missed");
        } else {
            assert!(
                result.root_split.is_none(),
                "insert {i}: surprise root split"
            );
            assert_eq!(
                applied_splits, plan.split_pages,
                "insert {i}: split pages disagree"
            );
        }
        // The entry must live where the plan said, unless a split moved it
        // (in which case home must be the split sibling or the target).
        if plan.split_pages.is_empty() {
            assert_eq!(result.home, plan.target, "insert {i}");
        } else {
            let sibling = result
                .splits
                .first()
                .map(|s| s.new_page)
                .expect("leaf split recorded");
            assert!(
                result.home == plan.target
                    || result.home == sibling
                    || result.splits.first().map(|s| s.old_page) == Some(result.home),
                "insert {i}: home {:?} not among split outputs",
                result.home
            );
        }
        if i % 37 == 0 {
            t.validate(true).unwrap();
        }
    }
    t.validate(true).unwrap();
}

#[test]
fn plan_growth_region_covers_exactly_the_new_space() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(8), Rect::unit());
    for (i, rect) in gen_rects(100, 23).iter().enumerate() {
        let plan = t.plan_insert(*rect);
        if plan.grows {
            if let Some(old) = plan.old_target_mbr {
                for piece in &plan.growth {
                    assert!(plan.new_target_mbr.contains(piece));
                    assert_eq!(piece.overlap_area(&old), 0.0);
                }
            }
        } else {
            assert!(plan
                .old_target_mbr
                .expect("non-growing insert has a target MBR")
                .contains(rect));
        }
        t.apply_insert(&plan, obj(i as u64, *rect));
    }
}

#[test]
fn changed_ext_is_suffix_closed_along_path() {
    // Ancestors whose ext granule changes must be exactly the parents of
    // grown-or-split path nodes; growth is monotone down the path.
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    for (i, rect) in gen_rects(300, 29).iter().enumerate() {
        let plan = t.plan_insert(*rect);
        for pid in &plan.changed_ext {
            assert!(
                plan.path.contains(pid),
                "changed ext {pid:?} not on the path"
            );
            assert_ne!(*pid, plan.target, "target is not its own ancestor");
        }
        // If nothing grows and nothing splits, no ext granule changes.
        if !plan.changes_granules() {
            assert!(plan.changed_ext.is_empty());
        }
        t.apply_insert(&plan, obj(i as u64, *rect));
    }
}

#[test]
fn delete_plan_predicts_eliminations() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    let rects = gen_rects(120, 31);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    for (i, rect) in rects.iter().enumerate() {
        let plan = t.plan_delete(ObjectId(i as u64), *rect).expect("present");
        assert_eq!(plan.oid, ObjectId(i as u64));
        let result = t.apply_delete(&plan);
        // Every page the plan said would die, died; and vice versa.
        let mut predicted = plan.eliminated.clone();
        let mut actual = result.eliminated.clone();
        predicted.sort();
        actual.sort();
        assert_eq!(predicted, actual, "delete {i}: elimination prediction");
        assert_eq!(
            plan.leaf_eliminated,
            result.eliminated.contains(&plan.leaf) || plan.eliminated.contains(&plan.leaf),
            "delete {i}: leaf elimination prediction"
        );
        t.reinsert_orphans(result.orphans);
        if i % 13 == 0 {
            t.validate(true).unwrap();
        }
    }
    assert!(t.is_empty());
    t.validate(true).unwrap();
}

#[test]
fn delete_plan_for_absent_object_is_none() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    t.insert(ObjectId(1), r([0.1, 0.1], [0.2, 0.2]));
    assert!(t
        .plan_delete(ObjectId(2), r([0.1, 0.1], [0.2, 0.2]))
        .is_none());
    assert!(t
        .plan_delete(ObjectId(1), r([0.5, 0.5], [0.6, 0.6]))
        .is_none());
}

#[test]
fn delete_plan_at_a_leaf_not_holding_the_object_is_none() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    let rects = gen_rects(60, 41);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    let leaf = t.locate_leaf(ObjectId(0), rects[0]).unwrap();
    assert!(t.plan_delete_at(leaf, ObjectId(0), rects[0]).is_some());
    // Wrong rectangle, an internal page, a leaf holding other objects.
    assert!(t
        .plan_delete_at(leaf, ObjectId(0), r([0.5, 0.5], [0.6, 0.6]))
        .is_none());
    assert!(t.plan_delete_at(t.root(), ObjectId(0), rects[0]).is_none());
    let other = t
        .pages()
        .find(|(pid, n)| n.is_leaf() && *pid != leaf)
        .map(|(pid, _)| pid)
        .unwrap();
    assert!(t.plan_delete_at(other, ObjectId(0), rects[0]).is_none());
}

#[test]
fn plan_insert_at_level_places_orphan_entries() {
    let mut t = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
    for (i, rect) in gen_rects(100, 37).iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    assert!(t.height() >= 3);
    // Plan an insert at level 1: the path must stop one level above leaves.
    let probe = r([0.4, 0.4], [0.45, 0.45]);
    let plan = t.plan_insert_at(probe, 1);
    assert_eq!(t.peek_node(plan.target).level, 1);
    assert_eq!(plan.path.len() as u32, t.height() - 1);
}
