//! Functional tests for insert / search / delete / tombstones.

use dgl_geom::{Rect, Rect2};
use dgl_pager::PageId;
use dgl_rtree::{Entry, ObjectId, RTree2, RTreeConfig};

fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
    Rect2::new(lo, hi)
}

fn small_tree(fanout: usize) -> RTree2 {
    RTree2::new(RTreeConfig::with_fanout(fanout), Rect::unit())
}

/// Deterministic pseudo-random rectangles in the unit square.
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
            let x = next() * 0.95;
            let y = next() * 0.95;
            let w = next() * 0.05;
            let h = next() * 0.05;
            r([x, y], [x + w, y + h])
        })
        .collect()
}

#[test]
fn empty_tree_properties() {
    let t = small_tree(4);
    assert!(t.is_empty());
    assert_eq!(t.height(), 1);
    assert!(t.search(&Rect::unit()).is_empty());
    t.validate(true).unwrap();
}

#[test]
fn insert_then_search_finds_object() {
    let mut t = small_tree(4);
    let rect = r([0.1, 0.1], [0.2, 0.2]);
    t.insert(ObjectId(1), rect);
    assert_eq!(t.len(), 1);
    let hits = t.search(&r([0.0, 0.0], [0.15, 0.15]));
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].0, ObjectId(1));
    assert!(t.search(&r([0.5, 0.5], [0.6, 0.6])).is_empty());
    t.validate(true).unwrap();
}

#[test]
fn growth_makes_tree_taller_and_stays_valid() {
    let mut t = small_tree(4);
    let rects = gen_rects(200, 7);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
        if i % 20 == 0 {
            t.validate(true).unwrap();
        }
    }
    t.validate(true).unwrap();
    assert_eq!(t.len(), 200);
    assert!(t.height() >= 3, "200 objects at fanout 4 must stack levels");
}

#[test]
fn root_page_id_is_stable_across_root_splits() {
    let mut t = small_tree(4);
    let root_before = t.root();
    for (i, rect) in gen_rects(100, 3).iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    assert_eq!(t.root(), root_before, "root id must survive root splits");
    assert!(t.height() > 1);
}

#[test]
fn search_matches_linear_oracle() {
    let mut t = small_tree(6);
    let rects = gen_rects(300, 11);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    for query in gen_rects(40, 99) {
        let mut got: Vec<u64> = t.search(&query).into_iter().map(|(o, ..)| o.0).collect();
        got.sort_unstable();
        let mut want: Vec<u64> = rects
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.intersects(&query))
            .map(|(i, _)| i as u64)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "query {query:?}");
    }
}

#[test]
fn delete_removes_and_condenses() {
    let mut t = small_tree(4);
    let rects = gen_rects(150, 5);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    // Delete two thirds.
    for (i, rect) in rects.iter().enumerate() {
        if i % 3 != 0 {
            assert!(t.delete(ObjectId(i as u64), *rect), "delete {i}");
            if i % 17 == 0 {
                t.validate(true).unwrap();
            }
        }
    }
    t.validate(true).unwrap();
    assert_eq!(t.len(), 50);
    // Remaining objects still findable.
    for (i, rect) in rects.iter().enumerate() {
        let found = t.lookup(ObjectId(i as u64), *rect).is_some();
        assert_eq!(found, i % 3 == 0, "object {i}");
    }
}

#[test]
fn delete_everything_leaves_empty_valid_tree() {
    let mut t = small_tree(4);
    let rects = gen_rects(80, 13);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    for (i, rect) in rects.iter().enumerate() {
        assert!(t.delete(ObjectId(i as u64), *rect));
    }
    assert!(t.is_empty());
    assert_eq!(t.height(), 1, "tree must shrink back to a lone leaf");
    t.validate(true).unwrap();
    // The store must not leak pages: only the root remains.
    assert_eq!(t.pages().count(), 1);
}

#[test]
fn delete_absent_object_returns_false() {
    let mut t = small_tree(4);
    t.insert(ObjectId(1), r([0.1, 0.1], [0.2, 0.2]));
    assert!(
        !t.delete(ObjectId(2), r([0.1, 0.1], [0.2, 0.2])),
        "wrong oid"
    );
    assert!(
        !t.delete(ObjectId(1), r([0.3, 0.3], [0.4, 0.4])),
        "wrong rect"
    );
    assert_eq!(t.len(), 1);
}

#[test]
fn tombstone_lifecycle() {
    let mut t = small_tree(4);
    let rect = r([0.1, 0.1], [0.2, 0.2]);
    t.insert(ObjectId(1), rect);
    assert_eq!(t.lookup(ObjectId(1), rect), Some(None));
    assert!(t.set_tombstone(ObjectId(1), rect, 42));
    assert_eq!(t.lookup(ObjectId(1), rect), Some(Some(42)));
    // Same tag re-marks fine; different tag refused.
    assert!(t.set_tombstone(ObjectId(1), rect, 42));
    assert!(!t.set_tombstone(ObjectId(1), rect, 43));
    // Search reports the tombstone for the caller to filter.
    let hits = t.search(&rect);
    assert_eq!(hits[0].2, Some(42));
    assert!(t.clear_tombstone(ObjectId(1), rect));
    assert_eq!(t.lookup(ObjectId(1), rect), Some(None));
    assert!(!t.clear_tombstone(ObjectId(1), rect), "already clear");
}

#[test]
fn leaf_directed_helpers_act_only_on_the_named_leaf() {
    let mut t = small_tree(4);
    let rects = gen_rects(60, 5);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    assert!(t.height() > 2);
    for (i, rect) in rects.iter().enumerate() {
        let oid = ObjectId(i as u64);
        let leaf = t.locate_leaf(oid, *rect).expect("inserted");
        let other = t
            .pages()
            .map(|(pid, _)| pid)
            .find(|&pid| pid != leaf && t.lookup_at(pid, oid).is_none())
            .expect("another page");
        assert_eq!(t.lookup_at(leaf, oid), Some(None));
        assert_eq!(t.lookup_at(other, oid), None);
        // A page that does not hold the object is left alone.
        let v = t.version();
        assert!(!t.set_tombstone_at(other, oid, 9));
        assert!(!t.clear_tombstone_at(other, oid));
        assert!(!t.remove_entry_raw_at(other, oid));
        assert_eq!(t.version(), v, "a miss changes nothing");
        assert!(t.set_tombstone_at(leaf, oid, 9));
        assert_eq!(t.lookup(oid, *rect), Some(Some(9)));
        assert!(t.clear_tombstone_at(leaf, oid));
        if i % 2 == 0 {
            assert!(t.remove_entry_raw_at(leaf, oid));
            assert_eq!(t.lookup(oid, *rect), None);
        }
    }
    assert_eq!(t.len(), 30);
    t.validate(false).unwrap();
}

/// The descent `find_path` replaced — one cloned path per candidate
/// child — and how many pages it visited.
fn find_path_reference(t: &RTree2, oid: ObjectId, rect: Rect2) -> (Option<Vec<PageId>>, u64) {
    let mut stack = vec![vec![t.root()]];
    let mut visited = 0;
    while let Some(path) = stack.pop() {
        visited += 1;
        let node = t.peek_node(*path.last().unwrap());
        if node.is_leaf() {
            if node
                .position_of_object(oid)
                .is_some_and(|i| node.entries[i].mbr() == rect)
            {
                return (Some(path), visited);
            }
            continue;
        }
        for e in &node.entries {
            if let Entry::Child { mbr, child } = e {
                if mbr.contains(&rect) {
                    let mut p = path.clone();
                    p.push(*child);
                    stack.push(p);
                }
            }
        }
    }
    (None, visited)
}

#[test]
fn find_path_returns_what_the_cloning_descent_returned() {
    // Small fanout and overlapping rectangles: many objects have several
    // candidate subtrees, so the search order decides which path is found
    // first and how many pages it reads.
    let mut t = small_tree(3);
    let rects = gen_rects(300, 8);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    let reads = |t: &RTree2| t.io_stats().snapshot().logical_reads;
    for (i, rect) in rects.iter().enumerate() {
        for (oid, rect) in [(ObjectId(i as u64), *rect), (ObjectId(i as u64 + 1), *rect)] {
            let (want, visited) = find_path_reference(&t, oid, rect);
            let before = reads(&t);
            assert_eq!(t.find_path(oid, rect), want, "{oid}");
            assert_eq!(reads(&t) - before, visited, "{oid}: the same pages read");
        }
    }
}

#[test]
fn remove_entry_raw_leaves_loose_but_valid_tree() {
    let mut t = small_tree(4);
    let rects = gen_rects(60, 21);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    // Raw-remove some entries (the rollback path).
    for (i, rect) in rects.iter().enumerate().take(20) {
        assert!(t.remove_entry_raw(ObjectId(i as u64), *rect));
    }
    assert_eq!(t.len(), 40);
    // Non-strict validation passes (loose BRs / underfull nodes allowed);
    // search is still exact.
    t.validate(false).unwrap();
    for query in gen_rects(10, 77) {
        let got: usize = t.search(&query).len();
        let want = rects
            .iter()
            .enumerate()
            .skip(20)
            .filter(|(_, rc)| rc.intersects(&query))
            .count();
        assert_eq!(got, want);
    }
}

#[test]
fn duplicate_rects_are_allowed_distinct_oids() {
    let mut t = small_tree(4);
    let rect = r([0.4, 0.4], [0.5, 0.5]);
    for i in 0..30 {
        t.insert(ObjectId(i), rect);
    }
    t.validate(true).unwrap();
    assert_eq!(t.search(&rect).len(), 30);
    assert!(t.delete(ObjectId(17), rect));
    assert_eq!(t.search(&rect).len(), 29);
    t.validate(true).unwrap();
}

#[test]
fn io_stats_count_insert_traversals() {
    let mut t = small_tree(8);
    let before = t.io_stats().snapshot();
    for (i, rect) in gen_rects(100, 41).iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    let delta = t.io_stats().snapshot().since(&before);
    assert!(delta.logical_reads > 0);
    assert!(delta.writes >= 100, "every insert writes at least its leaf");
}

#[test]
fn version_bumps_on_every_structural_mutation() {
    let mut t = small_tree(4);
    assert_eq!(t.version(), 0);

    let rect = r([0.1, 0.1], [0.2, 0.2]);
    t.insert(ObjectId(1), rect);
    let after_insert = t.version();
    assert!(after_insert > 0, "insert must bump the version");

    // Planning is read-only: it must never bump the version.
    let plan = t.plan_insert(r([0.3, 0.3], [0.4, 0.4]));
    let _ = t.predicted_new_pages(&plan);
    let _ = t.search(&Rect::unit());
    let _ = t.lookup(ObjectId(1), rect);
    assert_eq!(t.version(), after_insert, "read-only calls must not bump");

    // Tombstone flips bump; redundant flips don't.
    assert!(t.set_tombstone(ObjectId(1), rect, 7));
    let after_mark = t.version();
    assert!(after_mark > after_insert, "set_tombstone must bump");
    assert!(t.set_tombstone(ObjectId(1), rect, 7));
    assert_eq!(t.version(), after_mark, "re-marking is a no-op");
    assert!(t.clear_tombstone(ObjectId(1), rect));
    let after_clear = t.version();
    assert!(after_clear > after_mark, "clear_tombstone must bump");
    assert!(!t.clear_tombstone(ObjectId(1), rect));
    assert_eq!(
        t.version(),
        after_clear,
        "clearing a clear entry is a no-op"
    );

    // Physical removal bumps.
    assert!(t.remove_entry_raw(ObjectId(1), rect));
    assert!(t.version() > after_clear, "remove_entry_raw must bump");
}

#[test]
fn version_bumps_through_delete_and_condense() {
    let mut t = small_tree(4);
    let rects = gen_rects(120, 11);
    for (i, rect) in rects.iter().enumerate() {
        t.insert(ObjectId(i as u64), *rect);
    }
    let grown = t.version();
    assert!(grown >= 120, "each insert bumps at least once");

    // Every applied physical delete (including ones that condense the
    // tree) must advance the version.
    let mut last = grown;
    for (i, rect) in rects.iter().enumerate() {
        let plan = t.plan_delete(ObjectId(i as u64), *rect).expect("present");
        let _ = t.apply_delete(&plan);
        assert!(t.version() > last, "apply_delete must bump");
        last = t.version();
    }
    assert!(t.is_empty());
    t.validate(true).unwrap();
}
