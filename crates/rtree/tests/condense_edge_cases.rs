//! Edge cases of tree condensation: deep elimination cascades, root
//! absorption chains, and the orphan-explosion fallback (an orphan whose
//! home level no longer exists after the root shrank).

use dgl_geom::{Rect, Rect2};
use dgl_pager::PageId;
use dgl_rtree::{Entry, Node, ObjectId, Orphan, RTree2, RTreeConfig};

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

#[test]
fn explode_dissolves_a_subtree_into_objects() {
    let (tree, _) = build(4, 60);
    assert!(tree.height() >= 3);
    // Detach a level-1 subtree entry by hand and explode it.
    let root = tree.root();
    let (child_page, child_mbr) = {
        let root_node = tree.peek_node(root);
        // Descend to a level-1 node.
        let mut page = root_node.children().next().expect("root has children");
        loop {
            let n = tree.peek_node(page);
            if n.level == 1 {
                break;
            }
            page = n.children().next().expect("non-leaf has children");
        }
        (page, tree.peek_node(page).mbr().unwrap())
    };
    // Count objects underneath before exploding.
    let objects_under = count_objects(&tree, child_page);
    let pages_before = tree.pages().count();

    // Simulate the orphan (as deferred re-insertion would see it) and
    // explode it. NOTE: the entry is still referenced by its parent in
    // this synthetic setup, so we only check the returned orphan set and
    // page accounting of the explode itself on a detached clone.
    let mut clone = rebuild_clone(&tree);
    let orphan = Orphan {
        entry: Entry::Child {
            mbr: child_mbr,
            child: child_page,
        },
        level: 2,
    };
    // Detach it from the parent first so the clone stays consistent.
    detach(&mut clone, child_page);
    let out = clone.explode(orphan);
    assert_eq!(
        out.len(),
        objects_under,
        "every object surfaces as an orphan"
    );
    assert!(out.iter().all(|o| matches!(o.entry, Entry::Object { .. })));
    assert!(out.iter().all(|o| o.level == 0));
    assert!(
        clone.pages().count() < pages_before,
        "exploded subtree pages are freed"
    );
    let _ = pages_before;
}

fn count_objects(tree: &RTree2, page: PageId) -> usize {
    let mut stack = vec![page];
    let mut n = 0;
    while let Some(p) = stack.pop() {
        let node = tree.peek_node(p);
        for e in &node.entries {
            match e {
                Entry::Child { child, .. } => stack.push(*child),
                Entry::Object { .. } => n += 1,
            }
        }
    }
    n
}

/// A deep copy of `tree` through its one constructor, `edit` applied to
/// every page on the way (test surgery).
fn copy_with(tree: &RTree2, mut edit: impl FnMut(PageId, &mut Node<2>)) -> RTree2 {
    let mut slots = Vec::new();
    for (pid, node) in tree.pages() {
        let mut node = node.clone();
        edit(pid, &mut node);
        slots.resize(pid.0 as usize + 1, None);
        slots[pid.0 as usize] = Some(node);
    }
    RTree2::from_slots(*tree.config(), tree.world(), tree.root(), tree.len(), slots)
}

fn rebuild_clone(tree: &RTree2) -> RTree2 {
    copy_with(tree, |_, _| {})
}

/// Removes the parent entry referencing `child` (synthetic detach for the
/// explosion test). The public mutation surface does not expose raw
/// removal of child entries, so the parent is rewritten in a copy.
fn detach(tree: &mut RTree2, child: PageId) {
    let parent = tree
        .pages()
        .find(|(_, n)| n.children().any(|c| c == child))
        .map(|(pid, _)| pid)
        .expect("child has a parent");
    *tree = copy_with(tree, |pid, node| {
        if pid == parent {
            node.entries.retain(|e| e.child() != Some(child));
        }
    });
}
