//! A scan walks the tree once, and finds exactly what the two walks it
//! replaced found — `overlapping_granules` for the Table-3 granules,
//! `RTree::search` for the hits — while every overlapped page is read
//! once:
//! * the `Walk` finds the granules first (`Walk::granules`), reading only
//!   internal pages, then reads each leaf once (`Walk::read_leaves`), its
//!   leaf touch uncounted — every entry `RTree::search` finds, tombstones
//!   included, in leaf order. ReadScan locks between the two steps;
//!   UpdateScan locks after both, since its X locks are on the hits;
//! * on an index, a ReadScan's lock set is those granules and its hits
//!   the untombstoned ones;
//! * the snapshot form (`Walk::snapshot_hits`) keeps *tree ∪ orphans* a
//!   partition at every stage of a condensation.

mod common;

use std::sync::Arc;

use common::{wait_until, within_deadline};
use dgl_core::granules::{overlapping_granules, Walk};
use dgl_core::{DglConfig, DglRTree, Rect2, TransactionalRTree};
use dgl_lockmgr::{LockMode, ResourceId};
use dgl_rtree::{Entry, ObjectId, Orphan, RTree2, RTreeConfig};
use proptest::prelude::*;

/// A leaf entry as `RTree::search` yields it: `(oid, rect, tombstone)`.
type Hit = (ObjectId, Rect2, Option<u64>);

fn by_oid(mut hits: Vec<Hit>) -> Vec<Hit> {
    hits.sort_by_key(|h| h.0);
    hits
}

fn reads(tree: &RTree2) -> u64 {
    tree.io_stats().snapshot().logical_reads
}

/// The scan walk against both reference walks, and the read counts: the
/// internal pages whose space meets the query plus the leaf granules, each
/// once — what `RTree::search` alone reads. `walk` is reused from call to
/// call, as a thread's scratch walk is.
fn check(tree: &RTree2, walk: &mut Walk<2>, query: Rect2) {
    let granules = overlapping_granules(tree, &[query]);
    let r0 = reads(tree);
    let found = tree.search(&query);
    let r1 = reads(tree);
    let leaves = granules.leaves.len() as u64;
    let pages_visited = granules.total_accesses() + leaves;
    assert_eq!(
        r1 - r0,
        pages_visited,
        "a search reads each overlapped page once"
    );

    // The granules in `overlapping_granules`' order, from internal pages
    // only.
    walk.granules(tree, &[query]);
    let r2 = reads(tree);
    assert_eq!(walk.leaves(), &granules.leaves[..], "{query:?}");
    assert_eq!(walk.externals(), &granules.externals[..], "{query:?}");
    assert_eq!(
        r2 - r1,
        pages_visited - leaves,
        "locking needs internal pages only"
    );

    // Every entry the search finds, tombstones included, the leaf touch
    // uncounted: no more than the bare search reads.
    let all = walk.read_leaves(tree, &query, |oid, rect, tombstone| {
        Some((oid, rect, tombstone))
    });
    let r3 = reads(tree);
    assert_eq!(r3 - r2, leaves, "one counted read per leaf");
    assert_eq!(r3 - r1, r1 - r0, "no more than the bare search reads");
    assert_eq!(by_oid(all), by_oid(found.clone()), "{query:?}");

    // The untombstoned ones, as both locking scans keep them.
    let live = walk.read_leaves(tree, &query, |oid, rect, tombstone| {
        tombstone.is_none().then_some((oid, rect, tombstone))
    });
    let mut untombstoned = found;
    untombstoned.retain(|h| h.2.is_none());
    assert_eq!(by_oid(live), by_oid(untombstoned), "{query:?}");
}

fn tree_of(fanout: usize, objects: &[(f64, f64, f64, f64)]) -> RTree2 {
    let mut tree = RTree2::new(RTreeConfig::with_fanout(fanout), Rect2::unit());
    for (i, &(x, y, w, h)) in objects.iter().enumerate() {
        tree.insert(ObjectId(i as u64), Rect2::new([x, y], [x + w, y + h]));
        if i % 3 == 0 {
            // Tombstones travel with the raw hits.
            tree.set_tombstone(ObjectId(i as u64), Rect2::new([x, y], [x + w, y + h]), 7);
        }
    }
    tree
}

/// Every leaf granule's BR, read from its parent's entry.
fn leaf_brs(tree: &RTree2) -> Vec<Rect2> {
    tree.pages()
        .filter(|(_, n)| n.level == 1)
        .flat_map(|(_, n)| n.entries.iter().map(Entry::mbr))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn descent_equals_granule_walk_plus_search(
        fanout in 3..5usize,
        objects in prop::collection::vec(
            (0.0..0.9f64, 0.0..0.9f64, 0.0..0.08f64, 0.0..0.08f64), 0..90),
        queries in prop::collection::vec(
            (0.0..0.9f64, 0.0..0.9f64, 0.0..0.3f64, 0.0..0.3f64), 1..6),
    ) {
        let tree = tree_of(fanout, &objects);
        let mut walk = Walk::default();
        for &(x, y, w, h) in &queries {
            check(&tree, &mut walk, Rect2::new([x, y], [(x + w).min(1.0), (y + h).min(1.0)]));
        }
        // Queries on granule boundaries: sharing only a corner with a leaf
        // BR, and the degenerate box that is that corner.
        for br in leaf_brs(&tree).into_iter().take(8) {
            check(&tree, &mut walk, Rect2::new(br.hi, [br.hi[0] + 0.05, br.hi[1] + 0.05]));
            check(&tree, &mut walk, Rect2::point(br.lo));
        }
    }
}

#[test]
fn heights_one_to_four_are_covered() {
    let grid = |n: usize| -> Vec<(f64, f64, f64, f64)> {
        (0..n)
            .map(|i| (0.05 * (i % 17) as f64, 0.05 * (i / 17) as f64, 0.02, 0.02))
            .collect()
    };
    let mut seen = Vec::new();
    let mut walk = Walk::default();
    for n in [0, 3, 9, 16, 30, 120] {
        let tree = tree_of(3, &grid(n));
        seen.push(tree.height());
        for q in [
            Rect2::unit(),
            Rect2::new([0.1, 0.0], [0.3, 0.2]),
            Rect2::new([0.95, 0.95], [1.0, 1.0]),
        ] {
            check(&tree, &mut walk, q);
        }
    }
    for h in 1..=4 {
        assert!(seen.contains(&h), "no tree of height {h}: {seen:?}");
    }
}

#[test]
fn lone_leaf_root_is_its_own_granule_and_read_once() {
    let tree = tree_of(4, &[(0.1, 0.1, 0.1, 0.1), (0.5, 0.5, 0.1, 0.1)]);
    assert_eq!(tree.height(), 1);
    let r0 = reads(&tree);
    // Far from any data: the root leaf granule covers the whole space.
    let far = Rect2::new([0.8, 0.8], [0.9, 0.9]);
    let mut walk = Walk::default();
    walk.granules(&tree, &[far]);
    assert_eq!(
        (walk.leaves(), walk.externals()),
        (&[tree.root()][..], &[][..])
    );
    let hits = walk.read_leaves(&tree, &far, |oid, _, _| Some(oid));
    assert!(hits.is_empty());
    assert_eq!(reads(&tree) - r0, 1);
    check(&tree, &mut walk, Rect2::new([0.0, 0.0], [0.55, 0.55]));
}

#[test]
fn uncovered_space_is_ext_root_alone() {
    // Two tight corner clusters; the middle belongs to no leaf granule.
    let mut objects = Vec::new();
    for i in 0..6 {
        let o = 0.01 * i as f64;
        objects.push((o, o, 0.01, 0.01));
        objects.push((0.9 + o / 10.0, 0.9, 0.01, 0.01));
    }
    let tree = tree_of(3, &objects);
    assert!(tree.height() > 1);
    let middle = Rect2::new([0.45, 0.45], [0.55, 0.55]);
    let r0 = reads(&tree);
    let mut walk = Walk::default();
    walk.granules(&tree, &[middle]);
    let hits = walk.read_leaves(&tree, &middle, |oid, _, _| Some(oid));
    assert!(walk.leaves().is_empty() && hits.is_empty());
    assert_eq!(walk.externals(), &[tree.root()][..]);
    assert_eq!(reads(&tree) - r0, 1, "the root, and nothing under it");
    check(&tree, &mut walk, middle);
}

// --- the snapshot form, mid-condensation -----------------------------------

/// The snapshot walk's entries and reads, against the walks it replaced: a
/// search from the root, and a counted walk under every index orphan
/// meeting the query.
fn snapshot_check(
    tree: &RTree2,
    walk: &mut Walk<2>,
    orphans: &[Orphan<2>],
    query: &Rect2,
) -> Vec<Hit> {
    let r0 = reads(tree);
    let mut reference = tree.search(query);
    for orphan in orphans {
        if orphan.entry.mbr().intersects(query) {
            match orphan.entry {
                Entry::Object {
                    mbr,
                    oid,
                    tombstone,
                } => reference.push((oid, mbr, tombstone)),
                Entry::Child { child, .. } => {
                    let mut stack = vec![child];
                    while let Some(pid) = stack.pop() {
                        for e in &tree.node(pid).entries {
                            match *e {
                                Entry::Child { mbr, child } if mbr.intersects(query) => {
                                    stack.push(child)
                                }
                                Entry::Object {
                                    mbr,
                                    oid,
                                    tombstone,
                                } if mbr.intersects(query) => reference.push((oid, mbr, tombstone)),
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    let r1 = reads(tree);
    let hits = walk.snapshot_hits(tree, orphans, query, |oid, rect, tombstone| {
        (oid, rect, tombstone)
    });
    assert_eq!(reads(tree) - r1, r1 - r0, "the pages a search reads");
    let hits = by_oid(hits);
    assert_eq!(hits, by_oid(reference), "{query:?}");
    hits
}

/// PR 20's fixture (fanout 4 at minimum fill 2, a 7-column grid of 40):
/// for every victim, after the session that removes and condenses and
/// after every re-insertion session, *tree ∪ orphans* holds each surviving
/// object exactly once — for the world and for a window.
#[test]
fn tree_and_orphans_stay_a_partition_through_condensation() {
    let rect_of = |i: u64| {
        let (x, y) = (0.02 + 0.06 * (i % 7) as f64, 0.02 + 0.06 * (i / 7) as f64);
        Rect2::new([x, y], [x + 0.01, y + 0.01])
    };
    let window = Rect2::new([0.0, 0.0], [0.2, 0.3]);
    let (mut object_orphans, mut index_orphans) = (0, 0);
    let mut walk = Walk::default();
    for victim in 0..40u64 {
        let mut tree = RTree2::new(
            RTreeConfig::with_fanout(4).with_min_entries(2),
            Rect2::unit(),
        );
        for i in 0..40 {
            tree.insert(ObjectId(i), rect_of(i));
        }
        let survivors = |query: &Rect2| -> Vec<Hit> {
            (0..40)
                .filter(|i| *i != victim && rect_of(*i).intersects(query))
                .map(|i| (ObjectId(i), rect_of(i), None))
                .collect()
        };
        let plan = tree
            .plan_delete(ObjectId(victim), rect_of(victim))
            .expect("victim is in the tree");
        let mut orphans = tree.apply_delete(&plan).orphans;
        orphans.sort_by_key(|o| o.level);
        loop {
            for query in [Rect2::unit(), window] {
                assert_eq!(
                    snapshot_check(&tree, &mut walk, &orphans, &query),
                    survivors(&query),
                    "victim {victim}, {} orphans out, {query:?}",
                    orphans.len()
                );
            }
            // Highest level first, as the system operation re-inserts.
            let Some(orphan) = orphans.pop() else { break };
            match orphan.entry {
                Entry::Object { .. } => object_orphans += 1,
                Entry::Child { .. } => index_orphans += 1,
            }
            tree.reinsert_orphan(orphan);
        }
        tree.validate(true).expect("invariants");
    }
    assert!(
        object_orphans > 0 && index_orphans > 0,
        "the grid must orphan both kinds: {object_orphans} objects, {index_orphans} subtrees"
    );
}

// --- the locking scan on an index -------------------------------------------

fn index_of(fanout: usize, objects: &[(f64, f64, f64, f64)]) -> DglRTree {
    let db = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(fanout),
        ..DglConfig::default()
    });
    let t = db.begin();
    for (i, &(x, y, w, h)) in objects.iter().enumerate() {
        db.insert(t, ObjectId(i as u64), Rect2::new([x, y], [x + w, y + h]))
            .unwrap();
    }
    db.commit(t).unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_scan` locks exactly the granules `overlapping_granules`
    /// finds, returns `RTree::search`'s entries minus the tombstoned ones
    /// (here the scanner's own deletes), and reads each overlapped page
    /// once — the leaf touch is not a read.
    #[test]
    fn read_scan_locks_the_granules_and_returns_the_live_hits(
        fanout in 3..6usize,
        objects in prop::collection::vec(
            (0.0..0.9f64, 0.0..0.9f64, 0.0..0.08f64, 0.0..0.08f64), 0..90),
        queries in prop::collection::vec(
            (0.0..0.9f64, 0.0..0.9f64, 0.0..0.3f64, 0.0..0.3f64), 1..5),
    ) {
        let db = index_of(fanout, &objects);
        let t = db.begin();
        for (i, &(x, y, w, h)) in objects.iter().enumerate().step_by(3) {
            let rect = Rect2::new([x, y], [x + w, y + h]);
            prop_assert_eq!(db.delete(t, ObjectId(i as u64), rect), Ok(true));
        }
        let lm = db.lock_manager();
        for &(x, y, w, h) in &queries {
            let query = Rect2::new([x, y], [(x + w).min(1.0), (y + h).min(1.0)]);
            let (set, mut expected) = db.with_tree(|tree| {
                (overlapping_granules(tree, &[query]), tree.search(&query))
            });
            expected.retain(|h| h.2.is_none());
            let r0 = db.with_tree(reads);
            let hits = db.read_scan(t, query).unwrap();
            let read = db.with_tree(reads) - r0;
            prop_assert_eq!(read, set.total_accesses() + set.leaves.len() as u64);
            let got: Vec<Hit> = hits.iter().map(|h| (h.oid, h.rect, None)).collect();
            prop_assert_eq!(by_oid(got), by_oid(expected));
            for g in set.leaves.iter().chain(&set.externals) {
                let held = lm.held(t, ResourceId::Page(*g));
                prop_assert!(
                    held.is_some_and(|m| m.covers(LockMode::S)),
                    "granule {} held {:?}", g, held
                );
            }
        }
        db.commit(t).unwrap();
    }
}

/// The scan locks before it reads any leaf: one blocked on a leaf granule
/// an uncommitted insert holds IX on waits without having read, and once
/// the inserter commits it returns the committed object with the rest.
#[test]
fn a_scan_blocked_by_an_insert_returns_its_object_after_the_commit() {
    let grid: Vec<_> = (0..40)
        .map(|i| {
            (
                0.02 + 0.06 * (i % 7) as f64,
                0.02 + 0.06 * (i / 7) as f64,
                0.01,
                0.01,
            )
        })
        .collect();
    let db = Arc::new(index_of(4, &grid));
    // A leaf granule with room inside its BR: the insert neither grows nor
    // splits it, so its only granule lock is commit IX on that leaf.
    let (leaf, br) = db.with_tree(|tree| {
        tree.pages()
            .filter(|(_, n)| n.is_leaf() && n.entries.len() < 4)
            .filter_map(|(p, n)| Some((p, n.mbr()?)))
            .find(|(_, br)| br.area() > 0.0)
            .expect("a non-full leaf with a non-degenerate BR")
    });
    let centre = [(br.lo[0] + br.hi[0]) / 2.0, (br.lo[1] + br.hi[1]) / 2.0];
    let object = Rect2::new(centre, centre);
    let inserter = db.begin();
    db.insert(inserter, ObjectId(1000), object).unwrap();
    assert_eq!(
        db.lock_manager().held(inserter, ResourceId::Page(leaf)),
        Some(LockMode::IX)
    );
    let dump = {
        let db = Arc::clone(&db);
        move || db.merged_locktable_dump()
    };
    let db2 = Arc::clone(&db);
    let hits = within_deadline(dump, move || {
        let scanner = std::thread::spawn({
            let db = Arc::clone(&db2);
            move || {
                let t = db.begin();
                let hits = db.read_scan(t, br).unwrap();
                db.commit(t).unwrap();
                hits
            }
        });
        wait_until(|| db2.lock_manager().waiter_count() == 1);
        db2.commit(inserter).unwrap();
        scanner.join().unwrap()
    });
    let mut expected: Vec<u64> =
        db.with_tree(|tree| tree.search(&br).into_iter().map(|h| h.0 .0).collect());
    expected.sort_unstable();
    assert!(expected.contains(&1000));
    assert_eq!(common::ids(&hits), expected);
}
