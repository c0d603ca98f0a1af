//! A scan walks the tree once: `scan_descent` yields the Table-3 granule
//! set and the leaf hits together, and they are exactly what the two walks
//! it replaced yielded — `overlapping_granules` for the granules,
//! `RTree::search` for the hits — while every overlapped page is read
//! once. The snapshot form (`snapshot_descent`, over the leaf reader the
//! locking form shares) keeps *tree ∪ orphans* a partition at every stage
//! of a condensation.

use dgl_core::granules::{overlapping_granules, scan_descent, snapshot_descent, RawHit};
use dgl_core::Rect2;
use dgl_pager::PageId;
use dgl_rtree::{Entry, ObjectId, RTree2, RTreeConfig};
use proptest::prelude::*;

type Hit = RawHit<2>;

fn by_oid(mut hits: Vec<Hit>) -> Vec<Hit> {
    hits.sort_by_key(|h| h.0);
    hits
}

fn sorted(mut pages: Vec<PageId>) -> Vec<PageId> {
    pages.sort();
    pages
}

fn reads(tree: &RTree2) -> u64 {
    tree.io_stats().snapshot().logical_reads
}

/// The descent against both reference walks, and the read count: the
/// internal pages whose space meets the query plus the leaf granules, each
/// once — what `RTree::search` alone reads.
fn check(tree: &RTree2, query: Rect2) {
    let granules = overlapping_granules(tree, &[query]);
    let r0 = reads(tree);
    let found = tree.search(&query);
    let r1 = reads(tree);
    let (set, hits) = scan_descent(tree, &query);
    let r2 = reads(tree);
    assert_eq!(
        sorted(set.leaves.clone()),
        sorted(granules.leaves),
        "{query:?}"
    );
    assert_eq!(
        sorted(set.externals),
        sorted(granules.externals),
        "{query:?}"
    );
    assert_eq!(by_oid(hits), by_oid(found), "{query:?}");
    let pages_visited = granules.accesses_per_level.iter().sum::<u64>() + set.leaves.len() as u64;
    assert_eq!(r2 - r1, pages_visited, "one read per overlapped page");
    assert_eq!(r2 - r1, r1 - r0, "no more than the bare search reads");
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
        for &(x, y, w, h) in &queries {
            check(&tree, Rect2::new([x, y], [(x + w).min(1.0), (y + h).min(1.0)]));
        }
        // Queries on granule boundaries: sharing only a corner with a leaf
        // BR, and the degenerate box that is that corner.
        for br in leaf_brs(&tree).into_iter().take(8) {
            check(&tree, Rect2::new(br.hi, [br.hi[0] + 0.05, br.hi[1] + 0.05]));
            check(&tree, Rect2::point(br.lo));
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
    for n in [0, 3, 9, 16, 30, 120] {
        let tree = tree_of(3, &grid(n));
        seen.push(tree.height());
        for q in [
            Rect2::unit(),
            Rect2::new([0.1, 0.0], [0.3, 0.2]),
            Rect2::new([0.95, 0.95], [1.0, 1.0]),
        ] {
            check(&tree, q);
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
    let (set, hits) = scan_descent(&tree, &Rect2::new([0.8, 0.8], [0.9, 0.9]));
    assert_eq!((set.leaves, set.externals), (vec![tree.root()], vec![]));
    assert!(hits.is_empty());
    assert_eq!(reads(&tree) - r0, 1);
    check(&tree, Rect2::new([0.0, 0.0], [0.55, 0.55]));
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
    let (set, hits) = scan_descent(&tree, &middle);
    assert!(set.leaves.is_empty() && hits.is_empty());
    assert_eq!(set.externals, vec![tree.root()]);
    assert_eq!(reads(&tree) - r0, 1, "the root, and nothing under it");
    check(&tree, middle);
}

// --- the snapshot form, mid-condensation -----------------------------------

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
                    by_oid(snapshot_descent(&tree, &orphans, &query)),
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
