//! Granule overlap computation (§3.1 of the paper), and the scan walks
//! built on it.
//!
//! Given a query region (one or more boxes — the modified insertion policy
//! queries the multi-box *growth region*), find every granule it overlaps:
//!
//! * **leaf granules** — leaf pages whose BR intersects the region. Leaf
//!   BRs are read from their parents' entries, so the traversal never
//!   touches leaf pages themselves (the paper: "an inserter never needs to
//!   access the lowest level index nodes for acquiring the short duration
//!   locks").
//! * **external granules** — non-leaf pages `T` where part of the region
//!   lies inside `T.space` but outside every child: exactly
//!   `!covers(q ∩ T.space, children)`.
//!
//! A lone-leaf root is the degenerate case: its granule is defined to
//! cover the entire embedded space (there are no non-leaf nodes to carry
//! external granules), so every query overlaps it.
//!
//! [`overlapping_granules`] counts page accesses per tree level — the
//! measurement underlying the paper's Table 2.
//!
//! A scan needs the objects under those granules too. The leaf granules
//! *are* the leaves a region search would open, so a [`Walk`] finds them
//! over the internal levels first, and the caller locks before any leaf is
//! read ([`Walk::granules`], then [`Walk::read_leaves`], under one latch
//! hold). Reading the leaves starts with one uncounted load per leaf —
//! independent of each other, so their cache misses overlap instead of
//! queueing — and then reads each leaf once, building the caller's hits
//! straight into the one vector it returns. The walk's own buffers (the
//! DFS stack, the ext(T) pieces, the leaf and external lists) are kept
//! per thread (`with_walk`), so a scan allocates its result and nothing
//! else. UpdateScan runs the same walk but reads its leaves before it
//! locks, since its X locks are on the hits. A snapshot scan
//! ([`Walk::snapshot_hits`]) runs the same recipe without the ext(T)
//! test, over the tree and the in-flight orphans.

use std::cell::Cell;

use dgl_geom::{coverage::Pieces, Rect};
use dgl_pager::PageId;
use dgl_rtree::{Entry, ObjectId, Orphan, RTree};

/// The granules a region overlaps, plus traversal accounting.
#[derive(Debug, Clone, Default)]
pub struct OverlapSet {
    /// Leaf granules (leaf page ids) intersecting the region.
    pub leaves: Vec<PageId>,
    /// External granules (non-leaf page ids) whose external region
    /// intersects the query.
    pub externals: Vec<PageId>,
    /// Pages accessed at each level, indexed by level (0 = leaf level).
    /// Leaf-level accesses are always 0 by construction.
    pub accesses_per_level: Vec<u64>,
}

impl OverlapSet {
    /// Total pages accessed by the traversal.
    pub fn total_accesses(&self) -> u64 {
        self.accesses_per_level.iter().sum()
    }
}

/// Computes every granule overlapping any of `queries`.
///
/// Page reads are counted against the tree's I/O stats (this traversal is
/// the extra I/O the paper's §3.4 measures).
pub fn overlapping_granules<const D: usize>(tree: &RTree<D>, queries: &[Rect<D>]) -> OverlapSet {
    let mut accesses_per_level = vec![0; tree.height() as usize];
    let mut walk = Walk::default();
    walk.granule_walk(tree, queries, |level| {
        accesses_per_level[level as usize] += 1;
    });
    OverlapSet {
        leaves: walk.leaves,
        externals: walk.externals,
        accesses_per_level,
    }
}

/// The buffers of a tree walk, and the leaf and external granules the
/// last walk found. Kept from one walk to the next — per thread, for the
/// protocol's scans and write-path granule queries — so that a walk
/// allocates only while its buffers are still growing.
#[derive(Debug, Default)]
pub struct Walk<const D: usize> {
    /// Internal pages still to open, each with its rectangle (its space,
    /// for the ext(T) test).
    stack: Vec<(PageId, Rect<D>)>,
    /// The rectangles of the children some query meets, one node at a time.
    met: Vec<Rect<D>>,
    pieces: Pieces<D>,
    leaves: Vec<PageId>,
    externals: Vec<PageId>,
}

thread_local! {
    /// This thread's walk over the protocol's two-dimensional trees.
    static WALK: Cell<Walk<2>> = Cell::new(Walk::default());
}

/// Runs `f` with this thread's [`Walk`], whose buffers outlive the call.
/// The walk is lent out, not borrowed: a nested call gets a fresh one,
/// and a panic in `f` only costs the buffers.
pub(crate) fn with_walk<T>(f: impl FnOnce(&mut Walk<2>) -> T) -> T {
    let mut walk = WALK.take();
    let out = f(&mut walk);
    WALK.set(walk);
    out
}

impl<const D: usize> Walk<D> {
    /// The leaf granules the last walk found, in the order it found them.
    pub fn leaves(&self) -> &[PageId] {
        &self.leaves
    }

    /// The external granules the last [`Self::granules`] found.
    pub fn externals(&self) -> &[PageId] {
        &self.externals
    }

    /// The granules `queries` overlap — [`overlapping_granules`]' sets, in
    /// its order, without the per-level counts. Reads the internal pages
    /// whose space meets a query, each once, and no leaf.
    pub fn granules(&mut self, tree: &RTree<D>, queries: &[Rect<D>]) {
        self.granule_walk(tree, queries, |_| {});
    }

    /// The granule walk, calling `visit` with the level of every page it
    /// reads.
    fn granule_walk(&mut self, tree: &RTree<D>, queries: &[Rect<D>], mut visit: impl FnMut(u32)) {
        self.leaves.clear();
        self.externals.clear();
        if queries.is_empty() {
            return;
        }
        let root = tree.root();
        if tree.height() == 1 {
            // Degenerate tree: the root leaf granule covers the whole space.
            self.leaves.push(root);
            return;
        }
        // DFS over internal nodes carrying each node's space (the root's
        // space is the whole embedded world, per the paper's ext(root)
        // definition).
        self.stack.push((root, tree.world()));
        while let Some((pid, space)) = self.stack.pop() {
            let node = tree.node(pid);
            visit(node.level);
            // One pass over the entries selects the children to descend
            // into and keeps their rectangles for the ext(T) test below.
            self.met.clear();
            for e in &node.entries {
                if let Entry::Child { mbr, child } = e {
                    if queries.iter().any(|q| q.intersects(mbr)) {
                        self.met.push(*mbr);
                        if node.level == 1 {
                            self.leaves.push(*child);
                        } else {
                            self.stack.push((*child, *mbr));
                        }
                    }
                }
            }
            // External granule: any part of any query inside this node's
            // space but outside all children. Only the met children take
            // part: a child no query meets is disjoint from every
            // `q ∩ T.space`, so it can neither contain nor cover any of it.
            let ext_overlap = queries.iter().any(|q| {
                q.intersection(&space)
                    .is_some_and(|clipped| !self.pieces.covers(&clipped, self.met.iter().copied()))
            });
            if ext_overlap {
                self.externals.push(pid);
            }
        }
    }

    /// Appends the leaf pages under the live page `start` whose rectangles
    /// meet `query` — a region search's descent, with no ext(T) test.
    /// Reads the internal pages it opens; a leaf `start` is not read here.
    fn leaves_under(&mut self, tree: &RTree<D>, start: PageId, query: &Rect<D>) {
        if tree.peek_node(start).is_leaf() {
            self.leaves.push(start);
            return;
        }
        self.stack.push((start, tree.world()));
        while let Some((pid, _)) = self.stack.pop() {
            let node = tree.node(pid);
            for e in &node.entries {
                if let Entry::Child { mbr, child } = e {
                    if mbr.intersects(query) {
                        if node.level == 1 {
                            self.leaves.push(*child);
                        } else {
                            self.stack.push((*child, *mbr));
                        }
                    }
                }
            }
        }
    }

    /// Reads the leaves the last walk found, each once, and collects
    /// `keep(oid, rect, tombstone)` of every entry meeting `query` where it
    /// is `Some` — in leaf order, into one vector sized up front for every
    /// entry on those leaves, so it never regrows.
    ///
    /// First one uncounted load of each leaf's first entry: the loads
    /// depend on nothing but the leaf list, so their cache misses overlap,
    /// and the counted reads that follow find the leaves in cache.
    pub fn read_leaves<T>(
        &self,
        tree: &RTree<D>,
        query: &Rect<D>,
        mut keep: impl FnMut(ObjectId, Rect<D>, Option<u64>) -> Option<T>,
    ) -> Vec<T> {
        let mut bound = 0;
        for leaf in &self.leaves {
            let entries = &tree.peek_node(*leaf).entries;
            bound += entries.len();
            std::hint::black_box(entries.first().map(Entry::mbr));
        }
        let mut out = Vec::with_capacity(bound);
        for leaf in &self.leaves {
            tree.leaf_hits(*leaf, query, |oid, rect, tombstone| {
                if let Some(hit) = keep(oid, rect, tombstone) {
                    out.push(hit);
                }
            });
        }
        out
    }

    /// A snapshot scan's entries, as `make(oid, rect, tombstone)`: the
    /// tree's from its root plus those a deferred deletion holds out of it
    /// right now — an index orphan by descending its still-live subtree,
    /// an object orphan by its rectangle. The leaves of both are found
    /// first and read together ([`Self::read_leaves`]); no granule is
    /// computed, since a snapshot scan locks none.
    pub fn snapshot_hits<T>(
        &mut self,
        tree: &RTree<D>,
        orphans: &[Orphan<D>],
        query: &Rect<D>,
        mut make: impl FnMut(ObjectId, Rect<D>, Option<u64>) -> T,
    ) -> Vec<T> {
        self.leaves.clear();
        self.leaves_under(tree, tree.root(), query);
        for orphan in orphans {
            if let Entry::Child { mbr, child } = orphan.entry {
                if mbr.intersects(query) {
                    self.leaves_under(tree, child, query);
                }
            }
        }
        let mut hits = self.read_leaves(tree, query, |oid, rect, tombstone| {
            Some(make(oid, rect, tombstone))
        });
        for orphan in orphans {
            if let Entry::Object {
                mbr,
                oid,
                tombstone,
            } = orphan.entry
            {
                if mbr.intersects(query) {
                    hits.push(make(oid, mbr, tombstone));
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_geom::Rect2;
    use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
    use proptest::prelude::*;

    fn r(lo: [f64; 2], hi: [f64; 2]) -> Rect2 {
        Rect2::new(lo, hi)
    }

    /// The walk before its fused pass, kept as the reference: per internal
    /// node, the ext(T) test over *all* children, then child selection.
    fn three_pass_granules<const D: usize>(tree: &RTree<D>, queries: &[Rect<D>]) -> OverlapSet {
        let mut out = OverlapSet {
            accesses_per_level: vec![0; tree.height() as usize],
            ..OverlapSet::default()
        };
        if queries.is_empty() {
            return out;
        }
        let root = tree.root();
        if tree.height() == 1 {
            out.leaves.push(root);
            return out;
        }
        let mut stack: Vec<(PageId, Rect<D>)> = vec![(root, tree.world())];
        let mut pieces = Pieces::default();
        while let Some((pid, space)) = stack.pop() {
            let node = tree.node(pid);
            out.accesses_per_level[node.level as usize] += 1;
            let ext_overlap = queries.iter().any(|q| {
                q.intersection(&space).is_some_and(|clipped| {
                    !pieces.covers(&clipped, node.entries.iter().map(Entry::mbr))
                })
            });
            if ext_overlap {
                out.externals.push(pid);
            }
            for e in &node.entries {
                if let Entry::Child { mbr, child } = e {
                    if queries.iter().any(|q| q.intersects(mbr)) {
                        if node.level == 1 {
                            out.leaves.push(*child);
                        } else {
                            stack.push((*child, *mbr));
                        }
                    }
                }
            }
        }
        out
    }

    /// A box anywhere in `[0, 1.2)²`: some reach past the world, some are
    /// points or segments.
    fn arb_box() -> impl Strategy<Value = Rect2> {
        (0.0..1.2f64, 0.0..1.2f64, 0.0..0.3f64, 0.0..0.3f64, 0..4u8).prop_map(
            |(x, y, w, h, shape)| {
                let (w, h) = match shape {
                    0 => (0.0, 0.0),
                    1 => (w, 0.0),
                    _ => (w, h),
                };
                r([x, y], [x + w, y + h])
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_fused_walk_equals_the_three_pass_walk(
            fanout in prop::sample::select(vec![3usize, 4, 12, 50]),
            per_slot in 1..40usize,
            clustered in prop::bool::ANY,
            seed in any::<u64>(),
            queries in prop::collection::vec(prop::collection::vec(arb_box(), 1..4), 1..24),
        ) {
            // A tree of up to 40 × fanout objects; clustered data leaves
            // wide gaps between children (external granules), and every
            // fifth object is deleted again (condensed, loosened BRs).
            let mut tree = RTree2::new(RTreeConfig::with_fanout(fanout), Rect::unit());
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut rects = Vec::new();
            for i in 0..(per_slot * fanout) as u64 {
                let (x, y) = if clustered {
                    let corner = if next() < 0.5 { 0.05 } else { 0.7 };
                    (corner + next() * 0.2, corner + next() * 0.2)
                } else {
                    (next() * 0.95, next() * 0.95)
                };
                let rect = r([x, y], [x + next() * 0.05, y + next() * 0.05]);
                tree.insert(ObjectId(i), rect);
                rects.push(rect);
            }
            for (i, rect) in rects.iter().enumerate().step_by(5) {
                prop_assert!(tree.delete(ObjectId(i as u64), *rect));
            }
            for boxes in &queries {
                let fused = overlapping_granules(&tree, boxes);
                let reference = three_pass_granules(&tree, boxes);
                prop_assert_eq!(&fused.leaves, &reference.leaves, "leaves for {:?}", boxes);
                prop_assert_eq!(&fused.externals, &reference.externals, "externals for {:?}", boxes);
                prop_assert_eq!(
                    &fused.accesses_per_level,
                    &reference.accesses_per_level,
                    "accesses for {:?}",
                    boxes
                );
            }
        }
    }

    #[test]
    fn lone_leaf_root_covers_everything() {
        let tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        let set = overlapping_granules(&tree, &[r([0.9, 0.9], [1.0, 1.0])]);
        assert_eq!(set.leaves, vec![tree.root()]);
        assert!(set.externals.is_empty());
        // Even a query far from any data overlaps the root granule.
        let mut t2 = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        t2.insert(ObjectId(1), r([0.1, 0.1], [0.2, 0.2]));
        let set = overlapping_granules(&t2, &[r([0.8, 0.8], [0.9, 0.9])]);
        assert_eq!(set.leaves, vec![t2.root()]);
    }

    #[test]
    fn query_in_uncovered_space_hits_ext_root_only() {
        // Two tight clusters produce leaves far from (0.9, 0.1); a query
        // there overlaps only the root's external granule.
        let mut tree = RTree2::new(RTreeConfig::with_fanout(3), Rect::unit());
        for i in 0..6 {
            let o = 0.01 * i as f64;
            tree.insert(ObjectId(i), r([o, o], [o + 0.01, o + 0.01]));
            tree.insert(
                ObjectId(100 + i),
                r([0.8 + o / 10.0, 0.8], [0.81 + o / 10.0, 0.81]),
            );
        }
        assert!(tree.height() > 1);
        let probe = r([0.9, 0.05], [0.95, 0.1]);
        // Verify the probe is genuinely outside every leaf BR first.
        let set = overlapping_granules(&tree, &[probe]);
        if set.leaves.is_empty() {
            assert!(
                set.externals.contains(&tree.root()),
                "uncovered query must at least overlap ext(root)"
            );
        }
        // Either way the query must overlap at least one granule: the
        // granules cover the embedded space.
        assert!(
            !set.leaves.is_empty() || !set.externals.is_empty(),
            "granules must cover the space"
        );
    }

    #[test]
    fn covering_invariant_random_queries() {
        // For any query inside the world, the overlap set is never empty —
        // leaf granules plus external granules cover the whole space
        // (the paper's covering requirement for phantom protection).
        let mut tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        let mut state = 41u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..200 {
            let x = next() * 0.9;
            let y = next() * 0.9;
            tree.insert(ObjectId(i), r([x, y], [x + 0.02, y + 0.02]));
        }
        for _ in 0..100 {
            let x = next() * 0.98;
            let y = next() * 0.98;
            let q = r([x, y], [x + 0.02, y + 0.02]);
            let set = overlapping_granules(&tree, &[q]);
            assert!(
                !set.leaves.is_empty() || !set.externals.is_empty(),
                "query {q:?} overlaps no granule — coverage hole"
            );
        }
    }

    #[test]
    fn leaf_pages_are_never_accessed() {
        let mut tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        for i in 0..100 {
            let o = (i as f64) / 120.0;
            tree.insert(ObjectId(i), r([o, o], [o + 0.01, o + 0.01]));
        }
        let set = overlapping_granules(&tree, &[Rect::unit()]);
        assert_eq!(
            set.accesses_per_level[0], 0,
            "the paper: inserters never access lowest-level index nodes"
        );
        assert!(set.total_accesses() > 0);
        // A full-space query overlaps every leaf granule.
        let leaf_count = tree.pages().filter(|(_, n)| n.is_leaf()).count();
        assert_eq!(set.leaves.len(), leaf_count);
    }

    #[test]
    fn multi_box_queries_union_their_overlaps() {
        let mut tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        for i in 0..50 {
            let o = (i as f64) / 60.0;
            tree.insert(ObjectId(i), r([o, o], [o + 0.01, o + 0.01]));
        }
        let a = r([0.0, 0.0], [0.1, 0.1]);
        let b = r([0.7, 0.7], [0.8, 0.8]);
        let both = overlapping_granules(&tree, &[a, b]);
        let only_a = overlapping_granules(&tree, &[a]);
        let only_b = overlapping_granules(&tree, &[b]);
        for leaf in only_a.leaves.iter().chain(&only_b.leaves) {
            assert!(both.leaves.contains(leaf));
        }
        for ext in only_a.externals.iter().chain(&only_b.externals) {
            assert!(both.externals.contains(ext));
        }
    }

    #[test]
    fn empty_query_list_is_empty() {
        let tree = RTree2::new(RTreeConfig::with_fanout(4), Rect::unit());
        let set = overlapping_granules::<2>(&tree, &[]);
        assert!(set.leaves.is_empty() && set.externals.is_empty());
        assert_eq!(set.total_accesses(), 0);
    }
}
