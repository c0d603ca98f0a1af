use dgl_geom::Rect;
use dgl_pager::{IoStats, PageId, Store};

use crate::config::RTreeConfig;
use crate::node::{Entry, Node, ObjectId};
use crate::plan::{DeletePlan, InsertPlan};
use crate::split::split_entries;

/// One node split performed by an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitRecord {
    /// Level of the node that split.
    pub level: u32,
    /// The page that split; it keeps one half of the entries (and its page
    /// id, so locks held on it keep naming a live granule).
    pub old_page: PageId,
    /// Freshly allocated page holding the other half.
    pub new_page: PageId,
}

/// What an applied insert actually did.
#[derive(Debug, Clone)]
pub struct InsertResult {
    /// The node in which the entry finally lives (after any split).
    pub home: PageId,
    /// Node splits performed, bottom-up. For a root split this contains a
    /// record whose `old_page` is a fresh page holding half of the old
    /// root's entries — see `root_split`.
    pub splits: Vec<SplitRecord>,
    /// If the root split: `(half_a, half_b)`, the two fresh pages now
    /// holding the old root's entries. The root page id itself is stable —
    /// it becomes their parent — so `ext(root)` remains a valid lock
    /// resource.
    pub root_split: Option<(PageId, PageId)>,
}

/// An entry displaced by node elimination during tree condensation,
/// awaiting re-insertion at its home level.
#[derive(Debug, Clone)]
pub struct Orphan<const D: usize> {
    /// The displaced entry (object or subtree pointer).
    pub entry: Entry<D>,
    /// Level of the node it must re-enter (0 = leaf level).
    pub level: u32,
}

/// What an applied delete actually did.
#[derive(Debug, Clone)]
pub struct DeleteResult<const D: usize> {
    /// Entries displaced by node elimination; the caller must re-insert
    /// them (the locking protocol treats each re-insertion as its own
    /// sub-operation with Table 3's re-insertion locks).
    pub orphans: Vec<Orphan<D>>,
    /// Pages freed by elimination / root absorption.
    pub eliminated: Vec<PageId>,
    /// Whether the tree lost at least one level.
    pub root_shrank: bool,
}

/// A Guttman R-tree over a paged store.
///
/// Single-writer semantics: the struct itself is not synchronized. The
/// protocol layer wraps it in a tree latch (physical consistency), exactly
/// mirroring the paper's separation between latching and transactional
/// granular locks.
///
/// ```
/// use dgl_geom::{Rect, Rect2};
/// use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
///
/// let mut tree = RTree2::new(RTreeConfig::with_fanout(8), Rect::unit());
/// tree.insert(ObjectId(1), Rect2::new([0.1, 0.1], [0.2, 0.2]));
/// tree.insert(ObjectId(2), Rect2::new([0.6, 0.6], [0.7, 0.7]));
/// let hits = tree.search(&Rect2::new([0.0, 0.0], [0.5, 0.5]));
/// assert_eq!(hits.len(), 1);
/// assert!(tree.delete(ObjectId(1), Rect2::new([0.1, 0.1], [0.2, 0.2])));
/// tree.validate(true).unwrap();
/// ```
#[derive(Debug)]
pub struct RTree<const D: usize> {
    store: Store<Node<D>>,
    root: PageId,
    world: Rect<D>,
    config: RTreeConfig,
    object_count: usize,
    version: u64,
}

/// The 2-D instantiation used throughout the paper reproduction.
pub type RTree2 = RTree<2>;

impl<const D: usize> RTree<D> {
    /// Creates an empty tree over the embedded space `world`.
    ///
    /// `world` is the space `S` in the paper's definition of the root's
    /// external granule `ext(root) = S − ⋃ children`.
    pub fn new(config: RTreeConfig, world: Rect<D>) -> Self {
        let mut store = Store::new();
        let root = store.alloc(Node::new(0));
        Self {
            store,
            root,
            world,
            config,
            object_count: 0,
            version: 0,
        }
    }

    /// Assembles a tree from its page space: slot `i` becomes page `i` and
    /// `None` slots go on the free list, so page ids — the protocol's lock
    /// resource ids — are exactly the caller's. The one constructor behind
    /// [`crate::image::decode`], and the one test surgery uses.
    ///
    /// # Panics
    /// Panics if `root` is not a live slot.
    pub fn from_slots(
        config: RTreeConfig,
        world: Rect<D>,
        root: PageId,
        object_count: usize,
        slots: Vec<Option<Node<D>>>,
    ) -> Self {
        let store = Store::from_slots(slots);
        assert!(store.is_live(root), "root {root} is not a live page");
        Self {
            store,
            root,
            world,
            config,
            object_count,
            version: 0,
        }
    }

    /// The underlying page store (the tree image).
    pub(crate) fn store_ref(&self) -> &Store<Node<D>> {
        &self.store
    }

    /// Monotone structure-version counter: bumped by every mutation that
    /// could invalidate a previously computed [`InsertPlan`]/[`DeletePlan`]
    /// or a [`RTree::predicted_new_pages`] prediction — applied inserts and
    /// deletes, tombstone changes and raw entry removal.
    ///
    /// The optimistic latch-coupling protocol plans under a *shared* tree
    /// latch, records this version, then revalidates it under the exclusive
    /// latch before applying: an unchanged version proves the tree (and the
    /// page allocator free list, which only apply-side mutations touch) is
    /// byte-identical to what the plan saw, so the plan — including its
    /// predicted split-sibling page ids — is still exact.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Forces every in-flight optimistic plan stale (bumps the structure
    /// version without any mutation). Used by unwind paths: when a panic
    /// tears through an exclusive-latch holder, plans computed against
    /// the pre-panic tree must revalidate rather than apply blind.
    pub fn invalidate_plans(&mut self) {
        self.bump_version();
    }

    /// Records a plan-invalidating mutation (see [`RTree::version`]).
    fn bump_version(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// The root page id (stable for the lifetime of the tree).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// The page ids that applying `plan` will allocate, in allocation
    /// order: one sibling per splitting page (bottom-up), plus the page
    /// receiving the old root's first half if the root splits. Exact as
    /// long as plan and apply run under the same latch hold.
    pub fn predicted_new_pages(&self, plan: &InsertPlan<D>) -> Vec<PageId> {
        let n = plan.split_pages.len() + usize::from(plan.root_will_split);
        self.store.peek_next_ids(n)
    }

    /// The embedded space.
    pub fn world(&self) -> Rect<D> {
        self.world
    }

    /// Tree shape parameters.
    pub fn config(&self) -> &RTreeConfig {
        &self.config
    }

    /// Number of levels (a lone leaf root is height 1).
    pub fn height(&self) -> u32 {
        self.peek_node(self.root).level + 1
    }

    /// Number of object entries, including tombstoned ones.
    pub fn len(&self) -> usize {
        self.object_count
    }

    /// Whether the tree holds no objects.
    pub fn is_empty(&self) -> bool {
        self.object_count == 0
    }

    /// I/O accounting of the underlying store.
    pub fn io_stats(&self) -> &IoStats {
        self.store.stats()
    }

    /// Reads a node, counting the access (use for anything that models a
    /// real page access).
    pub fn node(&self, id: PageId) -> &Node<D> {
        self.store.read(id)
    }

    /// Reads a node without counting (bookkeeping re-reads).
    pub fn peek_node(&self, id: PageId) -> &Node<D> {
        self.store.peek(id)
    }

    /// Whether `id` names a live page.
    pub fn is_live(&self, id: PageId) -> bool {
        self.store.is_live(id)
    }

    /// Iterates over all live `(page, node)` pairs (validation, stats).
    pub fn pages(&self) -> impl Iterator<Item = (PageId, &Node<D>)> {
        self.store.iter()
    }

    // --- path selection -----------------------------------------------

    /// Guttman's ChooseLeaf generalized to any target level: descend by
    /// least enlargement (ties: least area, then lowest page id for
    /// determinism). A zero-enlargement (covering) child is naturally
    /// preferred, matching the paper's cover-for-insert policy.
    ///
    /// Reads along the path are counted (they are the insert's I/O).
    pub fn choose_path(&self, rect: Rect<D>, level: u32) -> Vec<PageId> {
        let mut path = vec![self.root];
        let mut current = self.root;
        loop {
            let node = self.node(current);
            assert!(
                node.level >= level,
                "target level {level} above root level {}",
                node.level
            );
            if node.level == level {
                return path;
            }
            let mut best: Option<(f64, f64, PageId)> = None;
            for e in &node.entries {
                let (mbr, child) = match e {
                    Entry::Child { mbr, child } => (*mbr, *child),
                    Entry::Object { .. } => unreachable!("internal node holds child entries"),
                };
                let enlargement = mbr.enlargement(&rect);
                let area = mbr.area();
                let cand = (enlargement, area, child);
                let better = match &best {
                    None => true,
                    Some((be, ba, bc)) => (enlargement, area, child.0) < (*be, *ba, bc.0),
                };
                if better {
                    best = Some(cand);
                }
            }
            current = best.expect("internal nodes are never empty").2;
            path.push(current);
        }
    }

    /// Finds the path (root..leaf) to the leaf holding `(oid, rect)`.
    ///
    /// Descends only subtrees whose MBR contains `rect` (an object's leaf
    /// BR always contains it); reads are counted.
    pub fn find_path(&self, oid: ObjectId, rect: Rect<D>) -> Option<Vec<PageId>> {
        // Depth-first over `(page, depth)`; `path` is the root..page prefix
        // of whatever was popped last, cut back on every backtrack.
        let mut stack = vec![(self.root, 0)];
        let mut path = Vec::new();
        while let Some((pid, depth)) = stack.pop() {
            path.truncate(depth);
            path.push(pid);
            let node = self.node(pid);
            if node.is_leaf() {
                if node
                    .position_of_object(oid)
                    .is_some_and(|i| node.entries[i].mbr() == rect)
                {
                    return Some(path);
                }
                continue;
            }
            for e in &node.entries {
                if let Entry::Child { mbr, child } = e {
                    if mbr.contains(&rect) {
                        stack.push((*child, depth + 1));
                    }
                }
            }
        }
        None
    }

    // --- search ---------------------------------------------------------

    /// Region search: every object entry whose rectangle intersects
    /// `query`, as `(oid, mbr, tombstone)` — visibility filtering is the
    /// caller's (protocol's) business. Reads are counted.
    pub fn search(&self, query: &Rect<D>) -> Vec<(ObjectId, Rect<D>, Option<u64>)> {
        // One leaf's worth up front: a scan of a few dozen hits never
        // regrows its result.
        let mut out = Vec::with_capacity(self.config.max_entries);
        let mut stack = Vec::new();
        let mut next = Some(self.root);
        while let Some(pid) = next {
            let node = self.node(pid);
            if !node.is_leaf() {
                // Room for every child before the first push.
                stack.reserve(node.entries.len());
            }
            for e in &node.entries {
                match e {
                    Entry::Child { mbr, child } => {
                        if mbr.intersects(query) {
                            stack.push(*child);
                        }
                    }
                    Entry::Object {
                        mbr,
                        oid,
                        tombstone,
                    } => {
                        if mbr.intersects(query) {
                            out.push((*oid, *mbr, *tombstone));
                        }
                    }
                }
            }
            next = stack.pop();
        }
        out
    }

    /// The object entries of the leaf page `leaf` that intersect `query`,
    /// each handed to `hit` as `(oid, mbr, tombstone)` — one counted read
    /// of one page, for a walk that found its leaves itself.
    pub fn leaf_hits(
        &self,
        leaf: PageId,
        query: &Rect<D>,
        mut hit: impl FnMut(ObjectId, Rect<D>, Option<u64>),
    ) {
        for e in &self.node(leaf).entries {
            if let Entry::Object {
                mbr,
                oid,
                tombstone,
            } = e
            {
                if mbr.intersects(query) {
                    hit(*oid, *mbr, *tombstone);
                }
            }
        }
    }

    /// Exact lookup of `(oid, rect)`: returns the tombstone state if
    /// present.
    pub fn lookup(&self, oid: ObjectId, rect: Rect<D>) -> Option<Option<u64>> {
        self.lookup_at(self.locate_leaf(oid, rect)?, oid)
    }

    /// [`RTree::lookup`] on page `leaf`, with no descent: the tombstone
    /// state of the entry for `oid` if `leaf` is a live page holding it.
    /// For a caller that already knows the page, so the read is not
    /// counted as a page access.
    pub fn lookup_at(&self, leaf: PageId, oid: ObjectId) -> Option<Option<u64>> {
        if !self.store.is_live(leaf) {
            return None;
        }
        self.peek_node(leaf).entries.iter().find_map(|e| match *e {
            Entry::Object {
                oid: o, tombstone, ..
            } if o == oid => Some(tombstone),
            _ => None,
        })
    }

    /// The leaf page holding `(oid, rect)`, found by root descent when the
    /// leaf is reachable, else by scanning every live page.
    ///
    /// The fallback matters while a system operation (deferred physical
    /// deletion, §3.7) has eliminated an internal node and holds its child
    /// subtrees as orphans: pages inside an orphaned subtree are live but
    /// temporarily unreachable from the root. An entry covered by a
    /// commit-duration lock never leaves its leaf page during that window
    /// (leaf elimination and leaf splits take SIX, which
    /// conflicts with the holder's IX), so the store scan always finds it.
    pub fn locate_leaf(&self, oid: ObjectId, rect: Rect<D>) -> Option<PageId> {
        if let Some(path) = self.find_path(oid, rect) {
            return path.last().copied();
        }
        self.store.iter().find_map(|(pid, node)| {
            (node.is_leaf()
                && node
                    .position_of_object(oid)
                    .is_some_and(|i| node.entries[i].mbr() == rect))
            .then_some(pid)
        })
    }

    /// Every object in the tree (test oracle; uncounted reads).
    pub fn all_objects(&self) -> Vec<(ObjectId, Rect<D>, Option<u64>)> {
        let mut out = Vec::new();
        for (_, node) in self.store.iter() {
            for e in &node.entries {
                if let Entry::Object {
                    mbr,
                    oid,
                    tombstone,
                } = e
                {
                    out.push((*oid, *mbr, *tombstone));
                }
            }
        }
        out.sort_by_key(|(oid, ..)| *oid);
        out
    }

    // --- tombstones (logical deletion) -----------------------------------

    /// Marks `(oid, rect)` as logically deleted by `tag`. Returns false if
    /// the object is absent or already tombstoned by another tag.
    pub fn set_tombstone(&mut self, oid: ObjectId, rect: Rect<D>, tag: u64) -> bool {
        self.locate_leaf(oid, rect)
            .is_some_and(|leaf| self.set_tombstone_at(leaf, oid, tag))
    }

    /// [`RTree::set_tombstone`] on the entry for `oid` on page `leaf`,
    /// with no descent. Returns false if `leaf` does not hold `oid`.
    pub fn set_tombstone_at(&mut self, leaf: PageId, oid: ObjectId, tag: u64) -> bool {
        let Some(tombstone) = self.tombstone_mut(leaf, oid) else {
            return false;
        };
        match *tombstone {
            // Re-marking by the same tag succeeds but changes nothing,
            // so it must not bump the structure version.
            Some(t) => t == tag,
            None => {
                *tombstone = Some(tag);
                self.bump_version();
                true
            }
        }
    }

    /// Clears a tombstone (rollback of a logical delete). Returns whether
    /// a tombstone was cleared.
    pub fn clear_tombstone(&mut self, oid: ObjectId, rect: Rect<D>) -> bool {
        self.locate_leaf(oid, rect)
            .is_some_and(|leaf| self.clear_tombstone_at(leaf, oid))
    }

    /// [`RTree::clear_tombstone`] on the entry for `oid` on page `leaf`,
    /// with no descent.
    pub fn clear_tombstone_at(&mut self, leaf: PageId, oid: ObjectId) -> bool {
        let had = self
            .tombstone_mut(leaf, oid)
            .is_some_and(|t| t.take().is_some());
        if had {
            self.bump_version();
        }
        had
    }

    /// The tombstone of the entry for `oid` on page `leaf`, writable (the
    /// page access counts as a read and a write).
    fn tombstone_mut(&mut self, leaf: PageId, oid: ObjectId) -> Option<&mut Option<u64>> {
        if !self.store.is_live(leaf) {
            return None;
        }
        self.store
            .read_mut(leaf)
            .entries
            .iter_mut()
            .find_map(|e| match e {
                Entry::Object {
                    oid: o, tombstone, ..
                } if *o == oid => Some(tombstone),
                _ => None,
            })
    }

    // --- insert -----------------------------------------------------------

    /// Plans and applies an object insert (single-user convenience; the
    /// protocol calls [`RTree::plan_insert`] / [`RTree::apply_insert`]
    /// separately so it can lock in between).
    pub fn insert(&mut self, oid: ObjectId, rect: Rect<D>) -> InsertResult {
        let plan = self.plan_insert(rect);
        self.apply_insert(
            &plan,
            Entry::Object {
                mbr: rect,
                oid,
                tombstone: None,
            },
        )
    }

    /// Applies a planned insert. The plan must have been produced against
    /// the current tree state (same latch hold).
    pub fn apply_insert(&mut self, plan: &InsertPlan<D>, entry: Entry<D>) -> InsertResult {
        debug_assert_eq!(entry.mbr(), plan.rect, "entry must match the plan");
        self.bump_version();
        if entry.oid().is_some() {
            self.object_count += 1;
        }
        let entry_key = EntryKey::of(&entry);
        let path = &plan.path;
        let target = plan.target;

        // 1. Place the entry.
        self.store.read_mut(target).entries.push(entry);

        // 2. Split cascade + BR adjustment, bottom-up.
        let mut result = InsertResult {
            home: target,
            splits: Vec::new(),
            root_split: None,
        };
        let mut level_page = target; // page at the current level of the walk
        let mut pending_new: Option<(PageId, Rect<D>)> = None; // sibling to add to the parent

        // Split the target if overflowing.
        if self.peek_node(target).entries.len() > self.config.max_entries {
            let (new_page, home_of_key) = self.split_page(target, &entry_key);
            if let Some(h) = home_of_key {
                result.home = h;
            }
            let level = self.peek_node(target).level;
            result.splits.push(SplitRecord {
                level,
                old_page: target,
                new_page,
            });
            pending_new = Some((new_page, self.peek_node(new_page).mbr().expect("non-empty")));
        }
        // Updated MBR of the page at the current walk level.
        let mut level_mbrs = Some((
            self.peek_node(target)
                .mbr()
                .expect("non-empty after insert"),
            level_page,
        ));

        // Walk ancestors bottom-up.
        for i in (0..path.len().saturating_sub(1)).rev() {
            let parent = path[i];
            let child = path[i + 1];
            debug_assert_eq!(level_page, child);
            // Update the child's entry MBR.
            {
                let (child_mbr, _) = level_mbrs.expect("set below target");
                let pnode = self.store.read_mut(parent);
                let idx = pnode
                    .position_of_child(child)
                    .expect("path is parent-linked");
                if let Entry::Child { mbr, .. } = &mut pnode.entries[idx] {
                    *mbr = child_mbr;
                }
            }
            // Add the split sibling, if any.
            if let Some((new_page, new_mbr)) = pending_new.take() {
                let pnode = self.store.read_mut(parent);
                pnode.entries.push(Entry::Child {
                    mbr: new_mbr,
                    child: new_page,
                });
            }
            // Split the parent if it overflowed.
            if self.peek_node(parent).entries.len() > self.config.max_entries {
                let (new_page, _) = self.split_page(parent, &EntryKey::None);
                let level = self.peek_node(parent).level;
                result.splits.push(SplitRecord {
                    level,
                    old_page: parent,
                    new_page,
                });
                pending_new = Some((new_page, self.peek_node(new_page).mbr().expect("non-empty")));
            }
            level_page = parent;
            level_mbrs = Some((self.peek_node(parent).mbr().expect("non-empty"), parent));
        }

        // 3. Root split: move both halves to fresh pages, keep the root id.
        if pending_new.is_some() && level_page == self.root {
            let (new_page, new_mbr) = pending_new.take().expect("checked");
            let root_node = std::mem::replace(
                self.store.read_mut(self.root),
                Node::new(0), // placeholder; fixed below
            );
            let old_level = root_node.level;
            let half_a_mbr = root_node.mbr().expect("non-empty");
            let half_a = self.store.alloc(root_node);
            let new_root = Node {
                level: old_level + 1,
                entries: vec![
                    Entry::Child {
                        mbr: half_a_mbr,
                        child: half_a,
                    },
                    Entry::Child {
                        mbr: new_mbr,
                        child: new_page,
                    },
                ],
            };
            *self.store.read_mut(self.root) = new_root;
            result.root_split = Some((half_a, new_page));
            // If the entry's home was the root page itself, it moved.
            if result.home == self.root {
                result.home = half_a;
            }
            // Fix up the split record that named the root as old_page.
            if let Some(last) = result.splits.last_mut() {
                if last.old_page == self.root {
                    last.old_page = half_a;
                }
            }
        }
        debug_assert!(pending_new.is_none(), "split sibling must find a parent");
        result
    }

    /// Splits `page` in place: keeps group A on `page`, allocates a fresh
    /// page for group B. Returns the new page and, if `key` matched an
    /// entry, which page that entry ended up in.
    fn split_page(&mut self, page: PageId, key: &EntryKey) -> (PageId, Option<PageId>) {
        let level = self.peek_node(page).level;
        let entries = std::mem::take(&mut self.store.read_mut(page).entries);
        let groups = split_entries(entries, self.config.min_entries);
        let in_a = groups.a.iter().any(|e| key.matches(e));
        let in_b = groups.b.iter().any(|e| key.matches(e));
        self.store.read_mut(page).entries = groups.a;
        let new_page = self.store.alloc(Node {
            level,
            entries: groups.b,
        });
        let home = if in_a {
            Some(page)
        } else if in_b {
            Some(new_page)
        } else {
            None
        };
        (new_page, home)
    }

    // --- delete -----------------------------------------------------------

    /// Plans, applies, and re-inserts orphans (single-user convenience).
    /// Returns false if the object was absent.
    pub fn delete(&mut self, oid: ObjectId, rect: Rect<D>) -> bool {
        let Some(plan) = self.plan_delete(oid, rect) else {
            return false;
        };
        let result = self.apply_delete(&plan);
        self.reinsert_orphans(result.orphans);
        true
    }

    /// Re-inserts orphans from a delete, highest level first (single-user
    /// convenience; the protocol drives each orphan itself to interleave
    /// lock acquisition).
    pub fn reinsert_orphans(&mut self, mut orphans: Vec<Orphan<D>>) {
        orphans.sort_by_key(|o| std::cmp::Reverse(o.level));
        for orphan in orphans {
            self.reinsert_orphan(orphan);
        }
    }

    /// Re-inserts one orphan at its home level, which still exists
    /// ([`RTree::plan_insert_at`]).
    pub fn reinsert_orphan(&mut self, orphan: Orphan<D>) {
        let plan = self.plan_insert_at(orphan.entry.mbr(), orphan.level);
        self.apply_reinsert(&plan, orphan.entry);
    }

    /// Applies a planned insert of a *re-inserted* entry: identical to
    /// [`RTree::apply_insert`] except that object entries do not bump the
    /// object count (they were counted at their original insert and node
    /// elimination never decremented them).
    pub fn apply_reinsert(&mut self, plan: &InsertPlan<D>, entry: Entry<D>) -> InsertResult {
        if entry.oid().is_some() {
            self.object_count -= 1;
        }
        self.apply_insert(plan, entry)
    }

    /// Applies a planned physical delete: removes the entry, condenses the
    /// tree (collecting orphans), adjusts ancestor BRs, shrinks the root.
    pub fn apply_delete(&mut self, plan: &DeletePlan<D>) -> DeleteResult<D> {
        self.bump_version();
        let mut orphans = Vec::new();
        let mut eliminated = Vec::new();
        let path = &plan.path;
        let leaf = plan.leaf;

        // Remove the object from its leaf.
        {
            let node = self.store.read_mut(leaf);
            let idx = node
                .position_of_object(plan.oid)
                .expect("plan found the object under the same latch hold");
            node.entries.remove(idx);
        }
        self.object_count -= 1;

        // Condense bottom-up.
        let min = self.config.min_entries;
        let mut child_eliminated = {
            let node = self.peek_node(leaf);
            let is_root = path.len() == 1;
            if !is_root && node.entries.len() < min {
                let dead = self.store.dealloc(leaf);
                eliminated.push(leaf);
                orphans.extend(dead.entries.into_iter().map(|entry| Orphan {
                    entry,
                    level: dead.level,
                }));
                true
            } else {
                false
            }
        };

        for i in (0..path.len().saturating_sub(1)).rev() {
            let parent = path[i];
            let child = path[i + 1];
            let is_root = i == 0;
            {
                let pnode = self.store.read_mut(parent);
                let idx = pnode
                    .position_of_child(child)
                    .expect("path is parent-linked");
                if child_eliminated {
                    pnode.entries.remove(idx);
                } else {
                    // Refresh the child's MBR (it may have shrunk).
                    let fresh = self.peek_node(child).mbr().expect("live child non-empty");
                    let pnode = self.store.read_mut(parent);
                    if let Entry::Child { mbr, .. } = &mut pnode.entries[idx] {
                        *mbr = fresh;
                    }
                }
            }
            child_eliminated = {
                let node = self.peek_node(parent);
                if !is_root && node.entries.len() < min {
                    let dead = self.store.dealloc(parent);
                    eliminated.push(parent);
                    orphans.extend(dead.entries.into_iter().map(|entry| Orphan {
                        entry,
                        level: dead.level,
                    }));
                    true
                } else {
                    false
                }
            };
            debug_assert!(!(is_root && child_eliminated), "root is never eliminated");
        }

        // Root shrink: absorb single children; an empty internal root (all
        // children eliminated is impossible — only the path child dies) or
        // an empty leaf root just stays.
        let mut root_shrank = false;
        loop {
            let root_node = self.peek_node(self.root);
            if root_node.is_leaf() || root_node.entries.len() != 1 {
                break;
            }
            let only_child = root_node.children().next().expect("single child");
            let child_node = self.store.dealloc(only_child);
            eliminated.push(only_child);
            *self.store.read_mut(self.root) = child_node;
            root_shrank = true;
        }

        DeleteResult {
            orphans,
            eliminated,
            root_shrank,
        }
    }

    /// Removes `(oid, rect)` without BR adjustment or condensation —
    /// the rollback path for an aborted insert. Leaves BRs possibly
    /// non-minimal (valid, just loose) so that no other transaction's
    /// granule coverage changes. Returns whether the entry was found.
    pub fn remove_entry_raw(&mut self, oid: ObjectId, rect: Rect<D>) -> bool {
        self.locate_leaf(oid, rect)
            .is_some_and(|leaf| self.remove_entry_raw_at(leaf, oid))
    }

    /// [`RTree::remove_entry_raw`] of the entry for `oid` on page `leaf`,
    /// with no descent.
    pub fn remove_entry_raw_at(&mut self, leaf: PageId, oid: ObjectId) -> bool {
        if !self.store.is_live(leaf) {
            return false;
        }
        let node = self.store.read_mut(leaf);
        let Some(idx) = node.position_of_object(oid) else {
            return false;
        };
        node.entries.remove(idx);
        self.object_count -= 1;
        self.bump_version();
        true
    }
}

/// Identity key for tracking where an entry lands after a split.
enum EntryKey {
    None,
    Object(ObjectId),
    Child(PageId),
}

impl EntryKey {
    fn of<const D: usize>(e: &Entry<D>) -> Self {
        match e {
            Entry::Object { oid, .. } => EntryKey::Object(*oid),
            Entry::Child { child, .. } => EntryKey::Child(*child),
        }
    }

    fn matches<const D: usize>(&self, e: &Entry<D>) -> bool {
        match (self, e) {
            (EntryKey::Object(k), Entry::Object { oid, .. }) => k == oid,
            (EntryKey::Child(k), Entry::Child { child, .. }) => k == child,
            _ => false,
        }
    }
}
