//! The payload table (`DglCore::payloads`), which doubles as the
//! exact-match hash index (ROADMAP item 4, the Griffin-style hybrid): each
//! entry carries the object's leaf page hint and rectangle next to its
//! version chain, maintained write-through under the commit-duration
//! object X lock. Point reads
//! (`read_single_op`, `Snapshot::read_single`) and the insert dup-probe
//! answer from the index in O(1) without traversing the tree — phantom
//! protection is unaffected because exact-match access locks the object
//! resource itself, exactly as the tree path would. Delete, update and
//! their rollback do their tree work at the leaf the slot's hint names
//! ([`DglCore::locate_entry`]), descending only when the hint is stale.

use dgl_geom::Rect2;
use dgl_obs::Ctr;
use dgl_pager::PageId;
use dgl_rtree::{ObjectId, RTree2};

use super::mvcc::VersionChain;
use super::DglCore;

/// One entry of the payload table / hash index: everything exact-match
/// access needs without touching the tree.
///
/// `leaf` is a *hint*: it is updated by the structural paths that move
/// entries (splits, condensation re-inserts) under the exclusive latch,
/// but readers verify it against the tree before trusting it — a stale
/// hint after an unanticipated move degrades to the traversal fallback,
/// never to a wrong answer. `rect` and `chain` are authoritative: they
/// are only ever written under the commit-duration object X lock.
///
/// 64 bytes, one cache line (pinned by a unit test in `mvcc.rs`): a scan
/// reads one slot per hit, and a wider slot costs a second line per hit.
#[derive(Debug)]
pub(crate) struct PayloadSlot {
    /// Leaf page currently believed to hold the object's entry.
    pub leaf: PageId,
    /// The object's bounding rectangle (the exact-match key check).
    pub rect: Rect2,
    /// MVCC version chain; the head is what the locking paths read/bump.
    pub chain: VersionChain,
}

impl DglCore {
    /// Refreshes the leaf hints of every object on leaf page `pid`.
    /// Caller holds the exclusive latch (entries cannot move underneath).
    pub(crate) fn reindex_leaf(&self, tree: &RTree2, pid: PageId) {
        let node = tree.peek_node(pid);
        debug_assert!(node.is_leaf(), "reindex_leaf given a non-leaf page");
        for e in &node.entries {
            if let dgl_rtree::Entry::Object { oid, .. } = e {
                self.payloads.update(oid, |slot| slot.leaf = pid);
            }
        }
    }

    /// Refreshes leaf hints after an insert/re-insert whose apply split
    /// leaf pages: entries may have moved between each level-0 split's
    /// `old_page` and `new_page` (a root split at leaf level shows up
    /// here too — its record names the two fresh halves). Caller holds
    /// the exclusive latch.
    pub(crate) fn reindex_splits(&self, tree: &RTree2, result: &dgl_rtree::InsertResult) {
        for s in result.splits.iter().filter(|s| s.level == 0) {
            self.reindex_leaf(tree, s.old_page);
            self.reindex_leaf(tree, s.new_page);
        }
    }

    /// The leaf holding `(oid, rect)` and the entry's tombstone state there
    /// — the first and only tree access of a delete, an update or their
    /// rollback. Answers from the slot's leaf hint after verifying it
    /// against the tree, so the common case reads one page instead of
    /// descending from the root. A stale hint degrades to a `locate_leaf`
    /// descent and is repaired; an absent slot is a definitive miss (the
    /// table is the authority on liveness — entries are published and
    /// retired under the same latches/locks as the tree entry). Caller
    /// holds a tree latch.
    pub(crate) fn locate_entry(
        &self,
        tree: &RTree2,
        oid: ObjectId,
        rect: Rect2,
    ) -> Option<(PageId, Option<u64>)> {
        match self.payloads.get(&oid, |s| (s.leaf, s.rect)) {
            None => {
                debug_assert_eq!(
                    tree.locate_leaf(oid, rect),
                    None,
                    "object {oid} absent from the hash index but present in the tree"
                );
                self.obs.incr(Ctr::HashHits);
                None
            }
            Some((_, slot_rect)) if slot_rect != rect => {
                // The object exists with a different rectangle; the
                // exact (oid, rect) pair cannot be in the tree.
                debug_assert_eq!(
                    tree.locate_leaf(oid, rect),
                    None,
                    "hash-index rect mismatch for {oid} but tree has the queried rect"
                );
                self.obs.incr(Ctr::HashHits);
                None
            }
            Some((hint, _)) => {
                // The rects agree, so an entry for `oid` on the hinted page
                // is the object's entry.
                if let Some(tombstone) = tree.lookup_at(hint, oid) {
                    self.obs.incr(Ctr::HashHits);
                    return Some((hint, tombstone));
                }
                // Stale hint (the entry moved without a reindex): fall
                // back and repair it. Not
                // `find_path`, because the entry may sit in a subtree a
                // system operation holds disconnected mid-condense; it is
                // still present and its leaf granule is still the right
                // lock target.
                self.obs.incr(Ctr::HashMisses);
                let leaf = tree.locate_leaf(oid, rect)?;
                let tombstone = tree.lookup_at(leaf, oid)?;
                self.payloads.update(&oid, |slot| slot.leaf = leaf);
                Some((leaf, tombstone))
            }
        }
    }
}

impl DglCore {
    /// Quiescent-state invariant check (tree shape + payload table /
    /// hash index agreement).
    pub(crate) fn validate_core(&self) -> Result<(), String> {
        let tree = self.latch_shared();
        tree.validate(false).map_err(|e| e.to_string())?;
        // The hash index must exactly describe the live objects: same
        // cardinality, and every slot's rect and leaf hint must agree
        // with a fresh tree lookup — the differential check every
        // quiescent suite (chaos, phantom, recovery, the property test)
        // inherits for free.
        let objects = tree.all_objects();
        if objects.len() != self.payloads.len() {
            return Err(format!(
                "hash index has {} entries, tree has {} objects",
                self.payloads.len(),
                objects.len()
            ));
        }
        for (oid, rect, _) in objects {
            let slot = self.payloads.get(&oid, |s| (s.leaf, s.rect));
            let Some((leaf, slot_rect)) = slot else {
                return Err(format!("object {oid} has no hash-index entry"));
            };
            if slot_rect != rect {
                return Err(format!(
                    "hash-index rect for {oid} is {slot_rect:?}, tree has {rect:?}"
                ));
            }
            if tree.locate_leaf(oid, rect) != Some(leaf) {
                return Err(format!(
                    "hash-index leaf hint for {oid} is {leaf:?}, tree locates {:?}",
                    tree.locate_leaf(oid, rect)
                ));
            }
        }
        // The version-GC invariant, against the full table: a chain with
        // more than one version is on the dirty list (nothing is in a
        // pass's hand at a quiescent point).
        let dirty = self.dirty.ids();
        let mut unlisted = None;
        self.payloads.for_each(|oid, slot| {
            if slot.chain.len() > 1 && dirty.binary_search(oid).is_err() {
                unlisted = Some((*oid, slot.chain.len()));
            }
        });
        if let Some((oid, versions)) = unlisted {
            return Err(format!(
                "object {oid} holds {versions} versions but version GC does not know it"
            ));
        }
        Ok(())
    }
}
