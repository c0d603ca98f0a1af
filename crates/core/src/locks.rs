//! Table 3 of the paper in one file: which granule each operation locks,
//! in which mode and for how long — and the list the locks are requested
//! through.
//!
//! Every lock set of the protocol is built here, one function per
//! operation and case, each naming its paper section and Table-3 row.
//! The read path, the write path and the system operation (`dgl/ops_*.rs`,
//! `dgl/deferred.rs`) only plan, call these, and acquire what they return.
//!
//! | Operation (case) | Locks | Function |
//! |---|---|---|
//! | ReadSingle | object: S commit | [`DglCore::read_single_locks`] |
//! | ReadScan; Delete of an absent object | every overlapping granule: S commit | [`DglCore::scan_locks`] |
//! | UpdateScan | leaf granules SIX, external granules S, objects X, commit | [`DglCore::update_scan_locks`] |
//! | Insert (name); UpdateSingle of an absent object | object: X commit | [`DglCore::object_name_lock`] |
//! | Insert (cover, granule change, split) | see the function | [`DglCore::insert_locks`] |
//! | Delete (logical); UpdateSingle | g: IX commit, object: X commit | [`DglCore::point_write_locks`] |
//! | Delete (physical, §3.7) | leaf IX/SIX, dying pages and shrinking ext SIX, short | [`DglCore::physical_delete_locks`] |
//! | Orphan re-insertion (§3.7) | the insert rules, short | [`DglCore::reinsert_locks`] |
//! | Orphan explode (§3.7) | every page of the subtree: SIX short | [`DglCore::explode_locks`] |
//!
//! The rules several rows share are written once: short SIX on a page
//! that splits or dies, short SIX on a shrinking external granule, and
//! growth compensation (short IX on what the growth overlaps). So is the
//! granule → lock resource mapping, §3.1's coarse-external ablation
//! included ([`DglCore::ext_res`]).

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::{self, Commit, Short},
    LockManager,
    LockMode::{self, IX, S, SIX, X},
    ResourceId, TxnId,
};
use dgl_pager::PageId;
use dgl_rtree::{DeletePlan, Entry, InsertPlan, ObjectId, RTree2};

use crate::dgl::{DglCore, InsertPolicy};
use crate::granules::{overlapping_granules, OverlapSet, RawHit};

/// A lock request the lock table refused: what the caller, its latch
/// dropped, waits for unconditionally before it replans.
pub(crate) type Refused = (ResourceId, LockMode, LockDuration);

/// One requirement: `(resource, commit duration?)` → mode.
type Want = ((ResourceId, bool), LockMode);

/// Requirements kept on the stack; an operation that needs more spills to
/// the heap. Point operations need one, an insert a handful, and a ~50-hit
/// scan about seven — often more than eight.
const INLINE: usize = 16;

/// A deduplicated list of lock requirements for one operation attempt.
///
/// Requirements on the same `(resource, duration)` merge by mode supremum;
/// requests are issued in resource order for determinism.
#[derive(Debug)]
pub(crate) struct LockList {
    /// Sorted by key: `inline[..len]`, or all of `spill` once it is in use.
    inline: [Want; INLINE],
    len: usize,
    spill: Vec<Want>,
}

impl LockList {
    pub fn new() -> Self {
        Self {
            inline: [((ResourceId::Tree, false), LockMode::IS); INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn wants(&self) -> &[Want] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    pub fn add(&mut self, res: ResourceId, mode: LockMode, dur: LockDuration) {
        let key = (res, dur == LockDuration::Commit);
        match self.wants().binary_search_by_key(&key, |w| w.0) {
            Ok(at) => {
                let held = if self.spill.is_empty() {
                    &mut self.inline[at].1
                } else {
                    &mut self.spill[at].1
                };
                *held = held.supremum(mode);
            }
            Err(at) if self.spill.is_empty() && self.len < INLINE => {
                self.inline.copy_within(at..self.len, at + 1);
                self.inline[at] = (key, mode);
                self.len += 1;
            }
            Err(at) => {
                if self.spill.is_empty() {
                    self.spill = self.inline.to_vec();
                }
                self.spill.insert(at, (key, mode));
            }
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.wants().len()
    }

    /// Iterates `(resource, mode, duration)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, LockMode, LockDuration)> + '_ {
        self.wants().iter().map(|((res, commit), mode)| {
            let dur = if *commit {
                LockDuration::Commit
            } else {
                LockDuration::Short
            };
            (*res, *mode, dur)
        })
    }

    /// Conditionally acquires every lock, in one lock-table call. On the
    /// first failure, returns the failed requirement so the caller can drop
    /// its latch and wait unconditionally. Already-acquired locks are kept
    /// (they will be re-requested as no-ops on retry; releasing
    /// mid-transaction would break two-phase locking).
    pub fn try_acquire(&self, lm: &LockManager, txn: TxnId) -> Result<(), Refused> {
        lm.try_lock_all(txn, self.iter())
    }

    fn single(res: ResourceId, mode: LockMode, dur: LockDuration) -> Self {
        let mut l = Self::new();
        l.add(res, mode, dur);
        l
    }
}

/// The lock resource of a leaf granule, and of a page that splits or dies.
fn page(p: PageId) -> ResourceId {
    ResourceId::Page(p)
}

/// The lock resource of an object (its name lock).
fn object(o: ObjectId) -> ResourceId {
    ResourceId::Object(o.0)
}

impl DglCore {
    /// Lock resource of an *external* granule: the owning non-leaf page,
    /// or the single shared resource under the coarse-granule ablation
    /// (§3.1's "single extra lockable granule", [`crate::DglConfig`]).
    fn ext_res(&self, p: PageId) -> ResourceId {
        if self.coarse_external {
            ResourceId::Tree
        } else {
            ResourceId::Page(p)
        }
    }

    /// Whether `txn` holds a commit-duration lock covering S on `res`:
    /// the trigger of the §3.3/§3.5 self-inheritance rows.
    fn holds_commit_s(&self, txn: TxnId, res: ResourceId) -> bool {
        self.lm.held_commit(txn, res).is_some_and(|m| m.covers(S))
    }

    // --- the rules several rows share ----------------------------------

    /// Short SIX on each page that splits (§3.5) or dies (§3.7 node
    /// elimination and orphan explode): no other transaction may hold any
    /// lock on a granule while it changes identity.
    fn six_on_changing_pages(locks: &mut LockList, pages: &[PageId]) {
        for p in pages {
            locks.add(page(*p), SIX, Short);
        }
    }

    /// Short SIX on each external granule that shrinks as bounding
    /// rectangles are adjusted bottom-up (§3.3 growth, §3.7 condensation
    /// and re-insertion).
    fn six_on_shrinking_ext(&self, locks: &mut LockList, pages: &[PageId]) {
        for p in pages {
            locks.add(self.ext_res(*p), SIX, Short);
        }
    }

    /// Growth compensation (§3.3/§3.4): short IX on every granule the
    /// growth region `queries` overlaps, the growing granule `target`
    /// itself excluded — so a scanner holding S on the space the target
    /// grows into blocks the growth.
    fn ix_on_growth(&self, locks: &mut LockList, tree: &RTree2, queries: &[Rect2], target: PageId) {
        let set = overlapping_granules(tree, queries);
        for g in set.leaves {
            if g != target {
                locks.add(page(g), IX, Short);
            }
        }
        for g in set.externals {
            locks.add(self.ext_res(g), IX, Short);
        }
    }

    // --- one function per (operation, case) ----------------------------

    /// §3.8, Table 3 row "ReadSingle": commit S on the object only. The
    /// object lock doubles as a name lock, so a not-found answer is
    /// repeatable against later inserts of the same id.
    pub(crate) fn read_single_locks(oid: ObjectId) -> LockList {
        LockList::single(object(oid), S, Commit)
    }

    /// §3.8, Table 3 row "ReadScan" — and §3.6's Delete of an absent
    /// object, which "acquires S locks on all overlapping granules just
    /// like a ReadScan": commit S on every leaf and external granule the
    /// predicate overlaps.
    pub(crate) fn scan_locks(&self, set: &OverlapSet) -> LockList {
        let mut locks = LockList::new();
        for g in &set.leaves {
            locks.add(page(*g), S, Commit);
        }
        for g in &set.externals {
            locks.add(self.ext_res(*g), S, Commit);
        }
        locks
    }

    /// §3.8, Table 3 row "UpdateScan": commit SIX on the covering (leaf)
    /// granules, where updatable objects live, commit S on the rest (the
    /// external granules), commit X on every qualifying object.
    pub(crate) fn update_scan_locks(&self, set: &OverlapSet, hits: &[RawHit<2>]) -> LockList {
        let mut locks = LockList::new();
        for g in &set.leaves {
            locks.add(page(*g), SIX, Commit);
        }
        for g in &set.externals {
            locks.add(self.ext_res(*g), S, Commit);
        }
        for (oid, ..) in hits {
            locks.add(object(*oid), X, Commit);
        }
        locks
    }

    /// Table 3 row "Insert", object column: commit X on the object name,
    /// taken ahead of the duplicate probe (§3.3). Also §3.8's UpdateSingle
    /// of an absent object: the X makes the absence repeatable against
    /// inserts of the same id.
    pub(crate) fn object_name_lock(oid: ObjectId) -> LockList {
        LockList::single(object(oid), X, Commit)
    }

    /// §3.6 Table 3 row "Delete (logical)" and §3.8 row "UpdateSingle":
    /// commit IX on the granule `leaf` holding the object, commit X on
    /// the object.
    pub(crate) fn point_write_locks(leaf: PageId, oid: ObjectId) -> LockList {
        let mut locks = LockList::new();
        locks.add(page(leaf), IX, Commit);
        locks.add(object(oid), X, Commit);
        locks
    }

    /// §3.3–§3.5, Table 3 rows "Insert": the granule locks of an insert
    /// attempt, read off its plan (the object's X is
    /// [`Self::object_name_lock`]). Commit IX on the granule that will
    /// cover the object, or the split row ([`Self::insert_split_locks`]);
    /// short SIX on every shrinking external granule; growth compensation
    /// over the region the granule grows into (§3.4), or over the object
    /// on every insert under the base policy (§3.3). `predicted` holds the
    /// page ids the split cascade will allocate (sibling per splitting
    /// page, then the root half), so the "after split" locks are acquired
    /// before the first byte changes.
    pub(crate) fn insert_locks(
        &self,
        txn: TxnId,
        tree: &RTree2,
        plan: &InsertPlan<2>,
        predicted: &[PageId],
    ) -> LockList {
        let mut locks = LockList::new();
        // §3.3 self-inheritance: if `txn` holds commit S on a shrinking
        // external granule (its own earlier scan), the region lost there
        // is what the target grows into — commit S on the target too.
        let self_holds_s_on_ext = plan
            .changed_ext
            .iter()
            .any(|p| self.holds_commit_s(txn, self.ext_res(*p)));
        if self_holds_s_on_ext {
            locks.add(page(plan.target), S, Commit);
        }
        if plan.split_pages.is_empty() {
            // TESTING ONLY failpoint: omit the commit IX on the covering
            // granule. This breaks cover-for-insert on purpose — the
            // phantom oracle's negative test arms it to prove the lock is
            // load-bearing. Compiles to `false` in release builds.
            if !dgl_faults::fired!("dgl/skip-cover-lock") {
                locks.add(page(plan.target), IX, Commit);
            }
        } else {
            // §3.5 self-inheritance trigger: will this transaction hold a
            // commit S on the splitting granule? (Prior scan, or the ext
            // inheritance above.)
            let holds_s_on_target =
                self_holds_s_on_ext || self.holds_commit_s(txn, page(plan.target));
            self.insert_split_locks(&mut locks, txn, plan, predicted, holds_s_on_target);
        }
        self.six_on_shrinking_ext(&mut locks, &plan.changed_ext);
        let growth: Option<&[Rect2]> = match self.policy {
            // TESTING ONLY failpoint: omit growth compensation to recreate
            // the Figure 2(a) phantom — the negative control that proves
            // it load-bearing. Compiles to `false` in release builds.
            _ if dgl_faults::fired!("dgl/skip-growth-compensation") => None,
            InsertPolicy::Base => Some(std::slice::from_ref(&plan.rect)),
            // Growth only — splits are covered by SIX.
            InsertPolicy::Modified if plan.grows => Some(&plan.growth),
            InsertPolicy::Modified => None,
        };
        if let Some(queries) = growth {
            self.ix_on_growth(&mut locks, tree, queries, plan.target);
        }
        locks
    }

    /// §3.5, Table 3 row "Insert (node split)": short SIX on each
    /// splitting granule instead of plain IX, so no other transaction
    /// holds any lock on it when it splits; then the "after split" locks
    /// on the *predicted* page ids — commit IX on both halves (SIX, and S
    /// on ext(parent), when the inserter itself held S on the splitting
    /// granule), and the inheritance of a held commit S on a splitting
    /// node's external granule onto the new one's.
    fn insert_split_locks(
        &self,
        locks: &mut LockList,
        txn: TxnId,
        plan: &InsertPlan<2>,
        predicted: &[PageId],
        holds_s_on_target: bool,
    ) {
        Self::six_on_changing_pages(locks, &plan.split_pages);
        let half_mode = if holds_s_on_target { SIX } else { IX };
        // Both halves of the split leaf get the commit-duration lock.
        // When the *root leaf* splits, the old root page becomes the new
        // internal root and the halves are two fresh pages, so the commit
        // lock on the target page would be vestigial.
        if !(plan.root_will_split && plan.path.len() == 1) {
            locks.add(page(plan.target), half_mode, Commit);
        }
        locks.add(page(predicted[0]), half_mode, Commit);
        if holds_s_on_target {
            // S on ext(parent of the split leaf); after a full-path
            // cascade the parent of the top half is the stable root page
            // itself.
            let parent = if plan.path.len() >= 2 {
                plan.path[plan.path.len() - 2]
            } else {
                plan.path[0]
            };
            locks.add(self.ext_res(parent), S, Commit);
        }
        // Non-leaf splits: if the transaction held a commit S on the
        // splitting node's external granule, inherit it to the new
        // sibling's external granule and the parent's.
        for (i, p) in plan.split_pages.iter().enumerate().skip(1) {
            if self.holds_commit_s(txn, self.ext_res(*p)) {
                locks.add(self.ext_res(predicted[i]), S, Commit);
                if let Some(pos) = plan.path.iter().position(|q| q == p) {
                    if pos >= 1 {
                        // The pre-existing parent's external granule may
                        // pick up region the splitting node's granule
                        // loses.
                        locks.add(self.ext_res(plan.path[pos - 1]), S, Commit);
                    } else {
                        // p is the root: its content moves to the last
                        // predicted page and the stable root id becomes
                        // the new parent node. The held S on ext(p) keeps
                        // covering the parent (same resource id); the
                        // relocated half needs its own inherited S.
                        let half_a = *predicted.last().expect("root split allocates a page");
                        locks.add(self.ext_res(half_a), S, Commit);
                    }
                }
            }
        }
        if plan.root_will_split {
            // The old root's content moves to a fresh page (the last
            // predicted id). If the root was the splitting leaf it is one
            // of the two new leaf granules; otherwise it is a new external
            // granule that inherits any commit S this transaction held on
            // ext(root).
            let half_a = *predicted.last().expect("root split allocates a page");
            if plan.path.len() == 1 {
                locks.add(page(half_a), half_mode, Commit);
            } else if self.holds_commit_s(txn, self.ext_res(plan.path[0])) {
                locks.add(self.ext_res(half_a), S, Commit);
            }
        }
    }

    /// §3.7, Table 3 row "Delete (physical)": the system operation's
    /// removal phase. Short IX on the leaf granule — short **SIX** if the
    /// removal underfills it, since "even transactions holding IX locks on
    /// g may lose their lock coverage due to elimination of g" — plus
    /// short SIX on every page the condense pass eliminates and on every
    /// external granule that shrinks.
    pub(crate) fn physical_delete_locks(&self, plan: &DeletePlan<2>) -> LockList {
        let mut locks = LockList::new();
        let leaf_mode = if plan.leaf_eliminated { SIX } else { IX };
        locks.add(page(plan.leaf), leaf_mode, Short);
        self.six_on_shrinking_ext(&mut locks, &plan.changed_ext);
        Self::six_on_changing_pages(&mut locks, &plan.eliminated);
        locks
    }

    /// §3.7, Table 3 row "Delete (physical), orphan re-insertion": the
    /// insert rows at short duration (the entry is committed; the locks
    /// only guard the structural motion), plus short SIX on ext(target)
    /// for an index entry — a new child shrinks its parent's external
    /// granule, where an object only grows a leaf granule.
    pub(crate) fn reinsert_locks(
        &self,
        tree: &RTree2,
        plan: &InsertPlan<2>,
        entry: &Entry<2>,
    ) -> LockList {
        let mut locks = LockList::new();
        if plan.split_pages.is_empty() {
            locks.add(page(plan.target), IX, Short);
        } else {
            Self::six_on_changing_pages(&mut locks, &plan.split_pages);
        }
        self.six_on_shrinking_ext(&mut locks, &plan.changed_ext);
        if matches!(entry, Entry::Child { .. }) {
            locks.add(self.ext_res(plan.target), SIX, Short);
        }
        if plan.grows {
            self.ix_on_growth(&mut locks, tree, &plan.growth, plan.target);
        }
        locks
    }

    /// §3.7, Table 3 row "Delete (physical), orphan explode": an orphan
    /// whose home level is gone dissolves into its objects and its
    /// subtree's `pages` die — short SIX on each, as for elimination.
    pub(crate) fn explode_locks(pages: &[PageId]) -> LockList {
        let mut locks = LockList::new();
        Self::six_on_changing_pages(&mut locks, pages);
        locks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_lockmgr::LockManagerConfig;

    fn page(n: u64) -> ResourceId {
        ResourceId::Page(PageId(n))
    }

    #[test]
    fn duplicate_requirements_merge_by_supremum() {
        let mut l = LockList::new();
        l.add(page(1), IX, Commit);
        l.add(page(1), S, Commit);
        l.add(page(1), IX, Short);
        assert_eq!(l.len(), 2, "commit and short slots stay distinct");
        let reqs: Vec<_> = l.iter().collect();
        assert!(reqs.contains(&(page(1), SIX, Commit)), "IX+S merges to SIX");
        assert!(reqs.contains(&(page(1), IX, Short)));
    }

    #[test]
    fn a_list_longer_than_the_inline_buffer_stays_sorted_and_merged() {
        let mut l = LockList::new();
        // Descending, so every add shifts; 30 > INLINE forces the spill.
        for n in (0..30).rev() {
            l.add(page(n), IX, Commit);
        }
        l.add(page(3), S, Commit); // merges after the spill
        l.add(ResourceId::Object(1), X, Commit);
        assert_eq!(l.len(), 31);
        let reqs: Vec<_> = l.iter().collect();
        assert!(reqs.windows(2).all(|w| w[0].0 < w[1].0), "canonical order");
        assert_eq!(reqs[3], (page(3), SIX, Commit));
        assert_eq!(reqs[30], (ResourceId::Object(1), X, Commit));
    }

    #[test]
    fn try_acquire_reports_first_conflict() {
        let lm = LockManager::new(LockManagerConfig::default());
        // T9 holds S on page 2.
        let mut held = LockList::new();
        held.add(page(2), S, Commit);
        held.try_acquire(&lm, TxnId(9)).unwrap();
        let mut l = LockList::new();
        l.add(page(1), IX, Commit);
        l.add(page(2), IX, Short);
        l.add(page(3), IX, Short);
        let err = l.try_acquire(&lm, TxnId(1)).unwrap_err();
        assert_eq!(err.0, page(2));
        // Page 1 was acquired before the failure and is kept.
        assert_eq!(lm.held(TxnId(1), page(1)), Some(IX));
        assert_eq!(lm.held(TxnId(1), page(3)), None);
    }

    #[test]
    fn try_acquire_all_grantable_succeeds() {
        let lm = LockManager::new(LockManagerConfig::default());
        let mut l = LockList::new();
        l.add(page(1), SIX, Short);
        l.add(ResourceId::Object(5), X, Commit);
        assert!(l.try_acquire(&lm, TxnId(1)).is_ok());
        assert_eq!(lm.held(TxnId(1), page(1)), Some(SIX));
        assert_eq!(lm.held(TxnId(1), ResourceId::Object(5)), Some(X));
    }
}
