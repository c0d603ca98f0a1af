//! Write operations: Insert (§3.3–§3.5), logical Delete (§3.6),
//! UpdateSingle (§3.8).

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockMode::{IX, S, SIX, X},
    TxnId,
};
use dgl_pager::PageId;
use dgl_rtree::{Entry, InsertPlan, ObjectId};

use dgl_obs::{span, Ctr, Hist, OpKind};

use crate::granules::overlapping_granules;
use crate::locks::LockList;
use crate::TxnError;

use super::{DglCore, InsertPolicy, UndoRecord, UnwindRollback};

impl DglCore {
    /// Insert with the full dynamic-granule lock protocol, run as an
    /// optimistic plan/validate/apply attempt (see the module docs).
    pub(crate) fn insert_op(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.check_active(txn)?;
        let _unwind = UnwindRollback { core: self, txn };
        let _kind = dgl_obs::op_kind_scope(OpKind::Write);
        self.obs.incr(Ctr::Inserts);
        // The commit-duration X on the object name must be held BEFORE
        // consulting `payloads`: a concurrent inserter publishes its
        // entry there while still uncommitted, so an unlocked check can
        // observe dirty state and report DuplicateObject for an insert
        // that later aborts. Under the X lock the entry is stable — the
        // other inserter held the same X until it committed (entry
        // stays) or aborted (rollback removed it). Neither the name lock
        // nor the probe touches the tree, so no latch is held here: a
        // blocked name lock must not stall scans, and the probe is
        // consistent because deferred deletion removes the tree entry and
        // the payload entry atomically under its exclusive latch.
        let name_lock = super::single_lock(Self::object(oid), X, Commit);
        if let Err((res, mode, dur)) = name_lock.try_acquire(&self.lm, txn) {
            self.obs.incr(Ctr::OpRetries);
            self.wait_or_abort(txn, res, mode, dur)?;
        }
        // The probe is a striped O(1) membership check on the hash index
        // — the traversal it replaces is gone on every insert.
        self.obs.incr(Ctr::DupProbesSkipped);
        if self.payloads.contains_key(&oid) {
            // Keep the X lock: it makes the duplicate observation
            // repeatable for the rest of this transaction.
            self.end_op(txn);
            return Err(TxnError::DuplicateObject);
        }
        loop {
            // Failpoint at the attempt boundary: no latch held, every
            // lock releasable — a clean place for chaos to abort (Error)
            // or kill (Panic) the operation.
            dgl_faults::failpoint!("dgl/plan" => {
                self.rollback_now(txn);
                TxnError::Injected
            });
            let (latch, plan, predicted, locks) = span!(
                self.obs,
                Hist::PlanPhase,
                op = "insert",
                phase = "plan",
                txn = txn.0,
                {
                    let latch = self.plan_latch();
                    let plan = latch.tree().plan_insert(rect);
                    // Predict the page ids any splits will allocate, so every lock
                    // of Table 3's split row — including those on the new halves —
                    // is negotiated BEFORE the first byte changes. (Freed page ids
                    // can carry stale commit-duration locks of concurrent
                    // transactions; a post-split acquisition could block, and
                    // blocking after mutation is not an option.) The predictions
                    // stay exact across the optimistic window: the free list only
                    // changes under version-bumping mutations, which validation
                    // rules out.
                    let predicted = latch.tree().predicted_new_pages(&plan);
                    let locks = self.insert_lock_list(txn, latch.tree(), &plan, &predicted);
                    (latch, plan, predicted, locks)
                }
            );
            if let Err((res, mode, dur)) = locks.try_acquire(&self.lm, txn) {
                drop(latch);
                self.obs.incr(Ctr::OpRetries);
                self.wait_or_abort(txn, res, mode, dur)?;
                continue;
            }
            let Some(mut apply) = self.upgrade(latch) else {
                // Stale plan: another writer applied since planning.
                // Replan; locks acquired above are retained (2PL) and
                // re-grant instantly.
                continue;
            };
            // Failpoint holding the exclusive latch but before the first
            // byte changes: a Panic here exercises the ApplyGuard unwind
            // path (invalidate + re-validate before latch release), a
            // Delay stretches the exclusive hold.
            dgl_faults::failpoint!("dgl/apply");
            let result = apply.apply_insert(
                &plan,
                Entry::Object {
                    mbr: rect,
                    oid,
                    tombstone: None,
                },
            );
            debug_assert!(
                result
                    .splits
                    .iter()
                    .zip(predicted.iter())
                    .all(|(s, p)| s.new_page == *p),
                "split sibling prediction must be exact"
            );
            debug_assert!(
                result.root_split.is_none()
                    || result.root_split.map(|(a, _)| a) == predicted.last().copied(),
                "root-half prediction must be exact"
            );
            self.payloads.insert(
                oid,
                super::PayloadSlot {
                    leaf: result.home,
                    rect,
                    chain: super::mvcc::VersionChain::pending(1),
                },
            );
            // Splits moved entries between leaf pages; refresh their
            // hints while the exclusive latch still pins the layout.
            self.reindex_splits(&apply, &result);
            // Undo entry and log record land while the exclusive latch is
            // still held: a checkpoint captures tree image + undo logs
            // under the shared latch, so this op is either wholly inside
            // its cut (image + undo + record) or wholly after it.
            let logged = self.push_logged_undo(txn, UndoRecord::Insert { oid, rect });
            drop(apply);
            if let Err(e) = logged {
                // Log poisoned: the mutation cannot ever become durable.
                self.rollback_now(txn);
                return Err(e);
            }
            if plan.changes_granules() {
                self.obs.incr(Ctr::GranuleChangingInserts);
            }
            self.end_op(txn);
            return Ok(());
        }
    }

    /// Assembles the lock requirements of an insert attempt from the plan
    /// (the rows of Table 3 plus the §3.3/§3.5 compensation locks).
    /// `predicted` holds the page ids the split cascade will allocate
    /// (sibling per splitting page, then the root half), so the "after
    /// split" locks of Table 3 are acquired up front.
    fn insert_lock_list(
        &self,
        txn: TxnId,
        tree: &dgl_rtree::RTree2,
        plan: &InsertPlan<2>,
        predicted: &[PageId],
    ) -> LockList {
        let mut locks = LockList::new();
        // (The commit-duration X on the object name is acquired by
        // `insert_op` before the duplicate check, ahead of this list.)

        // §3.3 self-inheritance: if this transaction holds a commit S on a
        // shrinking external granule (from one of its own earlier scans),
        // the region it loses there is exactly what the target granule
        // grows into — take a commit S on the growing granule.
        let self_holds_s_on_ext = plan.changed_ext.iter().any(|p| {
            self.lm
                .held_commit(txn, self.ext_res(*p))
                .is_some_and(|m| m.covers(S))
        });
        if self_holds_s_on_ext {
            locks.add(Self::page(plan.target), S, Commit);
        }
        // §3.5 self-inheritance trigger: will this transaction hold a
        // commit S on the splitting granule? (Prior scan, or the ext
        // inheritance above.)
        let holds_s_on_target = self_holds_s_on_ext
            || self
                .lm
                .held_commit(txn, Self::page(plan.target))
                .is_some_and(|m| m.covers(S));

        if plan.split_pages.is_empty() {
            // TESTING ONLY failpoint: omit the Table-3 commit IX on the
            // covering granule. This breaks cover-for-insert on purpose —
            // the phantom oracle's negative test arms it to prove the lock
            // is load-bearing. Compiles to `false` in release builds.
            if !dgl_faults::fired!("dgl/skip-cover-lock") {
                // Commit IX on the granule that receives (and will cover)
                // the object — the single commit-duration granule lock of
                // Table 3.
                locks.add(Self::page(plan.target), IX, Commit);
            }
        } else {
            // §3.5: a short SIX on each splitting granule instead of plain
            // IX, so no other transaction holds any lock on it when it
            // splits; plus the "after split" locks of Table 3 — commit IX
            // on both halves (SIX + S on ext(parent) when the inserter
            // itself held an S there) — on the *predicted* sibling ids.
            for p in &plan.split_pages {
                locks.add(Self::page(*p), SIX, Short);
            }
            let half_mode = if holds_s_on_target { SIX } else { IX };
            // Both halves of the split leaf get the commit-duration lock.
            // When the *root leaf* splits, the old root page becomes the
            // new internal root and the halves are two fresh pages, so the
            // commit lock on the target page would be vestigial.
            if !(plan.root_will_split && plan.path.len() == 1) {
                locks.add(Self::page(plan.target), half_mode, Commit);
            }
            locks.add(Self::page(predicted[0]), half_mode, Commit);
            if holds_s_on_target {
                // S on ext(parent of the split leaf); after a full-path
                // cascade the parent of the top half is the stable root
                // page itself.
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
                let held_s = self
                    .lm
                    .held_commit(txn, self.ext_res(*p))
                    .is_some_and(|m| m.covers(S));
                if held_s {
                    locks.add(self.ext_res(predicted[i]), S, Commit);
                    if let Some(pos) = plan.path.iter().position(|q| q == p) {
                        if pos >= 1 {
                            // The pre-existing parent's external granule
                            // may pick up region the splitting node's
                            // granule loses.
                            locks.add(self.ext_res(plan.path[pos - 1]), S, Commit);
                        } else {
                            // p is the root: its content moves to the last
                            // predicted page and the stable root id becomes
                            // the new parent node. The held S on ext(p)
                            // keeps covering the parent (same resource id);
                            // the relocated half needs its own inherited S.
                            let half_a = *predicted.last().expect("root split allocates a page");
                            locks.add(self.ext_res(half_a), S, Commit);
                        }
                    }
                }
            }
            if plan.root_will_split {
                // The old root's content moves to a fresh page (the last
                // predicted id). If the root was the splitting leaf it is
                // one of the two new leaf granules; otherwise it is a new
                // external granule that inherits any commit S this
                // transaction held on ext(root).
                let half_a = *predicted.last().expect("root split allocates a page");
                if plan.path.len() == 1 {
                    locks.add(Self::page(half_a), half_mode, Commit);
                } else if self
                    .lm
                    .held_commit(txn, self.ext_res(plan.path[0]))
                    .is_some_and(|m| m.covers(S))
                {
                    locks.add(self.ext_res(half_a), S, Commit);
                }
            }
        }
        // §3.3: short SIX on every external granule that shrinks as BRs
        // are adjusted bottom-up.
        for p in &plan.changed_ext {
            locks.add(self.ext_res(*p), SIX, Short);
        }
        // §3.3/§3.4: short IX on granules overlapping the object (base
        // policy) or overlapping the region the granule grows into
        // (modified policy, growth only — splits are covered by SIX).
        let overlap_queries: Option<Vec<Rect2>> = match self.policy {
            // TESTING ONLY failpoint: omit these locks to recreate the
            // Figure 2(a) phantom — the negative control that proves them
            // load-bearing. Compiles to `false` in release builds.
            _ if dgl_faults::fired!("dgl/skip-growth-compensation") => None,
            InsertPolicy::Base => Some(vec![plan.rect]),
            InsertPolicy::Modified if plan.grows => Some(plan.growth.clone()),
            InsertPolicy::Modified => None,
        };
        if let Some(queries) = overlap_queries {
            let set = overlapping_granules(tree, &queries);
            for g in set.leaves {
                if g != plan.target {
                    locks.add(Self::page(g), IX, Short);
                }
            }
            for g in set.externals {
                locks.add(self.ext_res(g), IX, Short);
            }
        }
        locks
    }

    /// Logical delete (§3.6): commit IX on the containing granule + X on
    /// the object; the entry is tombstoned and physically removed by the
    /// deferred operation after commit. Deleting an absent object locks
    /// its would-be region shared, exactly like a ReadScan, so the absence
    /// is repeatable.
    pub(crate) fn delete_op(
        &self,
        txn: TxnId,
        oid: ObjectId,
        rect: Rect2,
    ) -> Result<bool, TxnError> {
        self.check_active(txn)?;
        let _unwind = UnwindRollback { core: self, txn };
        let _kind = dgl_obs::op_kind_scope(OpKind::Write);
        self.obs.incr(Ctr::Deletes);
        loop {
            dgl_faults::failpoint!("dgl/plan" => {
                self.rollback_now(txn);
                TxnError::Injected
            });
            let latch = self.plan_latch();
            // Leaf-directed locate: the verified leaf hint, and the entry's
            // tombstone read off that leaf (see `locate_entry`).
            match span!(
                self.obs,
                Hist::PlanPhase,
                op = "delete",
                phase = "plan",
                txn = txn.0,
                { self.locate_entry(latch.tree(), oid, rect) }
            ) {
                Some((leaf, tombstone)) => {
                    let mut locks = LockList::new();
                    locks.add(Self::page(leaf), IX, Commit);
                    locks.add(Self::object(oid), X, Commit);
                    match locks.try_acquire(&self.lm, txn) {
                        Ok(()) => {
                            // Already tombstoned? By us: idempotent no-op.
                            // By a committed deleter (deferred pending):
                            // the object is logically gone. The entry was
                            // read under this same latch hold; the X lock
                            // makes the outcome repeatable.
                            if tombstone.is_some() {
                                drop(latch);
                                self.end_op(txn);
                                return Ok(false);
                            }
                            // Tombstoning mutates the tree: validate the
                            // plan (leaf location + tombstone state) under
                            // the exclusive latch. Any intervening
                            // tombstone flip bumps the version.
                            let Some(mut apply) = self.upgrade(latch) else {
                                continue;
                            };
                            dgl_faults::failpoint!("dgl/apply");
                            let marked = apply.set_tombstone_at(leaf, oid, txn.0);
                            debug_assert!(marked, "entry verified present under latch");
                            // Push the pending delete marker: once stamped
                            // at commit, snapshots at or after that
                            // timestamp see the object as gone (snapshot
                            // paths ignore the tombstone flag — the chain
                            // alone decides visibility).
                            if self
                                .payloads
                                .update(&oid, |slot| slot.chain.push_pending(None))
                                .expect("live object has a chain")
                            {
                                self.dirty.push(oid);
                            }
                            // Undo + log inside the latch hold (see
                            // insert_op for the checkpoint-cut argument).
                            let logged =
                                self.push_logged_undo(txn, UndoRecord::LogicalDelete { oid, rect });
                            drop(apply);
                            if let Err(e) = logged {
                                self.rollback_now(txn);
                                return Err(e);
                            }
                            self.end_op(txn);
                            return Ok(true);
                        }
                        Err((res, mode, dur)) => {
                            drop(latch);
                            self.obs.incr(Ctr::OpRetries);
                            self.wait_or_abort(txn, res, mode, dur)?;
                        }
                    }
                }
                None => {
                    // Not found: "the deleter acquires S locks on all
                    // overlapping granules just like a ReadScan operation
                    // with the object as the scan predicate". No mutation,
                    // so the attempt never needs the exclusive latch.
                    let set = overlapping_granules(latch.tree(), &[rect]);
                    let mut locks = LockList::new();
                    for g in &set.leaves {
                        locks.add(Self::page(*g), S, Commit);
                    }
                    for g in &set.externals {
                        locks.add(self.ext_res(*g), S, Commit);
                    }
                    match locks.try_acquire(&self.lm, txn) {
                        Ok(()) => {
                            drop(latch);
                            self.end_op(txn);
                            return Ok(false);
                        }
                        Err((res, mode, dur)) => {
                            drop(latch);
                            self.obs.incr(Ctr::OpRetries);
                            self.wait_or_abort(txn, res, mode, dur)?;
                        }
                    }
                }
            }
        }
    }

    /// UpdateSingle (§3.8): commit IX on the granule containing the object
    /// plus commit X on the object; bumps the payload version.
    pub(crate) fn update_single_op(
        &self,
        txn: TxnId,
        oid: ObjectId,
        rect: Rect2,
    ) -> Result<bool, TxnError> {
        self.check_active(txn)?;
        let _unwind = UnwindRollback { core: self, txn };
        let _kind = dgl_obs::op_kind_scope(OpKind::Write);
        self.obs.incr(Ctr::UpdateSingles);
        // UpdateSingle never mutates the tree (only the payload table), so
        // the whole operation runs under the shared planning latch and
        // never takes the exclusive latch at all. The commit IX/X
        // locks make every observation repeatable, and the payload table
        // has its own mutex.
        loop {
            let latch = self.plan_latch();
            let Some((leaf, tombstone)) = self.locate_entry(latch.tree(), oid, rect) else {
                // Absent object: X on the object name makes the absence
                // repeatable against inserts of the same oid.
                let locks = super::single_lock(Self::object(oid), X, Commit);
                match locks.try_acquire(&self.lm, txn) {
                    Ok(()) => {
                        drop(latch);
                        self.end_op(txn);
                        return Ok(false);
                    }
                    Err((res, mode, dur)) => {
                        drop(latch);
                        self.obs.incr(Ctr::OpRetries);
                        self.wait_or_abort(txn, res, mode, dur)?;
                        continue;
                    }
                }
            };
            let mut locks = LockList::new();
            locks.add(Self::page(leaf), IX, Commit);
            locks.add(Self::object(oid), X, Commit);
            match locks.try_acquire(&self.lm, txn) {
                Ok(()) => {
                    if tombstone.is_some() {
                        // Tombstoned by a committed deleter: logically gone.
                        drop(latch);
                        self.end_op(txn);
                        return Ok(false);
                    }
                    let (old, first_garbage) = self
                        .payloads
                        .update(&oid, |slot| {
                            let old = slot.chain.current().expect("updated object is live");
                            (old, slot.chain.push_pending(Some(old + 1)))
                        })
                        .expect("located object has a slot");
                    if first_garbage {
                        self.dirty.push(oid);
                    }
                    self.push_undo(
                        txn,
                        UndoRecord::Update {
                            oid,
                            old_version: old,
                        },
                    );
                    drop(latch);
                    self.end_op(txn);
                    return Ok(true);
                }
                Err((res, mode, dur)) => {
                    drop(latch);
                    self.obs.incr(Ctr::OpRetries);
                    self.wait_or_abort(txn, res, mode, dur)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use dgl_obs::Ctr;
    use dgl_pager::PageId;
    use dgl_rtree::{ObjectId, RTreeConfig};

    use crate::{DglConfig, DglRTree, Rect2, TransactionalRTree};

    fn rect_of(i: u64) -> Rect2 {
        let (x, y) = (0.02 + 0.07 * (i % 13) as f64, 0.02 + 0.07 * (i / 13) as f64);
        Rect2::new([x, y], [x + 0.01, y + 0.01])
    }

    /// What a condensation explode leaves behind, made by hand: hints
    /// naming a page the entry is no longer on — one freed, one another
    /// leaf. Delete and update fall back to a descent, succeed, and repair
    /// the hint, so the next visit verifies without one.
    #[test]
    fn delete_and_update_through_a_stale_hint_fall_back_and_repair_it() {
        let db = DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(4).with_min_entries(2),
            ..DglConfig::default()
        });
        let t = db.begin();
        for i in 0..40 {
            db.insert(t, ObjectId(i), rect_of(i)).unwrap();
        }
        db.commit(t).unwrap();
        let leaf_of = |oid: ObjectId| {
            db.core
                .latch_shared()
                .locate_leaf(oid, rect_of(oid.0))
                .expect("in the tree")
        };
        let hint_of = |oid: ObjectId| db.core.payloads.get(&oid, |s| s.leaf).unwrap();
        let (gone, moved) = (ObjectId(3), ObjectId(30));
        assert_ne!(leaf_of(gone), leaf_of(moved));
        let dead_page = PageId(u64::from(u32::MAX));
        let other_leaf = leaf_of(gone);
        for (oid, hint) in [(gone, dead_page), (moved, other_leaf)] {
            db.core.payloads.update(&oid, |s| s.leaf = hint).unwrap();
        }
        let misses = || db.obs().snapshot().ctr(Ctr::HashMisses);
        let before = misses();

        let t = db.begin();
        assert_eq!(db.delete(t, gone, rect_of(gone.0)), Ok(true));
        assert_eq!(db.update_single(t, moved, rect_of(moved.0)), Ok(true));
        assert_eq!(misses() - before, 2, "both fell back");
        for oid in [gone, moved] {
            assert_eq!(hint_of(oid), leaf_of(oid), "{oid}'s hint repaired");
        }
        assert_eq!(db.update_single(t, moved, rect_of(moved.0)), Ok(true));
        assert_eq!(misses() - before, 2, "the repaired hint verifies");
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.read_single(t, moved, rect_of(moved.0)), Ok(Some(3)));
        assert_eq!(db.read_single(t, gone, rect_of(gone.0)), Ok(None));
        db.commit(t).unwrap();
        db.validate().unwrap();
    }

    /// Rollback works at the hinted leaf too, and falls back the same way.
    #[test]
    fn rollback_through_a_stale_hint_restores_the_entries() {
        let db = DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(4).with_min_entries(2),
            ..DglConfig::default()
        });
        let t = db.begin();
        for i in 0..40 {
            db.insert(t, ObjectId(i), rect_of(i)).unwrap();
        }
        db.commit(t).unwrap();
        let t = db.begin();
        assert_eq!(db.delete(t, ObjectId(5), rect_of(5)), Ok(true));
        db.insert(t, ObjectId(99), rect_of(9)).unwrap();
        for oid in [ObjectId(5), ObjectId(99)] {
            db.core
                .payloads
                .update(&oid, |s| s.leaf = PageId(u64::from(u32::MAX)))
                .unwrap();
        }
        let misses = || db.obs().snapshot().ctr(Ctr::HashMisses);
        let before = misses();
        db.abort(t).unwrap();
        assert_eq!(misses() - before, 2, "both undos fell back");
        let t = db.begin();
        assert_eq!(db.read_single(t, ObjectId(5), rect_of(5)), Ok(Some(1)));
        assert_eq!(db.read_single(t, ObjectId(99), rect_of(9)), Ok(None));
        db.commit(t).unwrap();
        db.validate().unwrap();
    }
}
