//! Write operations: Insert (§3.3–§3.5), logical Delete (§3.6),
//! UpdateSingle (§3.8).

use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_rtree::{Entry, ObjectId};

use dgl_obs::{span, Ctr, Hist, OpKind};

use crate::granules::with_walk;
use crate::TxnError;

use super::mvcc::VersionChain;
use super::{DglCore, PayloadSlot, UndoRecord};

impl DglCore {
    /// Insert with the full dynamic-granule lock protocol, run as an
    /// optimistic plan/validate/apply attempt (see [`super::latch`]).
    pub(crate) fn insert_op(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        let _op = self.begin_op(txn, OpKind::Write, Ctr::Inserts)?;
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
        if let Err(refused) = Self::object_name_lock(oid).try_acquire(&self.lm, txn) {
            self.wait_or_abort(txn, refused)?;
        }
        // The probe is a striped O(1) membership check on the hash index
        // — the traversal it replaces is gone on every insert.
        self.obs.incr(Ctr::DupProbesSkipped);
        if self.payloads.contains_key(&oid) {
            // Keep the X lock: it makes the duplicate observation
            // repeatable for the rest of this transaction.
            return Err(TxnError::DuplicateObject);
        }
        // Whether some attempt requested a short lock: an earlier
        // attempt's short grants outlive its replan, and are released
        // when the operation ends.
        let mut short = false;
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
                    let locks = self.insert_locks(txn, latch.tree(), &plan, &predicted);
                    (latch, plan, predicted, locks)
                }
            );
            short |= locks.has_short();
            if let Err(refused) = locks.try_acquire(&self.lm, txn) {
                drop(latch);
                self.wait_or_abort(txn, refused)?;
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
                PayloadSlot {
                    leaf: result.home,
                    rect,
                    chain: VersionChain::pending(1),
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
            if short {
                self.end_op(txn);
            }
            return Ok(());
        }
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
        let _op = self.begin_op(txn, OpKind::Write, Ctr::Deletes)?;
        loop {
            dgl_faults::failpoint!("dgl/plan" => {
                self.rollback_now(txn);
                TxnError::Injected
            });
            let latch = self.plan_latch();
            // Leaf-directed locate: the verified leaf hint, and the entry's
            // tombstone read off that leaf (see `locate_entry`).
            let located = span!(
                self.obs,
                Hist::PlanPhase,
                op = "delete",
                phase = "plan",
                txn = txn.0,
                { self.locate_entry(latch.tree(), oid, rect) }
            );
            let locks = match located {
                Some((leaf, _)) => Self::point_write_locks(leaf, oid),
                // Not found: "the deleter acquires S locks on all
                // overlapping granules just like a ReadScan operation with
                // the object as the scan predicate".
                None => with_walk(|walk| {
                    walk.granules(latch.tree(), &[rect]);
                    self.scan_locks(walk.leaves(), walk.externals())
                }),
            };
            if let Err(refused) = locks.try_acquire(&self.lm, txn) {
                drop(latch);
                self.wait_or_abort(txn, refused)?;
                continue;
            }
            // Absent, or already tombstoned — by us (idempotent no-op) or
            // by a committed deleter (deferred deletion pending): nothing
            // to mutate, so no exclusive latch. The entry was read under
            // this same latch hold; the locks make the outcome repeatable.
            let Some((leaf, None)) = located else {
                drop(latch);
                return Ok(false);
            };
            // Tombstoning mutates the tree: validate the plan (leaf
            // location + tombstone state) under the exclusive latch. Any
            // intervening tombstone flip bumps the version.
            let Some(mut apply) = self.upgrade(latch) else {
                continue;
            };
            dgl_faults::failpoint!("dgl/apply");
            let marked = apply.set_tombstone_at(leaf, oid, txn.0);
            debug_assert!(marked, "entry verified present under latch");
            // Push the pending delete marker: once stamped at commit,
            // snapshots at or after that timestamp see the object as gone
            // (snapshot paths ignore the tombstone flag — the chain alone
            // decides visibility).
            if self
                .payloads
                .update(&oid, |slot| slot.chain.push_pending(None))
                .expect("live object has a chain")
            {
                self.dirty.push(oid);
            }
            // Undo + log inside the latch hold (see insert_op for the
            // checkpoint-cut argument).
            let logged = self.push_logged_undo(txn, UndoRecord::LogicalDelete { oid, rect });
            drop(apply);
            if let Err(e) = logged {
                self.rollback_now(txn);
                return Err(e);
            }
            return Ok(true);
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
        let _op = self.begin_op(txn, OpKind::Write, Ctr::UpdateSingles)?;
        // UpdateSingle never mutates the tree (only the payload table), so
        // the whole operation runs under the shared planning latch and
        // never takes the exclusive latch at all. The commit IX/X
        // locks make every observation repeatable, and the payload table
        // has its own mutex.
        loop {
            let latch = self.plan_latch();
            let located = self.locate_entry(latch.tree(), oid, rect);
            let locks = match located {
                Some((leaf, _)) => Self::point_write_locks(leaf, oid),
                // Absent object: X on the object name makes the absence
                // repeatable against inserts of the same oid.
                None => Self::object_name_lock(oid),
            };
            if let Err(refused) = locks.try_acquire(&self.lm, txn) {
                drop(latch);
                self.wait_or_abort(txn, refused)?;
                continue;
            }
            // Absent, or tombstoned by a committed deleter: logically gone.
            let Some((_, None)) = located else {
                drop(latch);
                return Ok(false);
            };
            self.bump_version(txn, oid);
            drop(latch);
            return Ok(true);
        }
    }

    /// The update both UpdateSingle and UpdateScan apply to a live object
    /// they hold X on: push the next payload version as pending, put the
    /// chain on the version-GC list if it just grew garbage, and log the
    /// undo. Returns the version it replaced.
    pub(crate) fn bump_version(&self, txn: TxnId, oid: ObjectId) -> u64 {
        let (old, first_garbage) = self
            .payloads
            .update(&oid, |slot| {
                let old = slot.chain.current().expect("updated object is live");
                (old, slot.chain.push_pending(Some(old + 1)))
            })
            .expect("live object has a slot");
        if first_garbage {
            self.dirty.push(oid);
        }
        let undo = UndoRecord::Update {
            oid,
            old_version: old,
        };
        self.tm
            .record(txn, |r| r.undo.push(undo))
            .expect("undo of an active transaction");
        old
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

    /// Stale hints, made by hand: hints naming a page the entry is no
    /// longer on — one freed, one another leaf. Delete and update fall back to a descent, succeed, and repair
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
