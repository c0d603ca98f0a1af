//! Read operations: ReadSingle, ReadScan, UpdateScan (§3.8).

use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_obs::{Ctr, Hist, OpKind};
use dgl_rtree::ObjectId;

use crate::granules::{scan_descent, RawHit};
use crate::{ScanHit, TxnError};

use super::DglCore;

impl DglCore {
    /// ReadSingle: commit S on the object only (Table 3). The object lock
    /// doubles as a name lock, so a not-found answer is repeatable against
    /// later inserts of the same object id.
    ///
    /// The lock is negotiated *before* the tree latch is taken: the object
    /// lock does not depend on tree structure (unlike scan granule locks),
    /// so the retry loop never holds — and, more importantly, never
    /// re-acquires — the shared latch. The answer, once the lock is
    /// granted, comes from the hash index without a latch at all.
    pub(crate) fn read_single_op(
        &self,
        txn: TxnId,
        oid: ObjectId,
        rect: Rect2,
    ) -> Result<Option<u64>, TxnError> {
        let _op = self.begin_op(txn, OpKind::Point, Ctr::ReadSingles)?;
        let locks = Self::read_single_locks(oid);
        while let Err(refused) = locks.try_acquire(&self.lm, txn) {
            self.wait_or_abort(txn, refused)?;
        }
        // The index answers: no latch, no traversal. Under the
        // commit-duration object S lock the slot is stable — an inserter
        // publishes the tree entry and the slot together under its X lock
        // and exclusive latch, a deleter's tombstone shows up as the
        // chain's delete-marker head, and deferred physical deletion (which
        // removes the slot) only runs after the deleter committed, i.e.
        // never while we hold S. The index is the payload table, so
        // slot-absent is an authoritative "no such object" — matching rect
        // included: rects are immutable for a live object, so a rect
        // mismatch means the exact (oid, rect) pair is not in the tree.
        let t0 = std::time::Instant::now();
        let answer = self
            .payloads
            .get(&oid, |slot| {
                if slot.rect == rect {
                    slot.chain.current()
                } else {
                    None
                }
            })
            .flatten();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(Hist::HashLookup, nanos);
        self.obs.incr(Ctr::HashHits);
        // Differential check (debug builds): the traversal path must agree
        // with the index — mid-condensation too, since the latched lookup
        // sees in-flight orphans.
        debug_assert_eq!(
            answer,
            self.read_single_via_tree(oid, rect),
            "hash fast path diverged from the tree path for {oid}"
        );
        self.end_op(txn);
        Ok(answer)
    }

    /// ReadSingle's answer by tree lookup (one latch hold): the debug
    /// cross-check of the index path. Caller holds the object lock.
    fn read_single_via_tree(&self, oid: ObjectId, rect: Rect2) -> Option<u64> {
        let state = self.latch_shared().lookup(oid, rect);
        match state {
            Some(None) => self
                .payloads
                .get(&oid, |slot| slot.chain.current())
                .flatten(),
            // Tombstoned (committed delete pending physical removal) or
            // absent.
            Some(Some(_)) | None => None,
        }
    }

    /// ReadScan: commit-duration S locks on **every** granule overlapping
    /// the predicate — leaf granules and external granules — the
    /// overlap-for-search half of the paper's policy. This is the
    /// operation phantom protection exists for.
    pub(crate) fn read_scan_op(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        let _op = self.begin_op(txn, OpKind::Scan, Ctr::ReadScans)?;
        loop {
            dgl_faults::failpoint!("dgl/plan" => {
                self.rollback_now(txn);
                TxnError::Injected
            });
            let tree = self.latch_shared();
            let (set, raw) = scan_descent(&tree, &query);
            if let Err(refused) = self.scan_locks(&set).try_acquire(&self.lm, txn) {
                drop(tree);
                self.wait_or_abort(txn, refused)?;
                continue;
            }
            // Versions only now: with the granule locks held, 2PL makes
            // every chain head either committed or this transaction's own
            // write, whatever its stamping state.
            let mut hits = Vec::with_capacity(raw.len());
            hits.extend(
                raw.into_iter()
                    .filter(Self::untombstoned)
                    .map(|(oid, rect, _)| ScanHit {
                        oid,
                        rect,
                        version: 1,
                    }),
            );
            self.payloads.get_each(
                &mut hits,
                |h| &h.oid,
                |h, slot| {
                    let head = slot.map(|slot| slot.chain.current());
                    // An entry and its slot are published under one
                    // exclusive latch hold and retired under one; a logical
                    // delete marks both under one.
                    debug_assert!(
                        matches!(head, Some(Some(_))),
                        "untombstoned entry {} has chain head {head:?}",
                        h.oid
                    );
                    h.version = head.flatten().unwrap_or(1);
                },
            );
            drop(tree);
            self.end_op(txn);
            return Ok(hits);
        }
    }

    /// UpdateScan: SIX on the granules that cover the predicate (the leaf
    /// granules, where the updatable objects live), S on the remaining
    /// overlapping granules (the external granules, which hold no
    /// objects), and X on every qualifying object (Table 3).
    pub(crate) fn update_scan_op(
        &self,
        txn: TxnId,
        query: Rect2,
    ) -> Result<Vec<ScanHit>, TxnError> {
        // Update scans are writes for wait attribution: they stay on the
        // locking path even under the snapshot-read wrapper, so counting
        // them as scans would break the "scans vanish from the wait
        // histogram" claim.
        let _op = self.begin_op(txn, OpKind::Write, Ctr::UpdateScans)?;
        loop {
            let tree = self.latch_shared();
            let (set, mut raw) = scan_descent(&tree, &query);
            raw.retain(Self::untombstoned);
            if let Err(refused) = self
                .update_scan_locks(&set, &raw)
                .try_acquire(&self.lm, txn)
            {
                drop(tree);
                self.wait_or_abort(txn, refused)?;
                continue;
            }
            // Perform the updates under the latch; granule SIX locks
            // guarantee the hit set cannot have changed. Every live tree
            // entry has a slot (inserts publish both together; recovery
            // seeds every restored entry).
            let mut out = Vec::with_capacity(raw.len());
            for (oid, rect, _) in raw {
                let old = self.bump_version(txn, oid);
                out.push(ScanHit {
                    oid,
                    rect,
                    version: old + 1,
                });
            }
            drop(tree);
            self.end_op(txn);
            return Ok(out);
        }
    }

    /// Locking-path visibility of a leaf entry: a tombstoned one is
    /// logically deleted (by this transaction, or by a committed deleter
    /// whose physical removal is still pending) and never returned.
    fn untombstoned((_, _, tombstone): &RawHit<2>) -> bool {
        tombstone.is_none()
    }
}
