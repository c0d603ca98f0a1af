//! Comparator protocols.
//!
//! * [`TreeLockRTree`] — whole-index S/X locking, the Postgres behaviour
//!   the paper's footnote 1 describes ("requires transactions to lock the
//!   entire R-tree thereby disallowing concurrent operations").
//! * [`PredicateRTree`] — predicate locking in the style of Kornacker et
//!   al.'s GiST protection, the approach §4/Table 4 compares against:
//!   scans register their predicate rectangles; writers check their
//!   object rectangle against every registered predicate.
//! * [`ZOrderRTree`] — key-range locking over a superimposed Z-order,
//!   the approach §2 dismisses ("unnatural... high lock overhead and a
//!   low degree of concurrency"); sound but measurably worse, which the
//!   `zorder` experiment quantifies.
//! * [`ObjectOnlyRTree`] — **intentionally unsound**: object-level locks
//!   only, no region protection. It exists so the phantom test-suite can
//!   demonstrate it actually catches phantoms (a test that cannot fail
//!   proves nothing).
//!
//! All baselines perform physical deletes immediately (their coarse region
//! protection makes the paper's logical/deferred split unnecessary) and
//! undo by re-inserting.

mod object_only;
mod predicate;
mod tree_lock;
mod zorder;

pub use object_only::ObjectOnlyRTree;
pub use predicate::{PredicateConfig, PredicateRTree};
pub use tree_lock::TreeLockRTree;
pub use zorder::{ZOrderConfig, ZOrderRTree};

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dgl_geom::Rect2;
use dgl_lockmgr::{LockManager, LockManagerConfig, TxnId};
use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
use dgl_txn::TxnManager;

use crate::{ScanHit, TxnError};

/// Undo records for the baselines (physical-immediate deletes).
#[derive(Debug)]
pub(crate) enum BaseUndo {
    Insert {
        oid: ObjectId,
        rect: Rect2,
    },
    Delete {
        oid: ObjectId,
        rect: Rect2,
        version: u64,
    },
    Update {
        oid: ObjectId,
        old_version: u64,
    },
}

/// State shared by all baseline protocols.
pub(crate) struct BaseInner {
    pub tree: RwLock<RTree2>,
    pub lm: Arc<LockManager>,
    /// The active transactions, each with its undo log.
    pub tm: TxnManager<Vec<BaseUndo>>,
    pub payloads: Mutex<HashMap<ObjectId, u64>>,
}

impl BaseInner {
    pub fn new(rtree: RTreeConfig, world: Rect2, lock: LockManagerConfig) -> Self {
        // The lock manager's own registry is the protocol's one telemetry
        // sink: op counts and commit latency land next to its lock waits.
        let lm = Arc::new(LockManager::new(lock));
        Self {
            tree: RwLock::new(RTree2::new(rtree, world)),
            tm: TxnManager::with_records(Arc::clone(&lm)),
            lm,
            payloads: Mutex::new(HashMap::new()),
        }
    }

    /// The protocol's telemetry sink (the lock manager's registry).
    pub fn obs(&self) -> &Arc<dgl_obs::Registry> {
        self.lm.obs()
    }

    pub fn check_active(&self, txn: TxnId) -> Result<(), TxnError> {
        if self.tm.is_active(txn) {
            Ok(())
        } else {
            Err(TxnError::NotActive)
        }
    }

    /// Rolls the transaction back: undoes physical changes in reverse,
    /// then releases locks and retires the id.
    pub fn rollback_now(&self, txn: TxnId) {
        {
            // The log is taken under the write latch, which `do_insert`
            // checks reservations under: a deleted id stays reserved
            // until its re-insertion below is visible.
            let mut tree = self.tree.write();
            let mut payloads = self.payloads.lock();
            let records = self.tm.record(txn, std::mem::take).unwrap_or_default();
            for rec in records.into_iter().rev() {
                match rec {
                    BaseUndo::Insert { oid, rect } => {
                        let removed = tree.remove_entry_raw(oid, rect);
                        debug_assert!(removed, "undo insert: entry missing");
                        payloads.remove(&oid);
                    }
                    BaseUndo::Delete { oid, rect, version } => {
                        tree.insert(oid, rect);
                        payloads.insert(oid, version);
                    }
                    BaseUndo::Update { oid, old_version } => {
                        payloads.insert(oid, old_version);
                    }
                }
            }
        }
        self.tm.abort(txn);
    }

    fn push_undo(&self, txn: TxnId, rec: BaseUndo) {
        self.tm
            .record(txn, |undo| undo.push(rec))
            .expect("undo of an active transaction");
    }

    /// Search returning visible hits with payload versions. The baselines
    /// never tombstone, so everything found is visible.
    pub fn hits(&self, tree: &RTree2, query: &Rect2) -> Vec<ScanHit> {
        let payloads = self.payloads.lock();
        tree.search(query)
            .into_iter()
            .map(|(oid, rect, _)| ScanHit {
                oid,
                rect,
                version: payloads.get(&oid).copied().unwrap_or(1),
            })
            .collect()
    }

    pub fn validate_impl(&self) -> Result<(), String> {
        let tree = self.tree.read();
        tree.validate(false).map_err(|e| e.to_string())?;
        let payloads = self.payloads.lock();
        if tree.all_objects().len() != payloads.len() {
            return Err(format!(
                "payload map {} vs tree objects {}",
                payloads.len(),
                tree.all_objects().len()
            ));
        }
        Ok(())
    }

    /// Physical insert with duplicate check (under the write latch).
    pub fn do_insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        let mut tree = self.tree.write();
        if self.payloads.lock().contains_key(&oid) {
            return Err(TxnError::DuplicateObject);
        }
        // The baselines delete physically, but the API contract (shared
        // with the granular protocol, whose tombstones persist to commit)
        // reserves a deleted id until its deleter commits: an id in an
        // active transaction's undo log as a `Delete` is still taken.
        let reserved = self.tm.records(|records| {
            records
                .flat_map(|(_, undo)| undo)
                .any(|u| matches!(*u, BaseUndo::Delete { oid: d, .. } if d == oid))
        });
        if reserved {
            return Err(TxnError::DuplicateObject);
        }
        tree.insert(oid, rect);
        self.payloads.lock().insert(oid, 1);
        self.push_undo(txn, BaseUndo::Insert { oid, rect });
        Ok(())
    }

    /// Physical delete (under the write latch). Returns whether the
    /// object existed.
    pub fn do_delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> bool {
        let mut tree = self.tree.write();
        if !tree.delete(oid, rect) {
            return false;
        }
        let version = self.payloads.lock().remove(&oid).unwrap_or(1);
        self.push_undo(txn, BaseUndo::Delete { oid, rect, version });
        true
    }

    /// Bumps an object's payload version (under any latch). Returns the
    /// new version, or None if absent.
    pub fn do_update(&self, txn: TxnId, oid: ObjectId) -> Option<u64> {
        let mut payloads = self.payloads.lock();
        let slot = payloads.get_mut(&oid)?;
        let old = *slot;
        *slot = old + 1;
        self.push_undo(
            txn,
            BaseUndo::Update {
                oid,
                old_version: old,
            },
        );
        Some(old + 1)
    }
}
