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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dgl_geom::Rect2;
use dgl_lockmgr::{LockManager, LockManagerConfig, TxnId};
use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
use dgl_txn::{Journal, TxnManager};

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
    pub tm: TxnManager,
    pub undo: Journal<BaseUndo>,
    pub payloads: Mutex<HashMap<ObjectId, u64>>,
    /// Ids deleted by still-active transactions. The baselines delete
    /// physically, but the API contract (shared with the granular
    /// protocol, whose tombstones persist to commit) reserves a deleted
    /// id until its deleter commits.
    pub reserved: Mutex<HashMap<TxnId, HashSet<ObjectId>>>,
}

impl BaseInner {
    pub fn new(rtree: RTreeConfig, world: Rect2, lock: LockManagerConfig) -> Self {
        // The lock manager's own registry is the protocol's one telemetry
        // sink: op counts and commit latency land next to its lock waits.
        let lm = Arc::new(LockManager::new(lock));
        Self {
            tree: RwLock::new(RTree2::new(rtree, world)),
            tm: TxnManager::new(Arc::clone(&lm)),
            lm,
            undo: Journal::new(),
            payloads: Mutex::new(HashMap::new()),
            reserved: Mutex::new(HashMap::new()),
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
        let records = self.undo.take_reversed(txn);
        if !records.is_empty() {
            let mut tree = self.tree.write();
            let mut payloads = self.payloads.lock();
            for rec in records {
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
        self.reserved.lock().remove(&txn);
        self.tm.abort(txn);
    }

    pub fn commit_now(&self, txn: TxnId) {
        let _ = self.undo.take(txn);
        self.reserved.lock().remove(&txn);
        self.tm.commit(txn);
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
        if self.reserved.lock().values().any(|set| set.contains(&oid)) {
            // Deleted by a still-active transaction: the id stays
            // reserved until that transaction commits.
            return Err(TxnError::DuplicateObject);
        }
        tree.insert(oid, rect);
        self.payloads.lock().insert(oid, 1);
        self.undo.push(txn, BaseUndo::Insert { oid, rect });
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
        self.undo.push(txn, BaseUndo::Delete { oid, rect, version });
        self.reserved.lock().entry(txn).or_default().insert(oid);
        true
    }

    /// Bumps an object's payload version (under any latch). Returns the
    /// new version, or None if absent.
    pub fn do_update(&self, txn: TxnId, oid: ObjectId) -> Option<u64> {
        let mut payloads = self.payloads.lock();
        let slot = payloads.get_mut(&oid)?;
        let old = *slot;
        *slot = old + 1;
        self.undo.push(
            txn,
            BaseUndo::Update {
                oid,
                old_version: old,
            },
        );
        Some(old + 1)
    }
}
