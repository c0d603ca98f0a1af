//! Object-level locking only — INTENTIONALLY UNSOUND.
//!
//! This protocol takes X locks on written objects and S locks on read
//! objects, exactly as a naive port of record locking to an R-tree would,
//! with **no region protection whatsoever**. It is the textbook phantom
//! scenario from the paper's introduction: "even if all objects currently
//! in the database that satisfy the predicate are locked, the object-level
//! locks will not prevent subsequent insertions into the search range."
//!
//! It exists to prove the phantom test-suite has teeth: every test that
//! must pass under [`crate::DglRTree`] is expected to *fail* under this
//! protocol.

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::Commit,
    LockManagerConfig,
    LockMode::{self, S, X},
    LockOutcome, RequestKind, ResourceId, TxnId,
};
use dgl_obs::Ctr;
use dgl_rtree::{ObjectId, RTreeConfig};

use crate::{ScanHit, TransactionalRTree, TxnError};

use super::BaseInner;

/// The unsound object-locks-only comparator. **Do not use for anything
/// except demonstrating phantoms.**
pub struct ObjectOnlyRTree {
    inner: BaseInner,
}

impl ObjectOnlyRTree {
    /// Creates an empty index.
    pub fn new(rtree: RTreeConfig, world: Rect2, lock: LockManagerConfig) -> Self {
        Self {
            inner: BaseInner::new(rtree, world, lock),
        }
    }

    fn obj_lock(&self, txn: TxnId, oid: ObjectId, mode: LockMode) -> Result<(), TxnError> {
        match self.inner.lm.lock(
            txn,
            ResourceId::Object(oid.0),
            mode,
            Commit,
            RequestKind::Unconditional,
        ) {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Deadlock => {
                self.inner.rollback_now(txn);
                Err(TxnError::Deadlock)
            }
            LockOutcome::Timeout => {
                self.inner.rollback_now(txn);
                Err(TxnError::Timeout)
            }
            LockOutcome::WouldBlock => unreachable!("unconditional request"),
        }
    }
}

impl TransactionalRTree for ObjectOnlyRTree {
    fn begin(&self) -> TxnId {
        self.inner.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.tm.commit(txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.rollback_now(txn);
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Inserts);
        self.obj_lock(txn, oid, X)?;
        self.inner.do_insert(txn, oid, rect)
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Deletes);
        self.obj_lock(txn, oid, X)?;
        Ok(self.inner.do_delete(txn, oid, rect))
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadSingles);
        self.obj_lock(txn, oid, S)?;
        let tree = self.inner.tree.read();
        Ok(match tree.lookup(oid, rect) {
            Some(_) => self.inner.payloads.lock().get(&oid).copied(),
            None => None,
        })
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateSingles);
        self.obj_lock(txn, oid, X)?;
        let present = self.inner.tree.read().lookup(oid, rect).is_some();
        if !present {
            return Ok(false);
        }
        Ok(self.inner.do_update(txn, oid).is_some())
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadScans);
        // Lock only the objects found — the classic mistake: nothing stops
        // a concurrent insert into the scanned range.
        let hits = {
            let tree = self.inner.tree.read();
            self.inner.hits(&tree, &query)
        };
        for h in &hits {
            self.obj_lock(txn, h.oid, S)?;
        }
        Ok(hits)
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateScans);
        let mut hits = {
            let tree = self.inner.tree.read();
            self.inner.hits(&tree, &query)
        };
        for h in &mut hits {
            self.obj_lock(txn, h.oid, X)?;
            if let Some(v) = self.inner.do_update(txn, h.oid) {
                h.version = v;
            }
        }
        Ok(hits)
    }

    fn len(&self) -> usize {
        self.inner.tree.read().len()
    }

    fn validate(&self) -> Result<(), String> {
        self.inner.validate_impl()
    }

    fn name(&self) -> &'static str {
        "object-only (unsound)"
    }

    fn obs_registry(&self) -> &std::sync::Arc<dgl_obs::Registry> {
        self.inner.obs()
    }
}
