//! Whole-index locking (the Postgres R-tree behaviour of footnote 1).

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::Commit,
    LockManagerConfig,
    LockMode::{self, S, X},
    LockOutcome, RequestKind, ResourceId, TxnId,
};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::{ObjectId, RTreeConfig};

use crate::{ScanHit, TransactionalRTree, TxnError};

use super::BaseInner;

/// An R-tree where every operation locks the entire index: S for reads,
/// X for writes, commit duration. Trivially phantom-free and trivially
/// concurrency-free — the baseline the paper's introduction motivates
/// moving away from.
pub struct TreeLockRTree {
    inner: BaseInner,
}

impl TreeLockRTree {
    /// Creates an empty index.
    pub fn new(rtree: RTreeConfig, world: Rect2, lock: LockManagerConfig) -> Self {
        Self {
            inner: BaseInner::new(rtree, world, lock),
        }
    }

    /// The lock manager (statistics).
    pub fn lock_manager(&self) -> &dgl_lockmgr::LockManager {
        &self.inner.lm
    }

    /// Acquires the whole-tree lock, rolling back on deadlock/timeout.
    fn tree_lock(&self, txn: TxnId, mode: LockMode) -> Result<(), TxnError> {
        match self.inner.lm.lock(
            txn,
            ResourceId::Tree,
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

impl TransactionalRTree for TreeLockRTree {
    fn begin(&self) -> TxnId {
        self.inner.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        let start = std::time::Instant::now();
        self.inner.tm.commit(txn);
        self.inner
            .obs()
            .record(Hist::Commit, start.elapsed().as_nanos() as u64);
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
        self.tree_lock(txn, X)?;
        self.inner.do_insert(txn, oid, rect)
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Deletes);
        self.tree_lock(txn, X)?;
        Ok(self.inner.do_delete(txn, oid, rect))
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadSingles);
        self.tree_lock(txn, S)?;
        let tree = self.inner.tree.read();
        Ok(match tree.lookup(oid, rect) {
            Some(_) => self.inner.payloads.lock().get(&oid).copied(),
            None => None,
        })
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateSingles);
        self.tree_lock(txn, X)?;
        let tree = self.inner.tree.read();
        if tree.lookup(oid, rect).is_none() {
            return Ok(false);
        }
        drop(tree);
        Ok(self.inner.do_update(txn, oid).is_some())
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::ReadScans);
        self.tree_lock(txn, S)?;
        let tree = self.inner.tree.read();
        Ok(self.inner.hits(&tree, &query))
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateScans);
        self.tree_lock(txn, X)?;
        let tree = self.inner.tree.read();
        let mut hits = self.inner.hits(&tree, &query);
        drop(tree);
        for h in &mut hits {
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
        "tree-lock"
    }

    fn obs_registry(&self) -> &std::sync::Arc<dgl_obs::Registry> {
        self.inner.obs()
    }
}
