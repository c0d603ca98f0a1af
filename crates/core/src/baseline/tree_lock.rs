//! Whole-index locking (the Postgres R-tree behaviour of footnote 1).

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockMode::{S, X},
    ResourceId, TxnId,
};

use crate::TxnError;

use super::{Baseline, ObjectLocks, Op, Protocol};

/// An R-tree where every operation locks the entire index: S for reads,
/// X for writes, commit duration. Trivially phantom-free and trivially
/// concurrency-free — the baseline the paper's introduction motivates
/// moving away from.
pub type TreeLockRTree = Baseline<TreeLock>;

/// The whole-index lock rule of [`TreeLockRTree`].
pub struct TreeLock;

impl Protocol for TreeLock {
    const NAME: &'static str = "tree-lock";
    const OBJECT_LOCKS: ObjectLocks = ObjectLocks::None;

    fn new(_world: Rect2) -> Self {
        TreeLock
    }

    fn region(db: &Baseline<Self>, txn: TxnId, op: Op, _rect: &Rect2) -> Result<(), TxnError> {
        let mode = match op {
            Op::ReadSingle | Op::ReadScan => S,
            Op::Insert | Op::Delete | Op::UpdateSingle | Op::UpdateScan => X,
        };
        db.lock(txn, ResourceId::Tree, mode)
    }
}
