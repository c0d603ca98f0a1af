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
use dgl_lockmgr::TxnId;

use crate::TxnError;

use super::{Baseline, ObjectLocks, Op, Protocol};

/// The unsound object-locks-only comparator. **Do not use for anything
/// except demonstrating phantoms.**
pub type ObjectOnlyRTree = Baseline<ObjectOnly>;

/// The lock rule of [`ObjectOnlyRTree`]: no region locks. A read scan
/// locks only the objects it found — the classic mistake: nothing stops a
/// concurrent insert into the scanned range.
pub struct ObjectOnly;

impl Protocol for ObjectOnly {
    const NAME: &'static str = "object-only (unsound)";
    const OBJECT_LOCKS: ObjectLocks = ObjectLocks::TouchedAndScanned;

    fn new(_world: Rect2) -> Self {
        ObjectOnly
    }

    fn region(_db: &Baseline<Self>, _txn: TxnId, _op: Op, _rect: &Rect2) -> Result<(), TxnError> {
        Ok(())
    }
}
