//! Comparator protocols: one engine, four lock rules.
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
//! Each is a [`Baseline`] over its [`Protocol`]: the engine runs the
//! operations, the undo log and the lock-or-rollback rule; a protocol
//! states only the region locks each operation takes, whether objects
//! are locked too, and what it releases when a transaction ends. All
//! baselines perform physical deletes immediately (their coarse region
//! protection makes the paper's logical/deferred split unnecessary) and
//! undo by re-inserting.

mod object_only;
mod predicate;
mod tree_lock;
mod zorder;

pub use object_only::{ObjectOnly, ObjectOnlyRTree};
pub use predicate::{Predicate, PredicateRTree};
pub use tree_lock::{TreeLock, TreeLockRTree};
pub use zorder::{ZOrder, ZOrderRTree};

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration::Commit,
    LockManager, LockManagerConfig,
    LockMode::{self, S, X},
    LockOutcome, RequestKind, ResourceId, TxnId,
};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::{ObjectId, RTree2, RTreeConfig};
use dgl_txn::TxnManager;

use crate::{ScanHit, TransactionalRTree, TxnError};

/// The operation a region lock protects, passed to [`Protocol::region`]
/// with the operation's rectangle (the object's, or the query's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// [`TransactionalRTree::insert`].
    Insert,
    /// [`TransactionalRTree::delete`].
    Delete,
    /// [`TransactionalRTree::read_single`].
    ReadSingle,
    /// [`TransactionalRTree::update_single`].
    UpdateSingle,
    /// [`TransactionalRTree::read_scan`].
    ReadScan,
    /// [`TransactionalRTree::update_scan`].
    UpdateScan,
}

/// Which objects an operation locks, on top of its region locks
/// (commit duration: S on a read object, X on a written one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectLocks {
    /// None: the region lock covers every object.
    None,
    /// The object a point operation names, and each hit an update scan
    /// writes. A read scan's hits are covered by its region lock.
    Touched,
    /// As `Touched`, and S on each read-scan hit after it is read: the
    /// only guard a protocol without region locks has.
    TouchedAndScanned,
}

/// A comparator's lock rule: everything that tells one baseline from
/// another.
pub trait Protocol: Send + Sync + Sized {
    /// The protocol's name in reports.
    const NAME: &'static str;

    /// The objects operations lock besides their regions.
    const OBJECT_LOCKS: ObjectLocks;

    /// The protocol's state over an index of `world`.
    fn new(world: Rect2) -> Self;

    /// Takes the region locks `op` on `rect` needs, before the operation
    /// reads or writes the tree. A refusal has rolled the transaction
    /// back.
    fn region(db: &Baseline<Self>, txn: TxnId, op: Op, rect: &Rect2) -> Result<(), TxnError>;

    /// Releases what the protocol holds outside the lock manager, once
    /// `txn` has committed or rolled back.
    fn release(&self, _txn: TxnId) {}

    /// How many entries the protocol holds outside the lock manager (all
    /// must be released when no transaction is active).
    fn held(&self) -> usize {
        0
    }
}

/// Undo records for the baselines (physical-immediate deletes).
#[derive(Debug)]
enum BaseUndo {
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

/// An R-tree under the comparator protocol `P`.
pub struct Baseline<P> {
    tree: RwLock<RTree2>,
    lm: Arc<LockManager>,
    /// The active transactions, each with its undo log.
    tm: TxnManager<Vec<BaseUndo>>,
    payloads: Mutex<HashMap<ObjectId, u64>>,
    protocol: P,
}

impl<P: Protocol> Baseline<P> {
    /// Creates an empty index.
    pub fn new(rtree: RTreeConfig, world: Rect2, lock: LockManagerConfig) -> Self {
        // The lock manager's own registry is the protocol's one telemetry
        // sink: op counts and commit latency land next to its lock waits.
        let lm = Arc::new(LockManager::new(lock));
        Self {
            tree: RwLock::new(RTree2::new(rtree, world)),
            tm: TxnManager::with_records(Arc::clone(&lm)),
            lm,
            payloads: Mutex::new(HashMap::new()),
            protocol: P::new(world),
        }
    }

    fn check_active(&self, txn: TxnId) -> Result<(), TxnError> {
        if self.tm.is_active(txn) {
            Ok(())
        } else {
            Err(TxnError::NotActive)
        }
    }

    /// Checks that `txn` is active and counts the operation.
    fn start(&self, txn: TxnId, op: Ctr) -> Result<(), TxnError> {
        self.check_active(txn)?;
        self.lm.obs().incr(op);
        Ok(())
    }

    /// A commit-duration lock on `res`; a deadlock or timeout rolls the
    /// transaction back.
    fn lock(&self, txn: TxnId, res: ResourceId, mode: LockMode) -> Result<(), TxnError> {
        let err = match self
            .lm
            .lock(txn, res, mode, Commit, RequestKind::Unconditional)
        {
            LockOutcome::Granted => return Ok(()),
            LockOutcome::Deadlock => TxnError::Deadlock,
            LockOutcome::Timeout => TxnError::Timeout,
            LockOutcome::WouldBlock => unreachable!("unconditional request"),
        };
        self.rollback(txn);
        Err(err)
    }

    /// Locks the object `oid` when the protocol locks objects.
    fn lock_object(&self, txn: TxnId, oid: ObjectId, mode: LockMode) -> Result<(), TxnError> {
        if P::OBJECT_LOCKS == ObjectLocks::None {
            return Ok(());
        }
        self.lock(txn, ResourceId::Object(oid.0), mode)
    }

    /// Rolls the transaction back: undoes physical changes in reverse,
    /// releases its locks, retires the id, then releases what the
    /// protocol holds for it.
    fn rollback(&self, txn: TxnId) {
        {
            // The log is taken under the write latch, which `insert`
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
        self.protocol.release(txn);
    }

    fn push_undo(&self, txn: TxnId, rec: BaseUndo) {
        self.tm
            .record(txn, |undo| undo.push(rec))
            .expect("undo of an active transaction");
    }

    /// Search returning visible hits with payload versions. The baselines
    /// never tombstone, so everything found is visible.
    fn hits(&self, query: &Rect2) -> Vec<ScanHit> {
        let tree = self.tree.read();
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

    /// Bumps an object's payload version. Returns the new version, or
    /// None if absent.
    fn bump(&self, txn: TxnId, oid: ObjectId) -> Option<u64> {
        let mut payloads = self.payloads.lock();
        let slot = payloads.get_mut(&oid)?;
        let old_version = *slot;
        *slot = old_version + 1;
        self.push_undo(txn, BaseUndo::Update { oid, old_version });
        Some(old_version + 1)
    }
}

impl<P: Protocol> TransactionalRTree for Baseline<P> {
    fn begin(&self) -> TxnId {
        self.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.check_active(txn)?;
        let start = Instant::now();
        self.tm.commit(txn);
        self.protocol.release(txn);
        self.lm
            .obs()
            .record(Hist::Commit, start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        self.check_active(txn)?;
        self.rollback(txn);
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.start(txn, Ctr::Inserts)?;
        P::region(self, txn, Op::Insert, &rect)?;
        self.lock_object(txn, oid, X)?;
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

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.start(txn, Ctr::Deletes)?;
        P::region(self, txn, Op::Delete, &rect)?;
        self.lock_object(txn, oid, X)?;
        let mut tree = self.tree.write();
        if !tree.delete(oid, rect) {
            return Ok(false);
        }
        let version = self.payloads.lock().remove(&oid).unwrap_or(1);
        self.push_undo(txn, BaseUndo::Delete { oid, rect, version });
        Ok(true)
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        self.start(txn, Ctr::ReadSingles)?;
        P::region(self, txn, Op::ReadSingle, &rect)?;
        self.lock_object(txn, oid, S)?;
        let tree = self.tree.read();
        Ok(match tree.lookup(oid, rect) {
            Some(_) => self.payloads.lock().get(&oid).copied(),
            None => None,
        })
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.start(txn, Ctr::UpdateSingles)?;
        P::region(self, txn, Op::UpdateSingle, &rect)?;
        self.lock_object(txn, oid, X)?;
        let present = self.tree.read().lookup(oid, rect).is_some();
        Ok(present && self.bump(txn, oid).is_some())
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.start(txn, Ctr::ReadScans)?;
        P::region(self, txn, Op::ReadScan, &query)?;
        let hits = self.hits(&query);
        if P::OBJECT_LOCKS == ObjectLocks::TouchedAndScanned {
            for h in &hits {
                self.lock_object(txn, h.oid, S)?;
            }
        }
        Ok(hits)
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.start(txn, Ctr::UpdateScans)?;
        P::region(self, txn, Op::UpdateScan, &query)?;
        let mut hits = self.hits(&query);
        for h in &mut hits {
            self.lock_object(txn, h.oid, X)?;
            if let Some(v) = self.bump(txn, h.oid) {
                h.version = v;
            }
        }
        Ok(hits)
    }

    fn len(&self) -> usize {
        self.tree.read().len()
    }

    fn validate(&self) -> Result<(), String> {
        let tree = self.tree.read();
        tree.validate(false).map_err(|e| e.to_string())?;
        let objects = tree.all_objects().len();
        let payloads = self.payloads.lock().len();
        if objects != payloads {
            return Err(format!("payload map {payloads} vs tree objects {objects}"));
        }
        if self.protocol.held() > 0 && self.tm.active_count() == 0 {
            return Err(format!("{} leaked entries", P::NAME));
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        P::NAME
    }

    fn obs_registry(&self) -> &Arc<dgl_obs::Registry> {
        self.lm.obs()
    }
}
