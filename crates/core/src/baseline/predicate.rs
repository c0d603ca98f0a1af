//! Predicate locking — the approach of Kornacker, Mohan & Hellerstein for
//! GiSTs, the comparator of the paper's §4 / Table 4.
//!
//! Scans register their search rectangle as a *predicate* attached to the
//! transaction; writers check the rectangle of the object they touch
//! against every registered predicate of other active transactions and
//! wait while any conflicting (S-vs-X) predicate overlaps. Predicates are
//! held to commit. Object-level locks (via the shared lock manager) handle
//! direct object conflicts.
//!
//! This gives precise logical protection — no granule approximation, no
//! extra I/O — at the cost the paper calls out: every write scans the
//! predicate table (`predicate_checks` in the statistics counts the
//! rectangle comparisons), and conflicts are resolved by timeout rather
//! than a waits-for graph (predicate waits are not lock-table waits).

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

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

/// Predicate access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredMode {
    /// A scan predicate (shared).
    Read,
    /// A write region (an inserted/deleted object's rectangle).
    Write,
}

#[derive(Debug, Clone, Copy)]
struct PredEntry {
    txn: TxnId,
    rect: Rect2,
    mode: PredMode,
}

/// Configuration for [`PredicateRTree`].
#[derive(Debug, Clone)]
pub struct PredicateConfig {
    /// R-tree shape.
    pub rtree: RTreeConfig,
    /// Embedded space.
    pub world: Rect2,
    /// Lock manager configuration (object locks).
    pub lock: LockManagerConfig,
}

/// How long a predicate wait may last before the transaction is aborted
/// (predicate waits resolve deadlocks by timeout; short, so symmetric
/// conflicts resolve fast).
const PREDICATE_TIMEOUT: Duration = Duration::from_millis(400);

impl Default for PredicateConfig {
    fn default() -> Self {
        Self {
            rtree: RTreeConfig::default(),
            world: Rect2::unit(),
            lock: LockManagerConfig::default(),
        }
    }
}

/// GiST-style predicate-locking R-tree.
pub struct PredicateRTree {
    inner: BaseInner,
    preds: Mutex<Vec<PredEntry>>,
    preds_changed: Condvar,
}

impl PredicateRTree {
    /// Creates an empty index.
    pub fn new(config: PredicateConfig) -> Self {
        Self {
            inner: BaseInner::new(config.rtree, config.world, config.lock),
            preds: Mutex::new(Vec::new()),
            preds_changed: Condvar::new(),
        }
    }

    /// Current predicate-table size (testing aid).
    pub fn predicate_count(&self) -> usize {
        self.preds.lock().len()
    }

    /// Waits until `rect` in `mode` conflicts with no predicate of another
    /// active transaction, then registers it.
    fn register_predicate(&self, txn: TxnId, rect: Rect2, mode: PredMode) -> Result<(), TxnError> {
        self.register_predicates(txn, &[(rect, mode)])
    }

    /// Atomically registers a *set* of predicates: waits until none of
    /// them conflicts, then installs them all. Operations needing both a
    /// Read and a Write predicate (delete, update-scan) must use this —
    /// registering them one at a time creates the classic upgrade
    /// deadlock (two update-scans each install Read, then mutually block
    /// on Write), which, with predicate waits resolved only by timeout,
    /// stalls both transactions for the full timeout.
    ///
    /// Conflict rule: a Read predicate conflicts with an overlapping
    /// Write predicate of another transaction and vice versa (Read/Read
    /// and Write/Write do not conflict; direct object conflicts are the
    /// object locks' business).
    fn register_predicates(
        &self,
        txn: TxnId,
        wanted: &[(Rect2, PredMode)],
    ) -> Result<(), TxnError> {
        let deadline = Instant::now() + PREDICATE_TIMEOUT;
        let mut table = self.preds.lock();
        loop {
            let mut checks = 0u64;
            let conflict = table.iter().any(|p| {
                wanted.iter().any(|(rect, mode)| {
                    checks += 1;
                    p.txn != txn && p.mode != *mode && p.rect.intersects(rect)
                })
            });
            self.inner.obs().add(Ctr::PredicateChecks, checks);
            if !conflict {
                for (rect, mode) in wanted {
                    table.push(PredEntry {
                        txn,
                        rect: *rect,
                        mode: *mode,
                    });
                }
                return Ok(());
            }
            if self
                .preds_changed
                .wait_until(&mut table, deadline)
                .timed_out()
            {
                drop(table);
                self.inner.rollback_now(txn);
                self.drop_predicates(txn);
                // Predicate waits are resolved by timeout, not a waits-for
                // graph; symmetric workloads (every transaction scans then
                // inserts into the same region) otherwise stampede: all
                // parties time out together, retry together, and collide
                // again. A jittered backoff breaks the symmetry — this is
                // the engineering cost of predicate locking the paper's §4
                // alludes to.
                let jitter = u64::from(txn.0 as u32 % 17) * 3 + 1;
                std::thread::sleep(Duration::from_millis(jitter));
                return Err(TxnError::Timeout);
            }
        }
    }

    fn drop_predicates(&self, txn: TxnId) {
        let mut table = self.preds.lock();
        table.retain(|p| p.txn != txn);
        drop(table);
        self.preds_changed.notify_all();
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
                self.drop_predicates(txn);
                Err(TxnError::Deadlock)
            }
            LockOutcome::Timeout => {
                self.inner.rollback_now(txn);
                self.drop_predicates(txn);
                Err(TxnError::Timeout)
            }
            LockOutcome::WouldBlock => unreachable!("unconditional request"),
        }
    }
}

impl TransactionalRTree for PredicateRTree {
    fn begin(&self) -> TxnId {
        self.inner.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.tm.commit(txn);
        self.drop_predicates(txn);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.rollback_now(txn);
        self.drop_predicates(txn);
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Inserts);
        self.register_predicate(txn, rect, PredMode::Write)?;
        self.obj_lock(txn, oid, X)?;
        match self.inner.do_insert(txn, oid, rect) {
            Ok(()) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::Deletes);
        // A delete both *reads* the region (it verifies presence/absence —
        // the not-found answer must be repeatable) and writes it; the pair
        // installs atomically to avoid the upgrade deadlock.
        self.register_predicates(txn, &[(rect, PredMode::Read), (rect, PredMode::Write)])?;
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
        self.register_predicate(txn, query, PredMode::Read)?;
        let tree = self.inner.tree.read();
        Ok(self.inner.hits(&tree, &query))
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.inner.check_active(txn)?;
        self.inner.obs().incr(Ctr::UpdateScans);
        // SIX-equivalent: both a read predicate (repeatable hit set) and a
        // write predicate (other scans must not read past us), installed
        // atomically to avoid the upgrade deadlock.
        self.register_predicates(txn, &[(query, PredMode::Read), (query, PredMode::Write)])?;
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
        self.inner.validate_impl()?;
        if !self.preds.lock().is_empty() && self.inner.tm.active_count() == 0 {
            return Err("predicate table leaked entries".into());
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "predicate (GiST-style)"
    }

    fn obs_registry(&self) -> Option<&std::sync::Arc<dgl_obs::Registry>> {
        Some(self.inner.obs())
    }
}
