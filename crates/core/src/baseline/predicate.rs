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
use dgl_lockmgr::TxnId;
use dgl_obs::Ctr;

use crate::TxnError;

use super::{Baseline, ObjectLocks, Op, Protocol};

/// GiST-style predicate-locking R-tree.
pub type PredicateRTree = Baseline<Predicate>;

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

/// How long a predicate wait may last before the transaction is aborted
/// (predicate waits resolve deadlocks by timeout; short, so symmetric
/// conflicts resolve fast).
const PREDICATE_TIMEOUT: Duration = Duration::from_millis(400);

/// The predicate table of [`PredicateRTree`], and its lock rule.
pub struct Predicate {
    preds: Mutex<Vec<PredEntry>>,
    preds_changed: Condvar,
}

impl Predicate {
    /// Atomically registers predicates on `rect` in each of `modes`: waits
    /// until none of them conflicts, then installs them all. Operations
    /// needing both a Read and a Write predicate (delete, update-scan)
    /// must register them together — registering them one at a time
    /// creates the classic upgrade deadlock (two update-scans each install
    /// Read, then mutually block on Write), which, with predicate waits
    /// resolved only by timeout, stalls both transactions for the full
    /// timeout.
    ///
    /// Conflict rule: a Read predicate conflicts with an overlapping
    /// Write predicate of another transaction and vice versa (Read/Read
    /// and Write/Write do not conflict; direct object conflicts are the
    /// object locks' business).
    fn register(
        db: &Baseline<Self>,
        txn: TxnId,
        rect: &Rect2,
        modes: &[PredMode],
    ) -> Result<(), TxnError> {
        let this = &db.protocol;
        let deadline = Instant::now() + PREDICATE_TIMEOUT;
        let mut table = this.preds.lock();
        loop {
            let mut checks = 0u64;
            let conflict = table.iter().any(|p| {
                modes.iter().any(|mode| {
                    checks += 1;
                    p.txn != txn && p.mode != *mode && p.rect.intersects(rect)
                })
            });
            db.lm.obs().add(Ctr::PredicateChecks, checks);
            if !conflict {
                for &mode in modes {
                    table.push(PredEntry {
                        txn,
                        rect: *rect,
                        mode,
                    });
                }
                return Ok(());
            }
            if this
                .preds_changed
                .wait_until(&mut table, deadline)
                .timed_out()
            {
                drop(table);
                db.rollback(txn);
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
}

impl Protocol for Predicate {
    const NAME: &'static str = "predicate (GiST-style)";
    const OBJECT_LOCKS: ObjectLocks = ObjectLocks::Touched;

    fn new(_world: Rect2) -> Self {
        Self {
            preds: Mutex::new(Vec::new()),
            preds_changed: Condvar::new(),
        }
    }

    fn region(db: &Baseline<Self>, txn: TxnId, op: Op, rect: &Rect2) -> Result<(), TxnError> {
        use PredMode::{Read, Write};
        let modes: &[PredMode] = match op {
            Op::ReadSingle | Op::UpdateSingle => return Ok(()),
            Op::Insert => &[Write],
            Op::ReadScan => &[Read],
            // A delete both *reads* the region (it verifies presence or
            // absence — the not-found answer must be repeatable) and
            // writes it; an update scan needs a repeatable hit set and
            // must keep other scans from reading past it (SIX-equivalent).
            // Both pairs install atomically to avoid the upgrade deadlock.
            Op::Delete | Op::UpdateScan => &[Read, Write],
        };
        Self::register(db, txn, rect, modes)
    }

    fn release(&self, txn: TxnId) {
        let mut table = self.preds.lock();
        table.retain(|p| p.txn != txn);
        drop(table);
        self.preds_changed.notify_all();
    }

    fn held(&self) -> usize {
        self.preds.lock().len()
    }
}
