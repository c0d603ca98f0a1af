//! Deferred work: what a commit runs after it has released its locks.
//!
//! §3.6 makes Delete logical (a tombstone) and §3.7 runs the physical
//! removal — node elimination and orphan re-insertion included — as a
//! *system operation* after the deleting transaction commits. The paper
//! says it is "executed as a separate operation", not on which thread.
//! Here it runs on the committing thread: `commit` releases every lock
//! (`commit_release`) and only then runs the transaction's deferred
//! deletions (`commit_maintenance`), one system operation each (fresh
//! transaction id, conditional-then-wait locking, deadlock-victim
//! exemption), followed by a threshold checkpoint when one is due.
//! Version-GC passes run on the thread that drops the triggering
//! snapshot.
//!
//! Between `tm.commit` and the system operation, tombstoned entries are
//! invisible to scans and reads, and the object id stays reserved
//! (inserts of it report `DuplicateObject`) until the physical deletion
//! removes the payload entry.
//!
//! # Panic containment
//!
//! A deferred deletion that panics (an injected fault, or a genuine bug)
//! is still a *committed* deletion. Each attempt therefore runs under
//! `catch_unwind`, and a panicked one is retried, up to
//! [`MAINT_MAX_ATTEMPTS`] attempts in all. Out of budget, the deletion is
//! dropped and the core's `maint_failed` flag is raised (and counted);
//! `quiesce` reports [`TxnError::MaintenanceFailed`](crate::TxnError)
//! from then on instead of pretending the tree is clean. The system
//! operation aborts its transaction on unwind (see `deferred.rs`), so a
//! retry starts from scratch against a consistent tree.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;

use dgl_obs::{Ctr, Hist};

use super::{DeferredDelete, DglCore};

/// Attempts (first run included) a deferred deletion gets before it is
/// dropped and the failure surfaced through `quiesce`.
pub(crate) const MAINT_MAX_ATTEMPTS: u32 = 4;

impl DglCore {
    /// Runs one committed deferred deletion now, retrying a panicked
    /// attempt within the [`MAINT_MAX_ATTEMPTS`] budget.
    pub(crate) fn run_maintenance(&self, d: DeferredDelete) {
        let start = Instant::now();
        for attempt in 1..=MAINT_MAX_ATTEMPTS {
            if catch_unwind(AssertUnwindSafe(|| self.run_deferred_delete(d))).is_ok() {
                self.obs.incr(Ctr::MaintCompleted);
                self.obs.record(
                    Hist::MaintDrain,
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                return;
            }
            self.obs.incr(Ctr::MaintPanics);
            if attempt < MAINT_MAX_ATTEMPTS {
                self.obs.incr(Ctr::MaintRequeues);
            }
        }
        self.maint_failed.store(true, Ordering::Relaxed);
        self.obs.incr(Ctr::MaintFailed);
    }
}
