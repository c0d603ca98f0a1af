//! Deferred physical deletion (§3.7).
//!
//! The logical delete of §3.6 leaves a tombstoned entry behind; after the
//! deleting transaction commits, the physical removal runs as a *system
//! operation* under a fresh transaction id ("executed as a separate
//! operation"). The system operation:
//!
//! 1. takes a short IX on the leaf granule (short **SIX** if the removal
//!    underfills the node — elimination makes even IX holders lose
//!    coverage), short SIX on every external granule that shrinks during
//!    BR adjustment and on every page the condense pass eliminates;
//! 2. removes the entry, condenses the tree, collects orphans;
//! 3. re-inserts each orphan at its home level — each re-insertion is its
//!    own plan/lock/apply cycle with the insert rules (plus a short SIX on
//!    the target node when the orphan is an index entry, since inserting a
//!    child shrinks that node's external granule);
//! 4. only then releases its short locks — so a *locking* scanner whose
//!    predicate could observe the in-flight orphans is held at an
//!    SIX-locked granule until the subtree is whole again. The exception
//!    is the page of an index orphan (a surviving leaf cut loose with its
//!    eliminated parent): those locks do not cover it, so a locking scan
//!    can miss it (ROADMAP item 0(a), DESIGN.md §13).
//!
//! Between steps 2 and 3 the orphans are out of the tree for several latch
//! sessions. They are not out of sight: the re-insertion queue *is*
//! [`Latched::orphans`](super::Latched), changed only in the exclusive
//! latch session of the tree mutation it mirrors — filled where the entry
//! is removed, popped where an orphan is re-linked. Lock-free snapshot
//! scans search it beside the tree, so they never wait for a system
//! operation.
//!
//! System operations are serialized by a gate (at most one runs at a
//! time; only they and checkpoints ever take it), are exempt from deadlock
//! victim selection (they cannot be rolled back), and retry with backoff
//! if a wait is ever aborted by the timeout backstop. Their lock sets are
//! Table 3's §3.7 rows in [`crate::locks`].
//!
//! # When it runs
//!
//! The paper says the physical removal is "executed as a separate
//! operation", not on which thread. Here it runs on the committing
//! thread: `commit` releases every lock
//! ([`DglRTree::commit_release`](super::DglRTree::commit_release)) and
//! only then runs the transaction's deferred deletions
//! ([`DglRTree::commit_maintenance`](super::DglRTree::commit_maintenance)),
//! one system operation each, followed by a threshold checkpoint when one
//! is due. Version-GC passes run on the thread that drops the triggering
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
//! operation aborts its transaction on unwind ([`SysCleanup`]), so a
//! retry starts from scratch against a consistent tree.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dgl_geom::Rect2;
use dgl_lockmgr::{LockOutcome, RequestKind, TxnId};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::{ObjectId, Orphan};

use crate::locks::Refused;

use super::{DglCore, TxnRecord};

/// Attempts (first run included) a deferred deletion gets before it is
/// dropped and the failure surfaced through `quiesce`.
pub(crate) const MAINT_MAX_ATTEMPTS: u32 = 4;

/// Unwind cleanup for a system operation: if a panic tears through the
/// deletion, the system transaction must not stay registered (its locks
/// would wedge the table and its id would stay system-flagged forever).
/// The retry loop in [`DglCore::run_maintenance`] catches the panic and
/// runs the deletion again; the fresh attempt begins from scratch with a
/// new system id.
struct SysCleanup<'a> {
    core: &'a DglCore,
    sys: TxnId,
    done: bool,
}

impl Drop for SysCleanup<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.core.lm.clear_system(self.sys);
        if self.core.tm.is_active(self.sys) {
            // Abort (not commit): releases the short locks without
            // pretending the half-finished operation completed. The
            // panic sites are mutation-free boundaries, so there is no
            // tree state to undo — and the retry redoes the whole
            // operation anyway.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.core.tm.abort(self.sys);
            }));
        }
    }
}

impl DglCore {
    /// Runs the committed deferred deletion of `(oid, rect)` now,
    /// retrying a panicked attempt within the [`MAINT_MAX_ATTEMPTS`]
    /// budget.
    pub(crate) fn run_maintenance(&self, oid: ObjectId, rect: Rect2) {
        let start = Instant::now();
        for attempt in 1..=MAINT_MAX_ATTEMPTS {
            if catch_unwind(AssertUnwindSafe(|| self.run_deferred_delete(oid, rect))).is_ok() {
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

    /// Runs one deferred physical deletion to completion.
    fn run_deferred_delete(&self, oid: ObjectId, rect: Rect2) {
        // Failpoint before any state changes: a panic here leaves nothing
        // to clean up beyond the guard below, making this the safe place
        // for chaos schedules to kill maintenance work.
        dgl_faults::failpoint!("maint/deferred");
        // One system operation at a time: the in-flight orphan list has
        // one writer.
        let _gate = self.deferred_gate.lock();
        self.assert_no_orphans();
        let sys = self.tm.begin_with(TxnRecord {
            system: true,
            ..TxnRecord::default()
        });
        self.lm.set_system(sys);
        let mut cleanup = SysCleanup {
            core: self,
            sys,
            done: false,
        };
        self.obs.incr(Ctr::DeferredDeletes);

        // Phase 1: remove + condense; publishes the orphans.
        self.deferred_remove_phase(sys, oid, rect);

        // Phase 2: re-insert the published orphans, one latch session
        // each, from the back of the list. Short locks from phase 1
        // remain held until the very end.
        while let Some(orphan) = self.next_orphan() {
            // Failpoint between two latch sessions, orphans out of the
            // tree and no latch held: a Delay spec stretches the window
            // snapshot reads must see through. (A panic here would strand
            // the orphans, like a panic anywhere else in the window.)
            dgl_faults::failpoint!("maint/reinsert");
            self.deferred_reinsert_phase(sys, orphan);
        }

        cleanup.done = true;
        self.lm.clear_system(sys);
        // Releases every short lock of the system operation.
        self.tm.commit(sys);
    }

    /// The orphan the next re-insertion session takes: the back of the
    /// in-flight list (only this system operation changes the list, so it
    /// is still the back when that session pops it).
    fn next_orphan(&self) -> Option<Orphan<2>> {
        self.latch_shared().orphans.last().cloned()
    }

    /// Phase 1: lock (retry loop), then remove the tombstoned entry,
    /// condense, and publish the orphans in the same latch session. A
    /// vanished entry (e.g. the tree was restored from a checkpoint
    /// without its undo log) is a no-op.
    fn deferred_remove_phase(&self, sys: TxnId, oid: ObjectId, rect: Rect2) {
        loop {
            // Same optimistic plan/validate/apply split as user writes:
            // the planning traversal and conditional lock calls run under
            // the shared latch, so a system operation grinding through a
            // big condense no longer stalls every concurrent scan.
            let latch = self.plan_latch();
            // The payload slot's leaf hint, verified by `plan_delete_at`,
            // spares the descent every other leaf containing the rectangle;
            // a stale hint falls back to the search from the root.
            let tree = latch.tree();
            let hint = self.payloads.get(&oid, |slot| slot.leaf);
            let plan = hint
                .and_then(|leaf| tree.plan_delete_at(leaf, oid, rect))
                .or_else(|| tree.plan_delete(oid, rect));
            let Some(plan) = plan else {
                return;
            };
            if let Err(refused) = self.physical_delete_locks(&plan).try_acquire(&self.lm, sys) {
                drop(latch);
                self.system_wait(sys, refused);
                continue;
            }
            let Some(mut apply) = self.upgrade(latch) else {
                continue;
            };
            let mut result = apply.apply_delete(&plan);
            // The orphans leave the tree and enter the in-flight list in
            // one latch session; highest level first, so re-insertion
            // (which pops from the back) starts at the leaf level.
            result.orphans.sort_by_key(|o| std::cmp::Reverse(o.level));
            *apply.orphans() = std::mem::take(&mut result.orphans);
            // Tree entry and index slot vanish atomically under the
            // exclusive latch — the latchless duplicate probe in
            // `insert_op` depends on this. If an active snapshot predates
            // the delete, the version chain is *cloned* to the dead-object
            // side table BEFORE the slot is removed: the latchless
            // snapshot point read consults the index first and the dead
            // list second, so this ordering guarantees it finds the chain
            // in at least one of the two places (the double-visible window
            // is benign — both copies answer identically). Recovery-fed
            // tombstones have only a bootstrap version (timestamp 0), so
            // they can never be retired — no snapshot predates them. No
            // stripe is held during the clock probe or the dead push: the
            // clock mutex and the dead mutex both sit above the stripes.
            let latest = self.payloads.get(&oid, |slot| slot.chain.latest_ts());
            if let Some(latest) = latest {
                let retire = self.clock.min_active().is_some_and(|min| min < latest);
                if retire {
                    let chain = self
                        .payloads
                        .get(&oid, |slot| slot.chain.clone())
                        .expect("slot cannot vanish under the exclusive latch");
                    self.dead
                        .lock()
                        .push(super::mvcc::DeadObject { oid, rect, chain });
                }
                self.payloads.remove(&oid);
            }
            // Root shrink absorbs the only child's entries *into* the root
            // page — no split record, no orphans. When the absorbed child
            // was a leaf, every one of its objects changed page: refresh
            // their leaf hints.
            if result.root_shrank {
                let root = apply.root();
                if apply.peek_node(root).is_leaf() {
                    self.reindex_leaf(&apply, root);
                }
            }
            drop(apply);
            debug_assert_eq!(
                {
                    let mut a = plan.eliminated.clone();
                    a.sort();
                    a
                },
                {
                    let mut b = result.eliminated.clone();
                    b.sort();
                    b
                },
                "delete plan must predict eliminations exactly"
            );
            return;
        }
    }

    /// Phase 2 step: re-insert `orphan` (the back of the in-flight list)
    /// at its home level with the Table 3 re-insertion locks, popping it
    /// in the session that re-links it.
    fn deferred_reinsert_phase(&self, sys: TxnId, orphan: Orphan<2>) {
        loop {
            let latch = self.plan_latch();
            let tree = latch.tree();
            // The home level still exists. An orphan comes from a node the
            // condense pass eliminated, below the root. At minimum fill 1
            // only an empty node is eliminated, leaving no orphan; at
            // minimum fill >= 2 the one child a shrinking root absorbs is
            // off the deletion path and keeps >= 2 entries, so the root
            // drops one level at most. System operations are serialized by
            // the gate, and inserts never lower the root.
            let root_level = tree.peek_node(tree.root()).level;
            assert!(
                orphan.level <= root_level,
                "orphan at level {} above the root's level {root_level}",
                orphan.level
            );
            let plan = tree.plan_insert_at(orphan.entry.mbr(), orphan.level);
            let locks = self.reinsert_locks(tree, &plan, &orphan.entry);
            if let Err(refused) = locks.try_acquire(&self.lm, sys) {
                drop(latch);
                self.system_wait(sys, refused);
                continue;
            }
            let Some(mut apply) = self.upgrade(latch) else {
                continue;
            };
            apply.orphans().pop();
            // An object orphan moves to a (possibly) different leaf —
            // refresh its index leaf hint, plus every entry displaced by
            // splits the re-insertion caused.
            let orphan_oid = orphan.entry.oid();
            let result = apply.apply_reinsert(&plan, orphan.entry);
            if let Some(oid) = orphan_oid {
                self.payloads.update(&oid, |slot| slot.leaf = result.home);
            }
            self.reindex_splits(&apply, &result);
            return;
        }
    }

    /// Unconditional wait for a system operation (its latch dropped),
    /// counting the retry: deadlock verdicts should not reach it (system
    /// transactions are spared by victim selection); timeout verdicts
    /// retry with backoff.
    fn system_wait(&self, sys: TxnId, (res, mode, dur): Refused) {
        self.obs.incr(Ctr::OpRetries);
        self.obs.incr(Ctr::DeferredRetries);
        loop {
            match self
                .lm
                .lock(sys, res, mode, dur, RequestKind::Unconditional)
            {
                LockOutcome::Granted => return,
                LockOutcome::Deadlock | LockOutcome::Timeout => {
                    // Extremely defensive: back off and retry; the other
                    // parties are abortable and will clear the path.
                    let nap = Duration::from_millis(1);
                    std::thread::sleep(nap);
                    self.obs.add(
                        Ctr::MaintBackoffNanos,
                        u64::try_from(nap.as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                LockOutcome::WouldBlock => unreachable!("unconditional request"),
            }
        }
    }
}
