//! A transaction's lifecycle in the core: its record (undo log and log
//! state), the prologue every user operation runs, the wait after a
//! refused lock, the commit phases, and rollback.
//!
//! `commit` = [`DglRTree::commit_phase_durable`] → stamp →
//! [`DglRTree::commit_release`] → [`DglRTree::commit_maintenance`]. Locks
//! release before the deferred deletions run ([`super::deferred`]).

use std::time::Instant;

use dgl_geom::Rect2;
use dgl_lockmgr::{LockOutcome, RequestKind, TxnId};
use dgl_obs::{Ctr, Hist, OpKind, OpKindGuard};
use dgl_rtree::ObjectId;

use crate::locks::Refused;
use crate::TxnError;

use super::{DglCore, DglRTree};

/// What abort must undo, in reverse order. A checkpoint copies the
/// tree operations of in-flight transactions into its cut record
/// (recovery peels them out of the snapshot image when no commit follows
/// in the log tail). A `LogicalDelete` is also a deferred deletion:
/// commit runs one per entry, in push order
/// ([`DglRTree::commit_maintenance`]).
#[derive(Debug)]
pub(crate) enum UndoRecord {
    Insert { oid: ObjectId, rect: Rect2 },
    LogicalDelete { oid: ObjectId, rect: Rect2 },
    Update { oid: ObjectId, old_version: u64 },
}

/// One active transaction's record in [`DglCore::tm`]: its undo log, in
/// push order, how far its log records got, and whether it is a system
/// transaction (a deferred deletion's, marked where it begins). The lock
/// manager keeps its own system mark, for victim selection; this one lets
/// a user operation's prologue refuse a system id in the one visit that
/// finds the transaction active.
#[derive(Debug, Default)]
pub(crate) struct TxnRecord {
    pub(crate) undo: Vec<UndoRecord>,
    pub(crate) log: LogState,
    pub(crate) system: bool,
}

/// A transaction's progress through the write-ahead log (`Unlogged`
/// throughout without one).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogState {
    /// Nothing appended: read-only so far.
    #[default]
    Unlogged,
    /// `Begin` and operation records appended.
    Begun,
    /// A 2PC participant's `Prepare` for global transaction `gtxn` is
    /// appended; in doubt until the coordinator decides.
    Prepared(u64),
    /// The `Commit` record is appended; the `Prepare` gtxn, if any, stays
    /// in doubt until the record retires. A checkpoint cut carries
    /// nothing of it, and a rollback from here (its sync failed, so the
    /// outcome is in doubt) appends no `Abort`.
    Committed(Option<u64>),
}

/// Drop guard armed at the top of every user operation: if a panic
/// unwinds through the operation (an injected fault or a genuine bug),
/// the guard rolls the transaction back — undoing its effects and
/// releasing every lock — so the panicked transaction cannot leave the
/// lock table wedged or half-applied logical state visible. On the
/// normal (non-panicking) path it is free.
///
/// Armed *after* latches are decided per-phase: `rollback_now` takes the
/// exclusive latch itself when the undo log requires it, which is safe
/// here because the panic already unwound the operation's own latch
/// guards ([`ApplyGuard`]'s drop runs first — fields drop in declaration
/// order and locals in reverse order of declaration, and the guard is
/// declared before any latch is taken).
pub(crate) struct UnwindRollback<'a> {
    pub(crate) core: &'a DglCore,
    pub(crate) txn: TxnId,
}

impl Drop for UnwindRollback<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // System transactions have their own cleanup (`SysCleanup`, then
        // the retry loop in `run_maintenance`); only user transactions roll
        // back here.
        if self.core.is_user_txn(self.txn) {
            self.core.obs.incr(Ctr::UnwindRollbacks);
            // Rollback itself must not escalate to a double-panic abort.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.core.rollback_now(self.txn);
            }));
        }
    }
}

/// What a user operation holds while it runs ([`DglCore::begin_op`]):
/// its op-kind scope for wait attribution, and its [`UnwindRollback`].
/// Fields drop in declaration order, so the scope ends before the
/// rollback guard runs.
pub(crate) struct OpGuard<'a> {
    _kind: OpKindGuard,
    _unwind: UnwindRollback<'a>,
}

impl DglRTree {
    // --- commit phases --------------------------------------------------
    //
    // `commit` = phase_durable → stamp_commit_versions → release →
    // maintenance. The sharded router drives the phases itself so it can stamp every
    // participant's pending versions under ONE clock critical section
    // (a cross-shard snapshot then sees all of a global transaction's
    // effects or none).

    /// Commit phase 1: make the commit durable (WAL commit record on
    /// disk). On any error the transaction is rolled back and gone; on
    /// `Ok(())` it is still active and holds all its locks, and the
    /// caller must proceed to stamping, [`Self::commit_release`] and
    /// [`Self::commit_maintenance`].
    pub(crate) fn commit_phase_durable(&self, txn: TxnId) -> Result<(), TxnError> {
        self.core.check_active(txn)?;
        // A panic past this point must not leave the transaction holding
        // locks.
        let _unwind = UnwindRollback {
            core: &self.core,
            txn,
        };
        // Failpoint: abort instead of committing — the clean-abort flavor
        // of a commit-time fault (the Panic flavor exercises the guard).
        dgl_faults::failpoint!("dgl/commit" => {
            self.core.rollback_now(txn);
            TxnError::Injected
        });
        // Durability point: the commit record must be on disk before any
        // lock is released or any effect becomes post-commit (deferred
        // deletions). A flush failure means the commit may or may not be
        // durable (its batch can have partially reached disk before the
        // log died); the transaction is rolled back locally and the
        // caller sees `TxnError::Durability` — in-doubt, resolved by
        // recovery. No *later* commit can succeed off a poisoned log, so
        // the divergence cannot compound.
        let durable = self.core.wal_commit(txn);
        if durable.is_err() {
            self.core.rollback_now(txn);
        }
        durable
    }

    /// Commit phase 3a: release locks and retire the transaction,
    /// returning its undo log — whose `LogicalDelete` records are its
    /// deferred deletions — *without* dispatching them.
    /// Locks must release before any deferred deletion runs: the
    /// deletions execute as *system operations* under fresh ids
    /// ("executed as a separate operation", §3.6) and would otherwise
    /// block on this transaction's own commit-duration locks. The
    /// sharded router relies on the split — a cross-shard commit must
    /// release **every** participant's locks before any shard's inline
    /// maintenance runs, or the system operation can deadlock against
    /// scanners blocked on a sibling participant's still-held locks.
    /// Visibility stays correct in the window: the tombstones persist
    /// until each deferred deletion runs.
    pub(crate) fn commit_release(&self, txn: TxnId) -> Vec<UndoRecord> {
        // Retiring the record is the first step, so no panic can find the
        // transaction active with its locks held: no unwind guard.
        self.core.tm.commit(txn).undo
    }

    /// Commit phase 3b: run the deferred deletions in the undo log from
    /// [`Self::commit_release`], in push order, and record commit
    /// statistics.
    pub(crate) fn commit_maintenance(&self, undo: Vec<UndoRecord>, start: Instant) {
        for rec in undo {
            if let UndoRecord::LogicalDelete { oid, rect } = rec {
                self.core.run_maintenance(oid, rect);
            }
        }
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.core.obs.record(Hist::Commit, nanos);
        // Enough log grew since the last cut? Checkpoint now; the outcome
        // lands in the `checkpoints` / `checkpoint_failures` counters.
        if self.core.should_auto_checkpoint() {
            let _ = self.core.run_checkpoint_guarded();
        }
    }
}

impl DglCore {
    /// The prologue of every user operation: refuses an inactive (or
    /// system) transaction, arms the unwind rollback, opens the op-kind
    /// scope and counts the operation in `ctr`.
    pub(crate) fn begin_op(
        &self,
        txn: TxnId,
        kind: OpKind,
        ctr: Ctr,
    ) -> Result<OpGuard<'_>, TxnError> {
        self.check_active(txn)?;
        let unwind = UnwindRollback { core: self, txn };
        let kind = dgl_obs::op_kind_scope(kind);
        self.obs.incr(ctr);
        Ok(OpGuard {
            _kind: kind,
            _unwind: unwind,
        })
    }

    pub(crate) fn check_active(&self, txn: TxnId) -> Result<(), TxnError> {
        if self.is_user_txn(txn) {
            Ok(())
        } else {
            Err(TxnError::NotActive)
        }
    }

    /// Whether `txn` is an active user transaction. System transactions
    /// (deferred physical deletions) are internal; their ids must not be
    /// reachable through the user-facing API — aborting one would kill a
    /// maintenance operation mid-flight.
    fn is_user_txn(&self, txn: TxnId) -> bool {
        self.tm.record(txn, |r| !r.system).unwrap_or(false)
    }

    /// Waits unconditionally for the lock that made a conditional attempt
    /// fail (the caller has dropped its latch), counting the retry. On
    /// deadlock/timeout the transaction is rolled back here and the error
    /// propagated — the caller's operation loop just returns.
    pub(crate) fn wait_or_abort(
        &self,
        txn: TxnId,
        (res, mode, dur): Refused,
    ) -> Result<(), TxnError> {
        self.obs.incr(Ctr::OpRetries);
        let err = match self
            .lm
            .lock(txn, res, mode, dur, RequestKind::Unconditional)
        {
            LockOutcome::Granted => return Ok(()),
            LockOutcome::Deadlock => TxnError::Deadlock,
            LockOutcome::Timeout => TxnError::Timeout,
            LockOutcome::WouldBlock => unreachable!("unconditional request cannot WouldBlock"),
        };
        self.rollback_now(txn);
        Err(err)
    }

    /// Ends an operation some attempt of which requested a short-duration
    /// lock: releases them. Of the user operations only an insert takes
    /// short locks (Table 3, [`crate::locks`]); the others hold nothing
    /// that ends with the operation, and skip the lock manager here.
    pub(crate) fn end_op(&self, txn: TxnId) {
        self.tm.end_operation(txn);
    }

    /// Applies the undo log and terminates the transaction. Undo runs
    /// while the transaction still holds all its locks, so no other
    /// transaction can observe the intermediate states.
    pub(crate) fn rollback_now(&self, txn: TxnId) {
        // Update records only touch the payload table; an Update-only
        // undo log (the common single-op abort) skips the tree latch
        // entirely so it never stalls behind writers or scans. Peeked
        // (not taken) so the latch decision commits first: a checkpoint
        // captures undo logs and tree image atomically under the
        // shared latch, so the take and the tree undo below must sit
        // inside one exclusive hold — taking the records before
        // latching would open a window where the image has this
        // transaction's operations but the cut record has no undo for
        // them, resurrecting them at recovery.
        let needs_latch = self
            .tm
            .record(txn, |r| {
                r.undo
                    .iter()
                    .any(|u| !matches!(u, UndoRecord::Update { .. }))
            })
            .unwrap_or(false);
        let log = {
            let mut tree = needs_latch.then(|| self.latch_exclusive());
            let (records, log) = self
                .tm
                .record(txn, |r| (std::mem::take(&mut r.undo), r.log))
                .expect("rollback of an active transaction");
            for rec in records.into_iter().rev() {
                match rec {
                    // Both tree undos work at the leaf the slot's hint
                    // names, descending only if it is stale.
                    UndoRecord::Insert { oid, rect } => {
                        let tree = tree.as_mut().expect("insert undo latched the tree");
                        let removed = self
                            .locate_entry(tree, oid, rect)
                            .is_some_and(|(leaf, _)| tree.remove_entry_raw_at(leaf, oid));
                        debug_assert!(removed, "undo of insert found no entry");
                        self.payloads.remove(&oid);
                    }
                    UndoRecord::LogicalDelete { oid, rect } => {
                        let tree = tree.as_mut().expect("delete undo latched the tree");
                        let cleared = self
                            .locate_entry(tree, oid, rect)
                            .is_some_and(|(leaf, _)| tree.clear_tombstone_at(leaf, oid));
                        debug_assert!(cleared, "undo of delete found no tombstone");
                        // Pop the pending delete marker the logical delete
                        // pushed; the prior committed version becomes the
                        // head again.
                        let popped = self
                            .payloads
                            .update(&oid, |slot| slot.chain.pop_pending())
                            .expect("deleted object has a chain");
                        debug_assert!(popped, "delete-marker pop emptied the chain");
                    }
                    UndoRecord::Update { oid, old_version } => {
                        let (popped, current) = self
                            .payloads
                            .update(&oid, |slot| {
                                (slot.chain.pop_pending(), slot.chain.current())
                            })
                            .expect("updated object has a chain");
                        debug_assert!(popped, "update pop emptied the chain");
                        debug_assert_eq!(
                            current,
                            Some(old_version),
                            "update pop did not restore the prior payload"
                        );
                    }
                }
            }
            log
        };
        self.wal_abort(txn, log);
        self.tm.abort(txn);
    }
}
