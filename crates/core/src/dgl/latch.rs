//! The tree latch: what it protects, and the optimistic plan / validate /
//! apply split every write runs under it.
//!
//! # Latch vs lock discipline: optimistic plan / validate / apply
//!
//! Physical consistency uses a tree latch (`RwLock`). Scans latch shared.
//! Write operations run an **optimistic latch-coupling** split:
//!
//! 1. **Plan, shared.** Under the *shared* latch the operation runs its
//!    read-only planning traversal (`plan_insert`/`plan_delete`, predicted
//!    split-sibling page ids), records the tree's structure version,
//!    builds the Table-3 lock list and acquires every lock
//!    **conditionally** — concurrent scans *and other planners* proceed in
//!    parallel the whole time.
//! 2. **Validate + apply, exclusive.** The shared latch is dropped, the
//!    *exclusive* latch taken, and the recorded version compared against
//!    the tree. Unchanged ⇒ the plan (and its page-id predictions) is
//!    still byte-exact, and the mutation is applied — the exclusive hold
//!    is just this short apply step. Changed ⇒ another writer slipped in;
//!    the attempt replans from step 1. Replans are cheap and
//!    starvation-free in practice: locks acquired by the stale attempt are
//!    retained (2PL) and re-grant instantly, and every version bump means
//!    some other writer completed.
//!
//! This preserves the paper's requirement that locks be negotiated
//! *before modification* (§3.3, Table 3): validation proves the tree the
//! locks were computed against is the tree being modified, so the lock
//! set is exactly what planning under the exclusive latch would have
//! taken — only the latch mode during planning differs, which the paper
//! leaves to the orthogonal physical-consistency protocol.
//!
//! If a conditional lock request would block (either phase), the attempt
//! aborts cleanly: all latches are dropped, the lock is awaited
//! *unconditionally* (this is where deadlock detection applies), and the
//! whole operation replans — the paper's reason for requiring conditional
//! requests from the lock manager. Locks acquired by failed attempts are
//! retained (releasing mid-transaction would break 2PL); they are
//! re-granted instantly on retry.
//!
//! ## Latch → `payloads` ordering
//!
//! The payload table (`DglCore::payloads`) is a striped hash index
//! ([`dgl_hashidx::StripedMap`]) whose stripes are leaf locks: a thread
//! may take a stripe while holding the tree latch (either mode), but
//! must never acquire or wait for the tree latch while inside a stripe
//! closure. The closure-scoped `StripedMap` API makes escaping a stripe
//! guard impossible, and the latch helpers debug-assert
//! `dgl_hashidx::stripes_held() == 0` to enforce the ordering. The MVCC
//! commit clock's internal mutex sits *above* the stripes (commit
//! stamping holds the clock while touching `payloads`); never touch the
//! clock from inside a stripe closure.

use std::ops::{Deref, DerefMut};
use std::time::Instant;

use parking_lot::{RwLockReadGuard, RwLockWriteGuard};

use dgl_geom::Rect2;
use dgl_obs::{Ctr, Hist, Registry};
use dgl_rtree::{Entry, ObjectId, Orphan, RTree2};

use super::DglCore;

/// What the tree latch protects: the tree, and the entries a deferred
/// deletion currently holds out of it.
///
/// `orphans` is the re-insertion queue of the one system operation in
/// flight (§3.7): filled by the latch session that removes and condenses,
/// popped by the session that re-links an entry, an index entry swapped
/// for its objects by the session that explodes it. Living inside the
/// latch makes the invariant structural — every change to the list shares
/// an exclusive hold with the tree mutation it mirrors — so under any one
/// shared hold *tree ∪ orphans ∪ dead list* is a partition of the
/// committed objects. That is what lets snapshot reads search all three
/// and wait for nobody ([`super::mvcc`]). Empty whenever no system
/// operation is mid-flight.
pub(crate) struct Latched {
    pub(super) tree: RTree2,
    pub(crate) orphans: Vec<Orphan<2>>,
}

impl Latched {
    /// Exact lookup of `(oid, rect)` that also sees an in-flight object
    /// orphan (shadows [`RTree2::lookup`], which already finds entries
    /// inside an orphaned subtree through `locate_leaf`'s store scan).
    pub(crate) fn lookup(&self, oid: ObjectId, rect: Rect2) -> Option<Option<u64>> {
        self.tree.lookup(oid, rect).or_else(|| {
            self.orphans.iter().find_map(|o| match o.entry {
                Entry::Object {
                    mbr,
                    oid: orphan,
                    tombstone,
                } if orphan == oid && mbr == rect => Some(tombstone),
                _ => None,
            })
        })
    }
}

impl Deref for Latched {
    type Target = RTree2;
    fn deref(&self) -> &RTree2 {
        &self.tree
    }
}

impl DerefMut for Latched {
    fn deref_mut(&mut self) -> &mut RTree2 {
        &mut self.tree
    }
}

/// The latch a write operation holds while planning: the *shared* latch
/// plus the structure version it was acquired at. [`DglCore::upgrade`]
/// trades it for the exclusive [`ApplyGuard`] once planning and
/// conditional lock acquisition succeed.
pub(crate) struct PlanLatch<'a> {
    guard: RwLockReadGuard<'a, Latched>,
    planned_version: u64,
}

impl PlanLatch<'_> {
    /// Read access to the tree for the planning traversal.
    pub(crate) fn tree(&self) -> &RTree2 {
        &self.guard
    }
}

/// Exclusive tree latch held for the apply step. Dropping it records the
/// hold duration in [`Hist::LatchHold`] — the quantity the optimistic
/// split exists to shrink.
pub(crate) struct ApplyGuard<'a> {
    guard: RwLockWriteGuard<'a, Latched>,
    obs: &'a Registry,
    start: Instant,
}

impl Deref for ApplyGuard<'_> {
    type Target = RTree2;
    fn deref(&self) -> &RTree2 {
        &self.guard
    }
}

impl DerefMut for ApplyGuard<'_> {
    fn deref_mut(&mut self) -> &mut RTree2 {
        &mut self.guard
    }
}

impl ApplyGuard<'_> {
    /// The in-flight orphan list, writable — handed out by the exclusive
    /// latch only, so no change to it can leave the latch session of the
    /// tree mutation it mirrors.
    pub(crate) fn orphans(&mut self) -> &mut Vec<Orphan<2>> {
        &mut self.guard.orphans
    }
}

impl Drop for ApplyGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A panic is unwinding through the apply phase while we hold
            // the exclusive latch. Before releasing it: (a) bump the
            // structure version so any concurrently planned write fails
            // validation instead of applying against a tree it did not
            // plan for, and (b) re-check structural invariants — the
            // injected-fault sites only panic at mutation-free boundaries,
            // so a failure here is a genuine invariant breach that chaos
            // tests must see. `catch_unwind` keeps a (hypothetical) panic
            // inside validation from escalating to a double-panic abort.
            self.obs.incr(Ctr::ApplyUnwinds);
            self.guard.invalidate_plans();
            let intact = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.guard.validate(false).is_ok()
            }))
            .unwrap_or(false);
            if !intact {
                self.obs.incr(Ctr::UnwindValidateFailures);
            }
        }
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(Hist::LatchHold, nanos);
    }
}

impl DglCore {
    #[track_caller]
    fn assert_no_payloads_held() {
        debug_assert_eq!(
            dgl_hashidx::stripes_held(),
            0,
            "latch → payloads ordering violated: this thread is inside a \
             payload-table stripe closure while acquiring the tree latch"
        );
    }

    /// Called with the system-operation gate just taken: the previous
    /// holder re-linked every orphan before it let go, so nothing is out
    /// of the tree.
    pub(crate) fn assert_no_orphans(&self) {
        assert!(
            self.latch_shared().orphans.is_empty(),
            "condensation orphans outlived their system operation"
        );
    }

    /// Shared tree latch (scans, planning). Asserts the latch →
    /// `payloads` ordering in debug builds.
    pub(crate) fn latch_shared(&self) -> RwLockReadGuard<'_, Latched> {
        Self::assert_no_payloads_held();
        self.tree.read()
    }

    /// Exclusive tree latch with hold-time accounting. Every mutation of
    /// the tree goes through the returned [`ApplyGuard`] (directly here,
    /// or via [`Self::upgrade`]).
    pub(crate) fn latch_exclusive(&self) -> ApplyGuard<'_> {
        Self::assert_no_payloads_held();
        let guard = self.tree.write();
        ApplyGuard {
            guard,
            obs: &self.obs,
            start: Instant::now(),
        }
    }

    /// Starts a write attempt's planning phase: shared latch + recorded
    /// structure version.
    pub(crate) fn plan_latch(&self) -> PlanLatch<'_> {
        let guard = self.latch_shared();
        let planned_version = guard.version();
        PlanLatch {
            guard,
            planned_version,
        }
    }

    /// Trades the planning latch for the exclusive apply latch,
    /// validating the structure version. `None` means the plan is stale
    /// (another writer applied in between) and the caller must replan —
    /// its locks are retained per 2PL and re-grant instantly on the next
    /// attempt.
    pub(crate) fn upgrade<'a>(&'a self, plan: PlanLatch<'a>) -> Option<ApplyGuard<'a>> {
        let planned_version = plan.planned_version;
        drop(plan);
        let apply = self.latch_exclusive();
        // Failpoint: force a validation failure (stale plan) to exercise
        // the replan loop under chaos.
        let forced_stale = dgl_faults::fired!("dgl/validate");
        if apply.version() == planned_version && !forced_stale {
            Some(apply)
        } else {
            drop(apply);
            self.obs.incr(Ctr::PlanValidationFailures);
            None
        }
    }
}
