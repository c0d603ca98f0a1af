//! The paper's protocol: dynamic granular locking over an R-tree.
//!
//! Module layout mirrors the paper's sections:
//! * [`ops_write`] — Insert (§3.3 growth, §3.4 modified policy, §3.5 node
//!   split), logical Delete (§3.6), UpdateSingle;
//! * [`ops_read`] — ReadSingle, ReadScan, UpdateScan (§3.8);
//! * [`deferred`] — deferred physical deletion, node elimination and
//!   orphan re-insertion (§3.7);
//! * this file — the index type, configuration, transaction lifecycle
//!   (commit runs deferred deletions; abort undoes in reverse), and the
//!   latch/lock interplay helpers.
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
//!
//! The same table doubles as the exact-match hash index (ROADMAP item 4,
//! the Griffin-style hybrid): each entry carries the object's leaf page
//! hint and rectangle next to its version chain, maintained write-through
//! under the commit-duration object X lock. Point reads
//! (`read_single_op`, `Snapshot::read_single`) and the insert dup-probe
//! answer from the index in O(1) without traversing the tree — phantom
//! protection is unaffected because exact-match access locks the object
//! resource itself, exactly as the tree path would. Delete, update and
//! their rollback do their tree work at the leaf the slot's hint names
//! ([`DglCore::locate_entry`]), descending only when the hint is stale.

mod deferred;
mod durability;
mod maintenance;
mod mvcc;
mod ops_read;
mod ops_write;
mod shard;

pub use durability::RecoverError;
pub use mvcc::{MvccStats, Snapshot};
pub use shard::{ShardedDglRTree, ShardedSnapshot, ShardingConfig};

use mvcc::{DeadObject, DirtyList, VersionChain};

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dgl_hashidx::StripedMap;
use dgl_wal::Wal;

use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dgl_geom::Rect2;
use dgl_lockmgr::{
    LockDuration, LockManager, LockManagerConfig, LockMode, LockOutcome, RequestKind, ResourceId,
    TxnId, WaitDomain,
};
use dgl_pager::PageId;
use dgl_rtree::{Entry, ObjectId, Orphan, RTree2, RTreeConfig};
use dgl_txn::{CommitClock, TxnManager};

use dgl_obs::{Ctr, Hist, Registry};

use crate::locks::LockList;
use crate::{TransactionalRTree, TxnError};

/// Which insertion policy the protocol runs (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertPolicy {
    /// Every inserter follows all paths overlapping the inserted object
    /// and takes short IX locks on every overlapping granule — the
    /// baseline cover-for-insert / overlap-for-search protocol of §3.3.
    /// This is what the paper's Table 2 measures the I/O overhead of.
    Base,
    /// Only inserters that *change a granule boundary* traverse overlapping
    /// paths, and only for the region the granule grew into — the paper's
    /// §3.4 "modified insertion policy" (encoded in its Table 3). With a
    /// reasonable fanout only 3–4 % of inserters pay the traversal.
    #[default]
    Modified,
}

/// Configuration for [`DglRTree`].
#[derive(Debug, Clone)]
pub struct DglConfig {
    /// R-tree shape (fanout etc.).
    pub rtree: RTreeConfig,
    /// The embedded space `S` (granules must cover it).
    pub world: Rect2,
    /// Insertion policy.
    pub policy: InsertPolicy,
    /// Lock manager configuration. `lock.wait_timeout` is the single
    /// backstop behind deadlock detection: a wait that hits it surfaces as
    /// [`TxnError::Timeout`] (distinct from [`TxnError::Deadlock`]) with
    /// the transaction rolled back.
    pub lock: LockManagerConfig,
    /// Log bytes appended since the last checkpoint that trigger an
    /// automatic one, run at the end of the commit that crossed it.
    /// `None` disables auto-checkpointing; [`DglRTree::checkpoint`]
    /// remains. Only consulted by the directory-backed constructors
    /// ([`DglRTree::open`] / [`DglRTree::recover`]); purely in-memory
    /// indexes ([`DglRTree::new`]) never touch disk regardless.
    pub checkpoint_threshold: Option<u64>,
    /// ABLATION: collapse every external granule onto one shared resource
    /// — the "single extra lockable granule which covers the space that is
    /// not covered by the R-tree leaf granules" design that §3.1 rejects
    /// as a hot spot. Strictly coarser than per-node external granules, so
    /// still sound; measurably less concurrent.
    pub coarse_external_granule: bool,
}

impl Default for DglConfig {
    fn default() -> Self {
        Self {
            rtree: RTreeConfig::default(),
            world: Rect2::unit(),
            policy: InsertPolicy::default(),
            lock: LockManagerConfig::default(),
            checkpoint_threshold: Some(8 << 20),
            coarse_external_granule: false,
        }
    }
}

/// What abort must undo, in reverse order. A checkpoint copies the
/// tree operations of in-flight transactions into its cut record
/// (recovery peels them out of the snapshot image when no commit follows
/// in the log tail). A `LogicalDelete` is also a deferred deletion:
/// commit runs one per entry, in push order
/// ([`DglRTree::commit_release`]).
#[derive(Debug)]
pub(crate) enum UndoRecord {
    Insert { oid: ObjectId, rect: Rect2 },
    LogicalDelete { oid: ObjectId, rect: Rect2 },
    Update { oid: ObjectId, old_version: u64 },
}

/// One active transaction's record in [`DglCore::tm`]: its undo log, in
/// push order, and how far its log records got.
#[derive(Debug, Default)]
pub(crate) struct TxnRecord {
    pub(crate) undo: Vec<UndoRecord>,
    pub(crate) log: LogState,
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

/// A physical deletion deferred to after commit (§3.7).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeferredDelete {
    pub oid: ObjectId,
    pub rect: Rect2,
}

/// One entry of the payload table / hash index: everything exact-match
/// access needs without touching the tree.
///
/// `leaf` is a *hint*: it is updated by the structural paths that move
/// entries (splits, condensation re-inserts) under the exclusive latch,
/// but readers verify it against the tree before trusting it — a stale
/// hint after an unanticipated move degrades to the traversal fallback,
/// never to a wrong answer. `rect` and `chain` are authoritative: they
/// are only ever written under the commit-duration object X lock.
///
/// 64 bytes, one cache line (pinned by a unit test in `mvcc.rs`): a scan
/// reads one slot per hit, and a wider slot costs a second line per hit.
#[derive(Debug)]
pub(crate) struct PayloadSlot {
    /// Leaf page currently believed to hold the object's entry.
    pub leaf: PageId,
    /// The object's bounding rectangle (the exact-match key check).
    pub rect: Rect2,
    /// MVCC version chain; the head is what the locking paths read/bump.
    pub chain: VersionChain,
}

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
/// and wait for nobody ([`mvcc`]). Empty whenever no system operation is
/// mid-flight.
pub(crate) struct Latched {
    tree: RTree2,
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

/// What a shard takes from the index it belongs to, the same for every
/// shard; a single tree owns one of each alone.
#[derive(Clone)]
pub(crate) struct ShardContext {
    /// The MVCC commit clock: one snapshot timestamp means the same thing
    /// on every shard.
    pub(crate) clock: Arc<CommitClock>,
    /// The wait-for domain: one transaction id means the same transaction
    /// in every shard's lock table, so a lock cycle across shards is an
    /// ordinary cycle, refused at block time (DESIGN.md §12).
    pub(crate) domain: Arc<WaitDomain>,
}

impl ShardContext {
    /// A fresh clock, and a domain whose transaction ids start at
    /// `first_txn`.
    pub(crate) fn new(first_txn: u64) -> Self {
        Self {
            clock: Arc::new(CommitClock::new()),
            domain: WaitDomain::new(first_txn),
        }
    }
}

/// The protocol state and implementation behind the public [`DglRTree`]
/// facade.
pub(crate) struct DglCore {
    pub(crate) tree: RwLock<Latched>,
    pub(crate) lm: Arc<LockManager>,
    /// The active transactions and their one record each (undo log and
    /// log state); a leaf lock, like the payload stripes.
    pub(crate) tm: TxnManager<TxnRecord>,
    /// The payload table *and* exact-match hash index: striped map from
    /// object id to leaf hint + rect + version chain (also the
    /// duplicate-oid check). The chain head's value is the payload
    /// version the locking paths read and bump; older entries exist only
    /// for MVCC snapshots. Stripes are leaf locks (see module docs).
    pub(crate) payloads: StripedMap<ObjectId, PayloadSlot>,
    /// Physically removed objects whose versions an active snapshot can
    /// still see (pruned by the version GC). A leaf lock like
    /// `payloads`; taken after it, never before.
    pub(crate) dead: Mutex<Vec<DeadObject>>,
    /// The chains version GC has to look at (see [`DirtyList`] for the
    /// invariant). Leaf locks, taken outside any payload stripe closure.
    pub(crate) dirty: DirtyList,
    /// The MVCC commit clock + active-snapshot registry. Shared across
    /// every shard of a sharded index so one snapshot timestamp is
    /// consistent index-wide. Ordering: the clock's internal mutex may
    /// be held while taking `payloads` (commit stamping), never the
    /// reverse.
    pub(crate) clock: Arc<CommitClock>,
    /// A version-GC pass has been dispatched and not yet finished
    /// (dedupes requests, mirrors `ckpt_pending`).
    pub(crate) gc_pending: AtomicBool,
    /// Snapshot drops since startup (every `GC_EVERY_DROPS`th triggers a
    /// GC dispatch, [`DglRTree::snapshot_dropped`]).
    pub(crate) gc_drops: AtomicU64,
    /// Serializes system operations (post-commit deferred deletions) and
    /// checkpoints. Nobody else takes it — no user transaction and no
    /// snapshot read can ever wait on it — and whoever takes it finds
    /// [`Latched::orphans`] empty ([`Self::assert_no_orphans`]).
    pub(crate) deferred_gate: Mutex<()>,
    pub(crate) policy: InsertPolicy,
    pub(crate) coarse_external: bool,
    /// The one telemetry sink — the same instance the lock manager
    /// reports into. Nothing here steers behaviour; state that does is a
    /// named field (`maint_failed`, `gc_pending`, `ckpt_pending`).
    pub(crate) obs: Arc<Registry>,
    /// A deferred deletion exhausted its retry budget and was dropped;
    /// `quiesce` reports [`TxnError::MaintenanceFailed`] from now on.
    pub(crate) maint_failed: AtomicBool,
    /// The write-ahead log, attached once by the directory-backed
    /// constructors *after* recovery replay (so replayed operations are
    /// not re-logged). Empty for purely in-memory indexes.
    pub(crate) wal: OnceLock<Arc<Wal>>,
    /// Orders commit-record appends against checkpoint cuts: `commit`
    /// appends its record and marks its record `Committed` under a read
    /// guard; the checkpoint captures the undo image and rotates the log
    /// under the write guard — so every commit lands wholly before or
    /// wholly after the cut, never astraddle.
    pub(crate) commit_cut: RwLock<()>,
    /// A threshold-triggered checkpoint has been dispatched and not yet
    /// finished (dedupes auto-checkpoint requests).
    pub(crate) ckpt_pending: AtomicBool,
    /// Bytes appended since the last checkpoint that trigger an automatic
    /// one (`None` disables auto-checkpointing).
    pub(crate) checkpoint_threshold: Option<u64>,
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
        // the retry loop in `maintenance.rs`); only user transactions roll
        // back here.
        if self.core.tm.is_active(self.txn) && !self.core.lm.is_system(self.txn) {
            self.core.obs.incr(Ctr::UnwindRollbacks);
            // Rollback itself must not escalate to a double-panic abort.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.core.rollback_now(self.txn);
            }));
        }
    }
}

/// An R-tree with transactional phantom protection via dynamic granular
/// locking — the system of the ICDE-98 paper.
///
/// See the crate docs for the protocol summary and
/// [`TransactionalRTree`] for the operation interface.
///
/// ```
/// use dgl_core::{DglConfig, DglRTree, Rect2, TransactionalRTree};
/// use dgl_rtree::ObjectId;
///
/// let db = DglRTree::new(DglConfig::default());
/// let t = db.begin();
/// db.insert(t, ObjectId(1), Rect2::new([0.1, 0.1], [0.2, 0.2]))?;
/// // Scans are phantom-protected until commit.
/// let hits = db.read_scan(t, Rect2::new([0.0, 0.0], [0.5, 0.5]))?;
/// assert_eq!(hits.len(), 1);
/// db.commit(t)?;
/// # Ok::<(), dgl_core::TxnError>(())
/// ```
pub struct DglRTree {
    core: DglCore,
}

impl std::fmt::Debug for DglRTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DglRTree")
            .field("policy", &self.core.policy)
            .finish_non_exhaustive()
    }
}

impl DglRTree {
    /// Assembles a core around an existing tree and payload table (shared
    /// tail of every constructor).
    fn build(
        tree: RTree2,
        payloads: StripedMap<ObjectId, PayloadSlot>,
        config: &DglConfig,
        ShardContext { clock, domain }: ShardContext,
    ) -> Self {
        let obs = Arc::new(Registry::new());
        tree.io_stats().attach_obs(Arc::clone(&obs));
        let lm = LockManager::join(config.lock.clone(), Arc::clone(&obs), &domain);
        let core = DglCore {
            tree: RwLock::new(Latched {
                tree,
                orphans: Vec::new(),
            }),
            tm: TxnManager::with_records(Arc::clone(&lm)),
            lm,
            payloads,
            dead: Mutex::new(Vec::new()),
            dirty: DirtyList::new(),
            clock,
            gc_pending: AtomicBool::new(false),
            gc_drops: AtomicU64::new(0),
            deferred_gate: Mutex::new(()),
            policy: config.policy,
            coarse_external: config.coarse_external_granule,
            obs,
            maint_failed: AtomicBool::new(false),
            wal: OnceLock::new(),
            commit_cut: RwLock::new(()),
            ckpt_pending: AtomicBool::new(false),
            checkpoint_threshold: config.checkpoint_threshold,
        };
        Self { core }
    }

    /// Creates an empty index.
    pub fn new(config: DglConfig) -> Self {
        Self::new_in(config, ShardContext::new(1))
    }

    /// Creates an empty index on a caller-provided clock and wait-for
    /// domain (sharded indexes hand every shard the same pair).
    pub(crate) fn new_in(config: DglConfig, context: ShardContext) -> Self {
        let tree = RTree2::new(config.rtree, config.world);
        Self::build(tree, StripedMap::new(), &config, context)
    }

    /// Rebuilds a transactional index around a tree restored from a
    /// snapshot (see `dgl_rtree::image`).
    ///
    /// Snapshots are taken at quiescent points, but a snapshot written by
    /// a crashed process may still contain tombstoned entries whose
    /// deferred physical deletion never ran; those deletes were already
    /// committed, so recovery runs them before returning — the same
    /// system-operation path (removal, condensation, orphan re-insertion)
    /// a live commit uses — so the first user transaction sees a fully
    /// recovered tree. Payload versions are not part of the tree image
    /// and restart at 1.
    ///
    /// `Err(TxnError::MaintenanceFailed)` means the snapshot's pending
    /// deletions could not be applied (an inconsistent or corrupt image):
    /// the caller decides whether to surface, retry from an older
    /// generation, or discard — the process is never taken down.
    pub fn from_snapshot(tree: RTree2, config: DglConfig) -> Result<Self, TxnError> {
        Self::from_snapshot_in(tree, config, ShardContext::new(1))
    }

    /// [`Self::from_snapshot`] on a caller-provided clock and wait-for
    /// domain (used by sharded recovery so every shard shares one pair).
    pub(crate) fn from_snapshot_in(
        tree: RTree2,
        config: DglConfig,
        context: ShardContext,
    ) -> Result<Self, TxnError> {
        // Tombstoned entries are committed-but-unapplied deletions; they
        // stay in the tree (and in `payloads`, keeping their ids reserved)
        // until the system operations below remove them.
        let pending: Vec<DeferredDelete> = tree
            .all_objects()
            .into_iter()
            .filter(|(_, _, tombstone)| tombstone.is_some())
            .map(|(oid, rect, _)| DeferredDelete { oid, rect })
            .collect();
        // Rebuild the hash index from the tree image: it is derived
        // state, so recovery seeds one slot per leaf entry (leaf hint =
        // the page the entry sits on). Restored payload versions restart
        // at 1 as a single bootstrap version (timestamp 0, visible to
        // every snapshot) — version history is not part of the snapshot
        // image.
        let payloads: StripedMap<ObjectId, PayloadSlot> = StripedMap::new();
        for (pid, node) in tree.pages().filter(|(_, n)| n.is_leaf()) {
            for entry in &node.entries {
                if let dgl_rtree::Entry::Object { mbr, oid, .. } = entry {
                    payloads.insert(
                        *oid,
                        PayloadSlot {
                            leaf: pid,
                            rect: *mbr,
                            chain: VersionChain::bootstrap(1),
                        },
                    );
                }
            }
        }
        // Failpoint: crash mid-rebuild, before the index is wired into a
        // core — the recovery crash matrix proves a retry rebuilds an
        // index identical to a fresh build.
        dgl_faults::failpoint!("hashidx/rebuild");
        let db = Self::build(tree, payloads, &config, context);
        // Recovery completes before the first user transaction.
        for d in pending {
            db.core.run_maintenance(d);
        }
        db.quiesce()?;
        debug_assert_eq!(db.core.tm.active_count(), 0);
        Ok(db)
    }

    /// The lock manager (lock-table inspection).
    pub fn lock_manager(&self) -> &Arc<LockManager> {
        &self.core.lm
    }

    /// The observability registry: every counter and histogram this
    /// index, its lock manager and its transaction manager record, and —
    /// in detail mode under the `dgl-obs/full` feature — the structured
    /// event stream.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.core.obs
    }

    /// Renders the wait state a blocking request reasons over: the lock
    /// table (grants and wait queues) and every transaction's record. The
    /// sharded router's variant renders every shard's.
    pub fn merged_locktable_dump(&self) -> String {
        self.core.lm.debug_dump()
    }

    /// Renders the registry as a Prometheus text dump.
    pub fn prometheus_dump(&self) -> String {
        dgl_obs::prometheus_text(&self.core.obs.snapshot())
    }

    /// Number of active transactions, system transactions included.
    pub fn active_txns(&self) -> usize {
        self.core.tm.active_count()
    }

    /// Read access to the underlying tree (experiments; takes the latch).
    pub fn with_tree<T>(&self, f: impl FnOnce(&RTree2) -> T) -> T {
        f(&self.core.latch_shared())
    }

    /// Diagnostic latch probe: `(read_available, write_available)` at this
    /// instant. Debugging aid for hang analysis.
    pub fn latch_probe(&self) -> (bool, bool) {
        let r = self.core.tree.try_read().is_some();
        let w = self.core.tree.try_write().is_some();
        (r, w)
    }

    /// Reports whether every deferred deletion dispatched so far was
    /// applied. It waits for nothing: each `commit` runs its deletions
    /// before it returns, so after `Ok(())` (and absent concurrent
    /// commits) tombstones are gone and their object ids are free again.
    ///
    /// `Err(TxnError::MaintenanceFailed)` means one or more deferred
    /// deletions panicked past their retry budget and were dropped:
    /// tombstoned entries may remain and their ids stay reserved.
    pub fn quiesce(&self) -> Result<(), TxnError> {
        if self.core.maint_failed.load(Ordering::Relaxed) {
            Err(TxnError::MaintenanceFailed)
        } else {
            Ok(())
        }
    }

    // --- commit phases --------------------------------------------------
    //
    // `commit` = phase_durable → stamp_commit_versions → finish. The
    // sharded router drives the phases itself so it can stamp every
    // participant's pending versions under ONE clock critical section
    // (a cross-shard snapshot then sees all of a global transaction's
    // effects or none).

    /// Commit phase 1: make the commit durable (WAL commit record on
    /// disk). On any error the transaction is rolled back and gone; on
    /// `Ok(())` it is still active and holds all its locks, and the
    /// caller must proceed to stamping + [`Self::commit_finish`].
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

    /// Commit phase 3: release locks, run deferred deletions, and
    /// record commit statistics. Infallible; the commit is already
    /// durable and (if versioned) stamped.
    pub(crate) fn commit_finish(&self, txn: TxnId, start: Instant) {
        let deferred = self.commit_release(txn);
        self.commit_maintenance(deferred, start);
    }

    /// Commit phase 3a: release locks and retire the transaction,
    /// returning its deferred deletions *without* dispatching them.
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
    pub(crate) fn commit_release(&self, txn: TxnId) -> Vec<DeferredDelete> {
        // Retiring the record is the first step, so no panic can find the
        // transaction active with its locks held: no unwind guard.
        let undo = self.core.tm.commit(txn).undo;
        undo.into_iter()
            .filter_map(|r| match r {
                UndoRecord::LogicalDelete { oid, rect } => Some(DeferredDelete { oid, rect }),
                _ => None,
            })
            .collect()
    }

    /// Commit phase 3b: run the deferred deletions from
    /// [`Self::commit_release`] and record commit statistics.
    pub(crate) fn commit_maintenance(&self, deferred: Vec<DeferredDelete>, start: Instant) {
        for d in deferred {
            self.core.run_maintenance(d);
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
    // --- latch / payload-table helpers ---------------------------------

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

    // --- latch/lock interplay helpers ----------------------------------

    pub(crate) fn check_active(&self, txn: TxnId) -> Result<(), TxnError> {
        // System transactions (deferred physical deletions) are internal;
        // their ids must not be reachable through the user-facing API —
        // aborting one would kill a maintenance operation mid-flight.
        if self.tm.is_active(txn) && !self.lm.is_system(txn) {
            Ok(())
        } else {
            Err(TxnError::NotActive)
        }
    }

    /// Waits unconditionally for the lock that made a conditional attempt
    /// fail. On deadlock/timeout the transaction is rolled back here and
    /// the error propagated — the caller's operation loop just returns.
    pub(crate) fn wait_or_abort(
        &self,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
        dur: LockDuration,
    ) -> Result<(), TxnError> {
        match self
            .lm
            .lock(txn, res, mode, dur, RequestKind::Unconditional)
        {
            LockOutcome::Granted => Ok(()),
            LockOutcome::Deadlock => {
                self.rollback_now(txn);
                Err(TxnError::Deadlock)
            }
            LockOutcome::Timeout => {
                self.rollback_now(txn);
                Err(TxnError::Timeout)
            }
            LockOutcome::WouldBlock => unreachable!("unconditional request cannot WouldBlock"),
        }
    }

    /// Ends the current operation: releases short-duration locks.
    pub(crate) fn end_op(&self, txn: TxnId) {
        self.tm.end_operation(txn);
    }

    /// Appends `rec` to `txn`'s undo log.
    pub(crate) fn push_undo(&self, txn: TxnId, rec: UndoRecord) {
        self.tm
            .record(txn, |r| r.undo.push(rec))
            .expect("undo of an active transaction");
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
            let mut tree = if needs_latch {
                Some(self.latch_exclusive())
            } else {
                None
            };
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

    pub(crate) fn page(p: PageId) -> ResourceId {
        ResourceId::Page(p)
    }

    /// Lock resource of an *external* granule: the owning non-leaf page,
    /// or the single shared resource under the coarse-granule ablation.
    pub(crate) fn ext_res(&self, p: PageId) -> ResourceId {
        if self.coarse_external {
            ResourceId::Tree
        } else {
            ResourceId::Page(p)
        }
    }

    pub(crate) fn object(o: ObjectId) -> ResourceId {
        ResourceId::Object(o.0)
    }

    // --- hash-index maintenance and consultation ------------------------

    /// Refreshes the leaf hints of every object on leaf page `pid`.
    /// Caller holds the exclusive latch (entries cannot move underneath).
    pub(crate) fn reindex_leaf(&self, tree: &RTree2, pid: PageId) {
        let node = tree.peek_node(pid);
        debug_assert!(node.is_leaf(), "reindex_leaf given a non-leaf page");
        for e in &node.entries {
            if let dgl_rtree::Entry::Object { oid, .. } = e {
                self.payloads.update(oid, |slot| slot.leaf = pid);
            }
        }
    }

    /// Refreshes leaf hints after an insert/re-insert whose apply split
    /// leaf pages: entries may have moved between each level-0 split's
    /// `old_page` and `new_page` (a root split at leaf level shows up
    /// here too — its record names the two fresh halves). Caller holds
    /// the exclusive latch.
    pub(crate) fn reindex_splits(&self, tree: &RTree2, result: &dgl_rtree::InsertResult) {
        for s in result.splits.iter().filter(|s| s.level == 0) {
            self.reindex_leaf(tree, s.old_page);
            self.reindex_leaf(tree, s.new_page);
        }
    }

    /// The leaf holding `(oid, rect)` and the entry's tombstone state there
    /// — the first and only tree access of a delete, an update or their
    /// rollback. Answers from the slot's leaf hint after verifying it
    /// against the tree, so the common case reads one page instead of
    /// descending from the root. A stale hint degrades to a `locate_leaf`
    /// descent and is repaired; an absent slot is a definitive miss (the
    /// table is the authority on liveness — entries are published and
    /// retired under the same latches/locks as the tree entry). Caller
    /// holds a tree latch.
    pub(crate) fn locate_entry(
        &self,
        tree: &RTree2,
        oid: ObjectId,
        rect: Rect2,
    ) -> Option<(PageId, Option<u64>)> {
        match self.payloads.get(&oid, |s| (s.leaf, s.rect)) {
            None => {
                debug_assert_eq!(
                    tree.locate_leaf(oid, rect),
                    None,
                    "object {oid} absent from the hash index but present in the tree"
                );
                self.obs.incr(Ctr::HashHits);
                None
            }
            Some((_, slot_rect)) if slot_rect != rect => {
                // The object exists with a different rectangle; the
                // exact (oid, rect) pair cannot be in the tree.
                debug_assert_eq!(
                    tree.locate_leaf(oid, rect),
                    None,
                    "hash-index rect mismatch for {oid} but tree has the queried rect"
                );
                self.obs.incr(Ctr::HashHits);
                None
            }
            Some((hint, _)) => {
                // The rects agree, so an entry for `oid` on the hinted page
                // is the object's entry.
                if let Some(tombstone) = tree.lookup_at(hint, oid) {
                    self.obs.incr(Ctr::HashHits);
                    return Some((hint, tombstone));
                }
                // Stale hint (the entry moved without a reindex — e.g. a
                // condensation explode): fall back and repair it. Not
                // `find_path`, because the entry may sit in a subtree a
                // system operation holds disconnected mid-condense; it is
                // still present and its leaf granule is still the right
                // lock target.
                self.obs.incr(Ctr::HashMisses);
                let leaf = tree.locate_leaf(oid, rect)?;
                let tombstone = tree.lookup_at(leaf, oid)?;
                self.payloads.update(&oid, |slot| slot.leaf = leaf);
                Some((leaf, tombstone))
            }
        }
    }
}

impl DglCore {
    /// Quiescent-state invariant check (tree shape + payload table /
    /// hash index agreement).
    fn validate_core(&self) -> Result<(), String> {
        let tree = self.latch_shared();
        tree.validate(false).map_err(|e| e.to_string())?;
        // The hash index must exactly describe the live objects: same
        // cardinality, and every slot's rect and leaf hint must agree
        // with a fresh tree lookup — the differential check every
        // quiescent suite (chaos, phantom, recovery, the property test)
        // inherits for free.
        let objects = tree.all_objects();
        if objects.len() != self.payloads.len() {
            return Err(format!(
                "hash index has {} entries, tree has {} objects",
                self.payloads.len(),
                objects.len()
            ));
        }
        for (oid, rect, _) in objects {
            let slot = self.payloads.get(&oid, |s| (s.leaf, s.rect));
            let Some((leaf, slot_rect)) = slot else {
                return Err(format!("object {oid} has no hash-index entry"));
            };
            if slot_rect != rect {
                return Err(format!(
                    "hash-index rect for {oid} is {slot_rect:?}, tree has {rect:?}"
                ));
            }
            if tree.locate_leaf(oid, rect) != Some(leaf) {
                return Err(format!(
                    "hash-index leaf hint for {oid} is {leaf:?}, tree locates {:?}",
                    tree.locate_leaf(oid, rect)
                ));
            }
        }
        // The version-GC invariant, against the full table: a chain with
        // more than one version is on the dirty list (nothing is in a
        // pass's hand at a quiescent point).
        let dirty = self.dirty.ids();
        let mut unlisted = None;
        self.payloads.for_each(|oid, slot| {
            if slot.chain.len() > 1 && dirty.binary_search(oid).is_err() {
                unlisted = Some((*oid, slot.chain.len()));
            }
        });
        if let Some((oid, versions)) = unlisted {
            return Err(format!(
                "object {oid} holds {versions} versions but version GC does not know it"
            ));
        }
        Ok(())
    }
}

impl TransactionalRTree for DglRTree {
    fn begin(&self) -> TxnId {
        self.core.tm.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let start = std::time::Instant::now();
        // Phase split (used directly by the sharded router, which stamps
        // all participants under one clock critical section):
        //   1. durable — commit record on disk, still abortable;
        //   2. stamp — pending versions get the commit timestamp;
        //   3. finish — locks release, deferred deletions run.
        self.commit_phase_durable(txn)?;
        self.core.stamp_commit_versions(txn);
        self.commit_finish(txn, start);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        self.core.check_active(txn)?;
        self.core.rollback_now(txn);
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.core.insert_op(txn, oid, rect)
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.core.delete_op(txn, oid, rect)
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        self.core.read_single_op(txn, oid, rect)
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.core.update_single_op(txn, oid, rect)
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<crate::ScanHit>, TxnError> {
        self.core.read_scan_op(txn, query)
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<crate::ScanHit>, TxnError> {
        self.core.update_scan_op(txn, query)
    }

    fn len(&self) -> usize {
        self.core.latch_shared().len()
    }

    fn validate(&self) -> Result<(), String> {
        // Validation assumes a quiescent state. A deferred deletion that
        // was dropped *is* an invariant violation (its tombstone stays,
        // its id stays reserved) — surface it rather than masking it.
        DglRTree::quiesce(self).map_err(|e| e.to_string())?;
        self.core.validate_core()
    }

    fn name(&self) -> &'static str {
        if self.core.coarse_external {
            return "dgl-coarse-ext";
        }
        match self.core.policy {
            InsertPolicy::Base => "dgl-base",
            InsertPolicy::Modified => "dgl-modified",
        }
    }

    fn quiesce(&self) {
        // The trait method is infallible; a maintenance failure is
        // surfaced via `validate` and the inherent fallible
        // [`DglRTree::quiesce`].
        let _ = DglRTree::quiesce(self);
    }

    fn obs_registry(&self) -> Option<&Arc<Registry>> {
        Some(&self.core.obs)
    }
}

/// Builds a lock list with one entry (helper used across op modules).
pub(crate) fn single_lock(res: ResourceId, mode: LockMode, dur: LockDuration) -> LockList {
    let mut l = LockList::new();
    l.add(res, mode, dur);
    l
}
