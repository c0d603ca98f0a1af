//! The paper's protocol: dynamic granular locking over an R-tree. Table 3
//! itself — every lock set, and the granule → resource mapping — is
//! [`crate::locks`]; the modules below plan, call it and acquire:
//! * [`ops_write`] — Insert (§3.3 growth, §3.4 modified policy, §3.5 node
//!   split), logical Delete (§3.6), UpdateSingle;
//! * [`ops_read`] — ReadSingle, ReadScan, UpdateScan (§3.8);
//! * [`deferred`] — deferred physical deletion, node elimination and
//!   orphan re-insertion (§3.7), run by the commit that made them;
//! * [`latch`] — the tree latch and the plan / validate / apply split;
//! * [`commit`] — transaction record, operation prologue, commit, rollback;
//! * [`payloads`] — the payload table and exact-match hash index;
//! * [`config`] — [`DglConfig`] and [`InsertPolicy`];
//! * this file — the index type, its constructors and the trait impl.

mod commit;
mod config;
mod deferred;
mod durability;
mod latch;
mod mvcc;
mod ops_read;
mod ops_write;
mod payloads;
mod shard;

pub use config::{DglConfig, InsertPolicy};
pub use durability::RecoverError;
pub use mvcc::{MvccStats, Snapshot};
pub use shard::{ShardedDglRTree, ShardedSnapshot, ShardingConfig};

pub(crate) use commit::{LogState, TxnRecord, UndoRecord};
pub(crate) use latch::Latched;
pub(crate) use payloads::PayloadSlot;

use mvcc::{DeadObject, DirtyList, VersionChain};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dgl_hashidx::StripedMap;
use dgl_wal::Wal;

use parking_lot::{Mutex, RwLock};

use dgl_geom::Rect2;
use dgl_lockmgr::{LockManager, TxnId, WaitDomain};
use dgl_rtree::{ObjectId, RTree2};
use dgl_txn::{CommitClock, TxnManager};

use dgl_obs::Registry;

use crate::{TransactionalRTree, TxnError};

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
    /// for MVCC snapshots. Stripes are leaf locks (see [`latch`]).
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
        let mut pending = tree.all_objects();
        pending.retain(|(_, _, tombstone)| tombstone.is_some());
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
        for (oid, rect, _) in pending {
            db.core.run_maintenance(oid, rect);
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
        //   3. release — locks release, the record retires;
        //   4. maintenance — deferred deletions run.
        self.commit_phase_durable(txn)?;
        self.core.stamp_commit_versions(txn);
        let undo = self.commit_release(txn);
        self.commit_maintenance(undo, start);
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
