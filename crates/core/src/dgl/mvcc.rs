//! MVCC snapshot reads: versioned payloads and a zero-lock scan path.
//!
//! The paper's protocol serializes readers against writers with
//! commit-duration granule locks — a scan-heavy workload therefore pays
//! lock-manager traffic (and waits) for every region scan even when it
//! could tolerate reading a slightly stale but *consistent* state. This
//! module adds the classic remedy on top of the unchanged 2PL protocol:
//!
//! * Every object's payload version lives in a [`VersionChain`] — a
//!   newest-first list of `(commit timestamp, value)` pairs, where the
//!   value is the payload version number and `None` is a delete marker.
//!   The common case (an object written once and never updated) stays a
//!   single inline [`Version`] with an empty spill vector.
//! * Writers are untouched: they create versions stamped
//!   [`TS_PENDING`], and `commit` stamps every pending version with one
//!   timestamp freshly allocated from the shared
//!   [`CommitClock`](dgl_txn::CommitClock) — *inside* the clock's
//!   critical section, so no snapshot can observe a half-stamped commit
//!   (the same holds across shards: the 2PC router stamps every
//!   participant in one clock call).
//! * [`DglRTree::begin_snapshot`] registers a read timestamp and returns
//!   a [`Snapshot`] whose `read_scan`/`read_single` traverse under the
//!   shared tree latch and resolve visibility against that timestamp —
//!   **zero lock-manager requests**, never blocking writers and never
//!   blocked by them. Serializable transactions keep the full Table-3
//!   locking discipline.
//! * Physically removed objects whose versions an active snapshot can
//!   still see are retired to a *dead-object* side list instead of
//!   vanishing; snapshot scans consult it alongside the live chains.
//! * A maintenance task ([`DglCore::run_version_gc`]) prunes versions
//!   below the min-active-snapshot watermark — dispatched when snapshots
//!   are dropped, and explicitly via [`DglRTree::dispatch_version_gc`].
//!
//! # Why snapshot scans cannot miss committed objects
//!
//! A snapshot scan holds the shared tree latch, so the tree it searches
//! is structurally consistent — with one exception the lock protocol
//! papers over for locking scans: a deferred physical deletion spans
//! several latch sessions while orphans from node condensation await
//! re-insertion, and locking scans are held out by its short SIX granule
//! locks. Snapshot scans take no locks, so they take the system-operation
//! gate in *shared* mode instead ([`DglCore::deferred_gate`] is a
//! `RwLock`): system operations and checkpoints hold it exclusively, so
//! a snapshot scan never observes the tree mid-condensation, and
//! concurrent snapshot scans never serialize against each other.
//!
//! # The gate and lock holders
//!
//! A deferred deletion keeps the gate exclusive *across its own lock
//! waits* (orphans are out of the tree for the whole multi-latch window,
//! so it cannot release early), and the lock manager cannot see the gate.
//! A thread that holds granule locks of an active locking transaction may
//! therefore complete a cycle by waiting for the gate: the system
//! operation may be waiting for exactly those locks. [`SnapshotReadRTree`]
//! handles this for transactions mixing writes and snapshot reads with the
//! *watched* gate wait ([`DglCore::gate_read_watched`]): the wait is
//! registered where the detector thread reads it as a wait-for edge, a
//! genuine cycle is wounded (the transaction rolls back with
//! [`TxnError::Deadlock`]), an innocent wait — behind a system operation
//! or a checkpoint — simply lasts as long as its holder, and the stall
//! watchdog reports it past its threshold. There is no bounded variant.
//! Users of the raw [`Snapshot`] handle must keep it off threads that
//! hold granule locks.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_obs::{Ctr, Hist, Registry};
use dgl_rtree::ObjectId;

use crate::{ScanHit, TransactionalRTree, TxnError};

use super::{DglCore, DglRTree, UndoRecord};

/// Timestamp of a version created by a not-yet-committed transaction.
/// Greater than every real timestamp, so pending versions are invisible
/// to every snapshot until `commit` stamps them.
pub(crate) const TS_PENDING: u64 = u64::MAX;

/// One committed (or pending) payload state of an object: the payload
/// version number, or `None` for a delete marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Version {
    pub(crate) ts: u64,
    pub(crate) value: Option<u64>,
}

/// Newest-first version history of one object. The head is inline — the
/// single-version common case allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct VersionChain {
    head: Version,
    /// Strictly older than `head`, newest first. Empty in the common
    /// case.
    older: Vec<Version>,
}

impl VersionChain {
    /// A chain holding one committed version stamped 0 — visible to every
    /// snapshot. Used for objects restored from a tree image, whose real
    /// commit timestamps did not survive the crash.
    pub(crate) fn bootstrap(value: u64) -> Self {
        Self {
            head: Version {
                ts: 0,
                value: Some(value),
            },
            older: Vec::new(),
        }
    }

    /// A chain holding one pending version (a fresh insert).
    pub(crate) fn pending(value: u64) -> Self {
        Self {
            head: Version {
                ts: TS_PENDING,
                value: Some(value),
            },
            older: Vec::new(),
        }
    }

    /// The newest value regardless of timestamp — what the locking read
    /// path reports (its 2PL locks already guarantee the head is either
    /// committed or this transaction's own pending write). `None` is a
    /// delete marker.
    pub(crate) fn current(&self) -> Option<u64> {
        self.head.value
    }

    /// The head's timestamp ([`TS_PENDING`] while uncommitted).
    pub(crate) fn latest_ts(&self) -> u64 {
        self.head.ts
    }

    /// Total stored versions.
    pub(crate) fn len(&self) -> u64 {
        1 + self.older.len() as u64
    }

    /// Pushes a new pending head, demoting the current head.
    pub(crate) fn push_pending(&mut self, value: Option<u64>) {
        self.older.insert(0, self.head);
        self.head = Version {
            ts: TS_PENDING,
            value,
        };
    }

    /// Rollback: removes the pending head, promoting the next version.
    /// Returns `false` if that emptied the chain (an aborted insert with
    /// no history — the caller removes the map entry).
    pub(crate) fn pop_pending(&mut self) -> bool {
        debug_assert_eq!(self.head.ts, TS_PENDING, "pop of a committed head");
        if self.older.is_empty() {
            return false;
        }
        self.head = self.older.remove(0);
        true
    }

    /// Commit: stamps every pending version with `ts`. A transaction
    /// that wrote the object more than once (insert then update, or two
    /// updates) left pending versions *below* the head too; they all
    /// share the commit timestamp, and newest-first order keeps
    /// last-write-wins.
    pub(crate) fn stamp_pending(&mut self, ts: u64) {
        if self.head.ts == TS_PENDING {
            self.head.ts = ts;
        }
        for v in &mut self.older {
            if v.ts == TS_PENDING {
                v.ts = ts;
            }
        }
    }

    /// The newest value committed at or before `ts`; `None` when the
    /// object did not exist (or was deleted) at `ts`. Pending versions
    /// are invisible ([`TS_PENDING`] exceeds every snapshot timestamp).
    pub(crate) fn visible_at(&self, ts: u64) -> Option<u64> {
        if self.head.ts <= ts {
            return self.head.value;
        }
        self.older.iter().find(|v| v.ts <= ts).and_then(|v| v.value)
    }

    /// GC: drops every version no snapshot at or above `watermark` can
    /// resolve — everything older than the newest version with
    /// `ts <= watermark`. Returns how many versions were dropped.
    pub(crate) fn prune_below(&mut self, watermark: u64) -> u64 {
        let mut kept = Vec::new();
        let mut floor_kept = self.head.ts <= watermark;
        let mut dropped = 0u64;
        for v in self.older.drain(..) {
            if v.ts > watermark {
                kept.push(v);
            } else if floor_kept {
                dropped += 1;
            } else {
                floor_kept = true;
                kept.push(v);
            }
        }
        self.older = kept;
        dropped
    }
}

/// A physically removed object whose version history an active snapshot
/// can still see. Lives in `DglCore::dead` until GC proves no registered
/// snapshot predates the delete marker.
#[derive(Debug)]
pub(crate) struct DeadObject {
    pub(crate) oid: ObjectId,
    pub(crate) rect: Rect2,
    pub(crate) chain: VersionChain,
}

/// Point-in-time view of the MVCC bookkeeping (tests, operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// Newest committed timestamp of the shared commit clock.
    pub commit_ts: u64,
    /// Currently registered snapshots (counting multiplicity).
    pub active_snapshots: usize,
    /// Objects present in the live payload table.
    pub live_chains: usize,
    /// Versions stored across all live chains.
    pub live_versions: u64,
    /// Physically removed objects retained for active snapshots.
    pub dead_objects: usize,
    /// Versions stored across the dead list.
    pub dead_versions: u64,
}

// --- DglCore: stamping, snapshot reads, version GC ----------------------

impl DglCore {
    /// The object ids this transaction has pending versions for (one per
    /// distinct written object, peeked from the undo queue *without*
    /// taking it — commit drains the queue only after stamping).
    pub(crate) fn pending_write_oids(&self, txn: TxnId) -> Vec<ObjectId> {
        self.undo.with_records(txn, |rs| {
            let mut oids: Vec<ObjectId> = rs
                .iter()
                .map(|r| match r {
                    UndoRecord::Insert { oid, .. }
                    | UndoRecord::LogicalDelete { oid, .. }
                    | UndoRecord::Update { oid, .. } => *oid,
                })
                .collect();
            oids.sort_unstable();
            oids.dedup();
            oids
        })
    }

    /// Stamps every pending version of `oids` with `ts`. Called inside
    /// [`CommitClock::stamp`](dgl_txn::CommitClock::stamp)'s critical
    /// section (clock mutex → payload stripes is the sanctioned order;
    /// nothing takes the clock while inside a stripe closure). Stamping
    /// touches one stripe at a time, but the clock critical section is
    /// what makes the commit all-or-nothing to snapshots: `begin_snapshot`
    /// takes the same clock mutex, so no snapshot timestamp can be
    /// allocated between two of these per-key stamps.
    pub(crate) fn stamp_oids(&self, oids: &[ObjectId], ts: u64) {
        for oid in oids {
            self.payloads
                .update(oid, |slot| slot.chain.stamp_pending(ts));
        }
    }

    /// Allocates a commit timestamp and stamps this transaction's pending
    /// versions, atomically against snapshot begin. Read-only
    /// transactions skip the clock entirely. Infallible — callers run it
    /// after the last fallible commit step (the durability point).
    pub(crate) fn stamp_commit_versions(&self, txn: TxnId) {
        let oids = self.pending_write_oids(txn);
        if oids.is_empty() {
            return;
        }
        self.clock.stamp(|ts| self.stamp_oids(&oids, ts));
    }

    /// Region scan against snapshot timestamp `ts`: shared latch + chain
    /// visibility, no lock-manager calls. Results are sorted by object id
    /// so repeated scans of one snapshot are bit-identical even as the
    /// tree is reorganized around them.
    pub(crate) fn snapshot_scan(&self, ts: u64, query: &Rect2) -> Vec<ScanHit> {
        // Shared gate: no deferred deletion is mid-condensation (see the
        // module docs), then the shared latch for a structurally
        // consistent search. Gate before latch, like every system path.
        let _gate = self.deferred_gate.read();
        self.snapshot_scan_gated(ts, query)
    }

    /// Shared gate acquisition for a lock-holding transaction, watched
    /// by the detector thread: registers `txn` as a *gate waiter* (the
    /// wait-for edge `txn → gate holder` the detector unions into its
    /// graph, stamped so the watchdog can age it) and polls without a
    /// deadline. If the wait really is part of a cycle — the gate-holding
    /// system operation is blocked on one of `txn`'s own granule locks —
    /// the detector wounds `txn` and the poll returns
    /// `Err(TxnError::Deadlock)`; an innocent wait simply outlasts the
    /// system operation or checkpoint, with no spurious timeout abort.
    pub(crate) fn gate_read_watched(
        &self,
        txn: TxnId,
    ) -> Result<parking_lot::RwLockReadGuard<'_, ()>, TxnError> {
        if let Some(gate) = self.deferred_gate.try_read() {
            return Ok(gate);
        }
        struct Deregister<'a>(&'a DglCore, TxnId);
        impl Drop for Deregister<'_> {
            fn drop(&mut self) {
                self.0.gate_waiters.lock().remove(&self.1);
            }
        }
        self.gate_waiters.lock().insert(txn, Instant::now());
        let _dereg = Deregister(self, txn);
        loop {
            if self.lm.take_poison(txn) {
                return Err(TxnError::Deadlock);
            }
            if let Some(gate) = self.deferred_gate.try_read() {
                return Ok(gate);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// [`Self::snapshot_scan`] through the watched gate wait — for
    /// lock-holding transactions. `Err(TxnError::Deadlock)` means the
    /// detector wounded `txn` (the caller rolls it back).
    pub(crate) fn snapshot_scan_watched(
        &self,
        ts: u64,
        query: &Rect2,
        txn: TxnId,
    ) -> Result<Vec<ScanHit>, TxnError> {
        let _gate = self.gate_read_watched(txn)?;
        Ok(self.snapshot_scan_gated(ts, query))
    }

    /// [`Self::snapshot_read_single`] through the watched gate wait; see
    /// [`Self::snapshot_scan_watched`].
    pub(crate) fn snapshot_read_single_watched(
        &self,
        ts: u64,
        oid: ObjectId,
        txn: TxnId,
    ) -> Result<Option<u64>, TxnError> {
        if self.hash_reads {
            // The hash fast path never touches the gate, so a
            // lock-holding reader cannot join a gate cycle here.
            return Ok(self.snapshot_read_single_hash(ts, oid));
        }
        let _gate = self.gate_read_watched(txn)?;
        Ok(self.snapshot_read_single_gated(ts, oid))
    }

    fn snapshot_scan_gated(&self, ts: u64, query: &Rect2) -> Vec<ScanHit> {
        assert!(
            ts <= self.clock.now(),
            "snapshot read at timestamp {ts} above the commit clock \
             ({}): future timestamps are not yet stable",
            self.clock.now()
        );
        self.obs.incr(Ctr::SnapshotScans);
        let tree = self.latch_shared();
        let mut hits = Vec::new();
        // The tombstone flag is a *locking-path* visibility device
        // (set at logical delete, before the deleter commits);
        // snapshot visibility is decided purely by the chain, so a
        // tombstoned entry is still visible to snapshots that
        // predate the delete. Per-key stripe reads are sound here:
        // the shared latch excludes the structural removals that
        // retire entries, and commit stamping is atomic against this
        // snapshot's timestamp via the clock critical section.
        for (oid, rect, _tombstone) in tree.search(query) {
            if let Some(version) = self
                .payloads
                .get(&oid, |s| s.chain.visible_at(ts))
                .flatten()
            {
                hits.push(ScanHit { oid, rect, version });
            }
        }
        {
            // Dead objects moved out of the tree by deferred deletion;
            // the move happens under the exclusive latch, so holding the
            // shared latch across both lookups sees each object exactly
            // once.
            let dead = self.dead.lock();
            for d in dead.iter() {
                if d.rect.intersects(query) {
                    if let Some(version) = d.chain.visible_at(ts) {
                        hits.push(ScanHit {
                            oid: d.oid,
                            rect: d.rect,
                            version,
                        });
                    }
                }
            }
        }
        drop(tree);
        hits.sort_unstable_by_key(|h| h.oid.0);
        hits
    }

    /// Point read against snapshot timestamp `ts` — the payload version
    /// visible at `ts`, or `None` if the object did not exist then. No
    /// lock-manager calls; with `hash_reads` on, no gate and no latch
    /// either (see [`Self::snapshot_read_single_hash`]).
    pub(crate) fn snapshot_read_single(&self, ts: u64, oid: ObjectId) -> Option<u64> {
        if self.hash_reads {
            return self.snapshot_read_single_hash(ts, oid);
        }
        let _gate = self.deferred_gate.read();
        self.snapshot_read_single_gated(ts, oid)
    }

    /// Gateless, latchless snapshot point read off the hash index.
    ///
    /// Safe without the system-operation gate or tree latch because it
    /// never looks at the tree: the slot's version chain (or the dead
    /// list) fully decides visibility. The one structural transition that
    /// moves a chain — deferred physical deletion retiring an object —
    /// pushes the dead-list copy *before* removing the index entry, and
    /// this reader checks index first, dead list second, so every
    /// interleaving finds the chain at least once (finding it twice is
    /// harmless: both copies answer `visible_at(ts)` identically). A
    /// retired-without-dead-copy object (`retire == false`) is only
    /// possible when no registered snapshot predates the delete marker,
    /// so this snapshot's `ts` sees the delete either way.
    fn snapshot_read_single_hash(&self, ts: u64, oid: ObjectId) -> Option<u64> {
        assert!(
            ts <= self.clock.now(),
            "snapshot read at timestamp {ts} above the commit clock \
             ({}): future timestamps are not yet stable",
            self.clock.now()
        );
        self.obs.incr(Ctr::SnapshotPointReads);
        let t0 = Instant::now();
        let live = self.payloads.get(&oid, |s| s.chain.visible_at(ts));
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(Hist::HashLookup, nanos);
        if let Some(Some(version)) = live {
            self.obs.incr(Ctr::HashHits);
            return Some(version);
        }
        // Slot absent (physically removed), or present but with nothing
        // visible at `ts` (e.g. a delete/reinsert cycle whose older
        // incarnation may still be visible): consult the dead list.
        self.obs.incr(Ctr::HashMisses);
        self.dead
            .lock()
            .iter()
            .filter(|d| d.oid == oid)
            .find_map(|d| d.chain.visible_at(ts))
    }

    fn snapshot_read_single_gated(&self, ts: u64, oid: ObjectId) -> Option<u64> {
        assert!(
            ts <= self.clock.now(),
            "snapshot read at timestamp {ts} above the commit clock \
             ({}): future timestamps are not yet stable",
            self.clock.now()
        );
        self.obs.incr(Ctr::SnapshotPointReads);
        let tree = self.latch_shared();
        let live = self
            .payloads
            .get(&oid, |s| s.chain.visible_at(ts))
            .flatten();
        if live.is_some() {
            return live;
        }
        // A physically removed (or removed-and-reinserted) object: its
        // pre-delete versions live in the dead list. Several dead entries
        // can share an oid across delete/reinsert cycles; at most one is
        // visible at any timestamp.
        let from_dead = self
            .dead
            .lock()
            .iter()
            .filter(|d| d.oid == oid)
            .find_map(|d| d.chain.visible_at(ts));
        drop(tree);
        from_dead
    }

    /// One version-GC pass: prunes every chain (live and dead) below the
    /// min-active-snapshot watermark and drops dead objects no snapshot
    /// can see at all. In-memory only — recovery rebuilds chains from the
    /// log, so a crash mid-GC loses nothing.
    pub(crate) fn run_version_gc(&self) {
        // Release the dispatch dedupe slot even if the pass panics
        // (otherwise GC would be disabled for the rest of the process).
        struct PendingReset<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for PendingReset<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _reset = PendingReset(&self.gc_pending);
        dgl_faults::failpoint!("maint/version-gc");
        // No active snapshot ⇒ everything below "now" is unreachable.
        let watermark = self.clock.min_active().unwrap_or_else(|| self.clock.now());
        let mut reclaimed = 0u64;
        self.payloads.for_each_mut(|_, slot| {
            reclaimed += slot.chain.prune_below(watermark);
        });
        {
            let mut dead = self.dead.lock();
            dead.retain_mut(|d| {
                debug_assert_ne!(d.chain.latest_ts(), TS_PENDING, "dead chain never pending");
                if d.chain.latest_ts() <= watermark {
                    // Every registered snapshot is at or past the delete
                    // marker: the whole history is invisible.
                    reclaimed += d.chain.len();
                    false
                } else {
                    reclaimed += d.chain.prune_below(watermark);
                    true
                }
            });
        }
        self.obs.incr(Ctr::VersionGcRuns);
        self.obs.add(Ctr::VersionsReclaimed, reclaimed);
    }
}

// --- the public snapshot handle -----------------------------------------

/// Snapshot drops trigger a GC pass only every this many drops — the
/// sweep is O(live objects), so per-transaction snapshots must not pay
/// for it every time. [`DglRTree::dispatch_version_gc`] forces one.
pub(crate) const GC_EVERY_DROPS: u64 = 32;

/// A registered read timestamp over a [`DglRTree`]: reads through it see
/// exactly the transactions committed at [`Snapshot::ts`], issue **no
/// lock-manager requests**, never abort, and wait only for in-flight
/// system operations (the shared gate), never for other transactions'
/// locks. Dropping the snapshot unregisters the timestamp (unpinning its
/// versions for GC).
///
/// Do not read through a `Snapshot` from a thread that holds granule
/// locks of an active locking transaction — see the module docs ("The
/// gate and lock holders"); [`SnapshotReadRTree`] exists for mixed
/// read/write transactions.
#[derive(Debug)]
pub struct Snapshot<'a> {
    db: &'a DglRTree,
    ts: u64,
}

impl DglRTree {
    /// Registers a snapshot at the current commit timestamp.
    pub fn begin_snapshot(&self) -> Snapshot<'_> {
        self.core.obs.incr(Ctr::SnapshotBegins);
        Snapshot {
            ts: self.core.clock.begin_snapshot(),
            db: self,
        }
    }

    /// Registers a snapshot at an explicit timestamp. Reading above the
    /// clock's current value panics (future state is not yet stable);
    /// this constructor exists for tests and recovery tooling.
    #[doc(hidden)]
    pub fn begin_snapshot_at(&self, ts: u64) -> Snapshot<'_> {
        self.core.obs.incr(Ctr::SnapshotBegins);
        Snapshot {
            ts: self.core.clock.begin_snapshot_at(ts),
            db: self,
        }
    }

    /// Requests a version-GC pass through the maintenance subsystem
    /// (inline mode runs it before returning). Deduplicated: a pass
    /// already dispatched and not yet run absorbs the request.
    pub fn dispatch_version_gc(&self) {
        if self.core.gc_pending.swap(true, Ordering::SeqCst) {
            return;
        }
        self.maint.dispatch_version_gc(&self.core);
    }

    /// Point-in-time MVCC bookkeeping totals.
    pub fn mvcc_stats(&self) -> MvccStats {
        let (live_chains, live_versions) = {
            let mut chains = 0usize;
            let mut versions = 0u64;
            self.core.payloads.for_each(|_, slot| {
                chains += 1;
                versions += slot.chain.len();
            });
            (chains, versions)
        };
        let (dead_objects, dead_versions) = {
            let dead = self.core.dead.lock();
            (dead.len(), dead.iter().map(|d| d.chain.len()).sum())
        };
        MvccStats {
            commit_ts: self.core.clock.now(),
            active_snapshots: self.core.clock.active_snapshots(),
            live_chains,
            live_versions,
            dead_objects,
            dead_versions,
        }
    }
}

impl Snapshot<'_> {
    /// The read timestamp: every transaction committed at or before it is
    /// visible, nothing after.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Region scan at the snapshot timestamp. Sorted by object id;
    /// repeated calls return bit-identical results regardless of
    /// concurrent committers.
    pub fn read_scan(&self, query: Rect2) -> Vec<ScanHit> {
        self.db.core.snapshot_scan(self.ts, &query)
    }

    /// Point read at the snapshot timestamp: the visible payload version,
    /// or `None` if the object did not exist at [`Self::ts`].
    pub fn read_single(&self, oid: ObjectId) -> Option<u64> {
        self.db.core.snapshot_read_single(self.ts, oid)
    }
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.db.core.clock.end_snapshot(self.ts);
        if self.db.core.gc_drops.fetch_add(1, Ordering::Relaxed) % GC_EVERY_DROPS
            == GC_EVERY_DROPS - 1
        {
            self.db.dispatch_version_gc();
        }
    }
}

// --- snapshot-read contender --------------------------------------------

/// A [`TransactionalRTree`] whose *read* operations are served from an
/// MVCC snapshot (begun lazily at the transaction's first read and held
/// to commit — repeatable within the transaction) while every write runs
/// the unchanged granular-locking protocol of the inner [`DglRTree`].
///
/// This is the benchmark contender `dgl-snapshot`: it trades external
/// consistency of reads (a scan sees the commit prefix at its snapshot
/// timestamp, not writes committed mid-transaction) for a scan path with
/// zero lock-manager traffic.
#[derive(Debug)]
pub struct SnapshotReadRTree {
    inner: DglRTree,
    /// Transaction id → per-transaction snapshot state (created lazily,
    /// so transactions that never read don't pin the GC watermark).
    snaps: parking_lot::Mutex<HashMap<u64, TxnSnapState>>,
}

/// Per-transaction bookkeeping of the snapshot-read wrapper.
#[derive(Debug, Default, Clone, Copy)]
struct TxnSnapState {
    /// Registered snapshot timestamp, set at the first read.
    ts: Option<u64>,
    /// Whether the transaction has issued a write — i.e. may hold
    /// granule locks, in which case its reads take the watched gate wait
    /// (module docs, "The gate and lock holders").
    wrote: bool,
}

impl SnapshotReadRTree {
    /// Wraps an index; reads go through snapshots from here on.
    pub fn new(inner: DglRTree) -> Self {
        Self {
            inner,
            snaps: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// The wrapped index (writes, statistics, maintenance).
    pub fn inner(&self) -> &DglRTree {
        &self.inner
    }

    /// The transaction's snapshot timestamp (registered on first use)
    /// and whether it has written.
    fn snap_ts(&self, txn: TxnId) -> (u64, bool) {
        let mut snaps = self.snaps.lock();
        let state = snaps.entry(txn.0).or_default();
        let ts = *state.ts.get_or_insert_with(|| {
            self.inner.core.obs.incr(Ctr::SnapshotBegins);
            self.inner.core.clock.begin_snapshot()
        });
        (ts, state.wrote)
    }

    /// Marks the transaction as a lock holder — called *before* the
    /// write is attempted, because even a failed-but-survivable write
    /// (e.g. a duplicate insert) can leave locks behind.
    fn mark_wrote(&self, txn: TxnId) {
        self.snaps.lock().entry(txn.0).or_default().wrote = true;
    }

    /// Unregisters the transaction's snapshot (commit, abort, rollback).
    fn release(&self, txn: TxnId) {
        if let Some(state) = self.snaps.lock().remove(&txn.0) {
            if let Some(ts) = state.ts {
                self.inner.core.clock.end_snapshot(ts);
            }
        }
    }

    /// The outcome of a lock holder's watched read: an `Err` means the
    /// detector wounded the transaction in its gate wait, so it is rolled
    /// back here (retryable with a fresh transaction).
    fn watched<T>(&self, txn: TxnId, r: Result<T, TxnError>) -> Result<T, TxnError> {
        if r.is_err() {
            let _ = self.inner.abort(txn);
            self.release(txn);
        }
        r
    }

    /// After a failed inner operation: if the error killed the
    /// transaction (deadlock/timeout rollback, durability failure), its
    /// snapshot must not stay registered and pin the GC watermark.
    /// Survivable errors (e.g. `DuplicateObject`) keep the snapshot —
    /// the transaction continues and its reads stay repeatable.
    fn release_if_dead(&self, txn: TxnId) {
        if self.inner.core.check_active(txn).is_err() {
            self.release(txn);
        }
    }
}

impl TransactionalRTree for SnapshotReadRTree {
    fn begin(&self) -> TxnId {
        self.inner.begin()
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let r = self.inner.commit(txn);
        self.release(txn);
        r
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        let r = self.inner.abort(txn);
        self.release(txn);
        r
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        self.mark_wrote(txn);
        let r = self.inner.insert(txn, oid, rect);
        if r.is_err() {
            self.release_if_dead(txn);
        }
        r
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.mark_wrote(txn);
        let r = self.inner.delete(txn, oid, rect);
        if r.is_err() {
            self.release_if_dead(txn);
        }
        r
    }

    fn read_single(
        &self,
        txn: TxnId,
        oid: ObjectId,
        _rect: Rect2,
    ) -> Result<Option<u64>, TxnError> {
        if let Err(e) = self.inner.core.check_active(txn) {
            self.release(txn);
            return Err(e);
        }
        let (ts, wrote) = self.snap_ts(txn);
        if wrote {
            self.inner.ensure_detector();
            let r = self.inner.core.snapshot_read_single_watched(ts, oid, txn);
            self.watched(txn, r)
        } else {
            Ok(self.inner.core.snapshot_read_single(ts, oid))
        }
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        self.mark_wrote(txn);
        let r = self.inner.update_single(txn, oid, rect);
        if r.is_err() {
            self.release_if_dead(txn);
        }
        r
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        if let Err(e) = self.inner.core.check_active(txn) {
            self.release(txn);
            return Err(e);
        }
        let (ts, wrote) = self.snap_ts(txn);
        if wrote {
            self.inner.ensure_detector();
            let r = self.inner.core.snapshot_scan_watched(ts, &query, txn);
            self.watched(txn, r)
        } else {
            Ok(self.inner.core.snapshot_scan(ts, &query))
        }
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        self.mark_wrote(txn);
        let r = self.inner.update_scan(txn, query);
        if r.is_err() {
            self.release_if_dead(txn);
        }
        r
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn validate(&self) -> Result<(), String> {
        TransactionalRTree::validate(&self.inner)
    }

    fn name(&self) -> &'static str {
        "dgl-snapshot"
    }

    fn quiesce(&self) {
        TransactionalRTree::quiesce(&self.inner);
    }

    fn obs_registry(&self) -> Option<&std::sync::Arc<Registry>> {
        self.inner.obs_registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_visibility_and_stamping() {
        let mut c = VersionChain::pending(1);
        assert_eq!(c.visible_at(u64::MAX - 1), None, "pending is invisible");
        c.stamp_pending(5);
        assert_eq!(c.visible_at(4), None);
        assert_eq!(c.visible_at(5), Some(1));
        c.push_pending(Some(2));
        assert_eq!(c.visible_at(9), Some(1), "pending head falls through");
        c.stamp_pending(7);
        assert_eq!(c.visible_at(6), Some(1));
        assert_eq!(c.visible_at(7), Some(2));
        c.push_pending(None);
        c.stamp_pending(9);
        assert_eq!(c.visible_at(8), Some(2));
        assert_eq!(c.visible_at(9), None, "delete marker hides the object");
    }

    #[test]
    fn chain_stamps_intermediate_pending_versions() {
        // Insert + update in one transaction: two pending versions share
        // the commit timestamp; newest wins.
        let mut c = VersionChain::pending(1);
        c.push_pending(Some(2));
        c.stamp_pending(3);
        assert_eq!(c.visible_at(3), Some(2));
        assert_eq!(c.visible_at(2), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn chain_pop_restores_prior_state() {
        let mut c = VersionChain::bootstrap(1);
        c.push_pending(Some(2));
        assert!(c.pop_pending(), "history remains");
        assert_eq!(c.current(), Some(1));
        let mut fresh = VersionChain::pending(1);
        assert!(!fresh.pop_pending(), "aborted insert empties the chain");
    }

    #[test]
    fn gate_cycle_is_wounded_as_a_deadlock_not_a_timeout() {
        // The PR-7 deferred-gate cycle: a system operation holds the gate
        // exclusively and blocks on a granule lock held by `txn`, while
        // `txn` (a lock holder) waits for shared gate access. Neither
        // wait is visible to the other's detector alone; the *global*
        // detector unions the gate edge with the lock edge, finds the
        // cycle, and wounds the user transaction — which sees a clean
        // `TxnError::Deadlock`, never a timeout, and releases the locks
        // the system operation needs.
        let db = SnapshotReadRTree::new(DglRTree::new(crate::DglConfig::default()));
        let setup = db.begin();
        db.insert(setup, ObjectId(1), Rect2::new([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        db.commit(setup).unwrap();

        let txn = db.begin();
        db.insert(txn, ObjectId(2), Rect2::new([0.3, 0.3], [0.4, 0.4]))
            .unwrap();

        // Play the system operation by hand, exactly as deferred.rs does:
        // exclusive gate, system-flagged transaction, registered holder.
        let core = &db.inner().core;
        let gate = core.deferred_gate.write();
        let sys = core.tm.begin();
        core.lm.set_system(sys);
        *core.gate_holder.lock() = Some(sys);

        std::thread::scope(|s| {
            let blocked = s.spawn(|| {
                // The system op needs the object lock `txn` holds X.
                core.lm.lock(
                    sys,
                    dgl_lockmgr::ResourceId::Object(2),
                    dgl_lockmgr::LockMode::X,
                    dgl_lockmgr::LockDuration::Short,
                    dgl_lockmgr::RequestKind::Unconditional,
                )
            });
            // Let the system wait park before closing the cycle.
            std::thread::sleep(Duration::from_millis(30));
            let start = std::time::Instant::now();
            let r = db.read_scan(txn, Rect2::unit());
            assert_eq!(r, Err(TxnError::Deadlock), "wounded, not timed out");
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the detector resolved the cycle promptly"
            );
            assert!(
                db.inner().core.check_active(txn).is_err(),
                "the victim was rolled back (its locks are released)"
            );
            // The victim's rollback unblocks the system operation.
            assert_eq!(
                blocked.join().unwrap(),
                dgl_lockmgr::LockOutcome::Granted,
                "the system operation proceeds once the victim dies"
            );
        });
        assert_eq!(
            db.inner().obs().ctr(Ctr::LockTimeouts),
            0,
            "no timeout verdict anywhere in the cycle's resolution"
        );
        *core.gate_holder.lock() = None;
        core.lm.clear_system(sys);
        core.tm.commit(sys);
        drop(gate);

        let reader = db.begin();
        let hits = db.read_scan(reader, Rect2::unit()).unwrap();
        assert_eq!(hits.len(), 1, "aborted insert never became visible");
        db.commit(reader).unwrap();
    }

    #[test]
    fn prune_keeps_watermark_floor_and_above() {
        let mut c = VersionChain::bootstrap(1); // ts 0
        for (ts, v) in [(2, 2), (4, 3), (6, 4)] {
            c.push_pending(Some(v));
            c.stamp_pending(ts);
        }
        // Watermark 5: versions at ts 6 (above) and ts 4 (floor) stay.
        assert_eq!(c.prune_below(5), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.visible_at(5), Some(3));
        assert_eq!(c.visible_at(6), Some(4));
        // Nothing left to prune at the same watermark.
        assert_eq!(c.prune_below(5), 0);
    }
}
