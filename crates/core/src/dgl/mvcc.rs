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
//!   single inline head with no spill box, so a payload slot fills one
//!   64-byte cache line.
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
//!   A pass costs what the garbage costs, not what the table costs: the
//!   write path records every chain that grows past one version in a
//!   [`DirtyList`], and the pass visits that list and nothing else.
//!
//! # Why snapshot scans cannot miss committed objects
//!
//! A snapshot scan holds the shared tree latch, so the tree it searches
//! is structurally consistent — with one exception the lock protocol
//! papers over for locking scans: a deferred physical deletion spans
//! several latch sessions while orphans from node condensation await
//! re-insertion, and locking scans are held out by its short SIX granule
//! locks on the pages it eliminates and the path's external granules.
//! The page of an *index orphan* — a surviving leaf cut loose with its
//! eliminated parent — is not among them, so a locking scan that holds S
//! on that page alone is not held out and can miss its objects
//! (ROADMAP item 0(a)). Snapshot scans take no locks; instead the orphans
//! stay searchable. The system operation keeps them in
//! [`Latched::orphans`](super::Latched), which changes only in the
//! exclusive latch session of the tree mutation it mirrors, so under one
//! shared-latch hold every committed object sits in exactly one of the
//! tree, the in-flight orphans (as an object entry, or inside the intact
//! subtree under an index entry) and the dead list — and
//! [`DglCore::snapshot_scan`] searches all three. A snapshot read
//! therefore acquires nothing but the tree latch and payload stripes: it
//! waits for no transaction, no system operation and no checkpoint, and
//! may run on any thread, including one whose transaction holds granule
//! locks.

use std::hash::BuildHasher;
use std::num::NonZeroU64;
use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::Mutex;

use dgl_geom::Rect2;
use dgl_lockmgr::{MixBuild, TxnId};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::ObjectId;

use crate::granules::with_walk;
use crate::ScanHit;

use super::{DglCore, DglRTree, UndoRecord};

/// Timestamp of a version created by a not-yet-committed transaction.
/// Greater than every real timestamp, so pending versions are invisible
/// to every snapshot until `commit` stamps them.
pub(crate) const TS_PENDING: u64 = u64::MAX;

/// One committed (or pending) payload state of an object: the payload
/// version number, or `None` for a delete marker. Payload versions start
/// at 1 and only grow ([`Version::new`] asserts it), so the delete marker
/// costs no tag: it is the zero niche.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Version {
    ts: u64,
    value: Option<NonZeroU64>,
}

impl Version {
    fn new(ts: u64, value: Option<u64>) -> Self {
        let value = value.map(|v| NonZeroU64::new(v).expect("payload versions start at 1"));
        Self { ts, value }
    }

    fn value(self) -> Option<u64> {
        self.value.map(NonZeroU64::get)
    }
}

/// The versions strictly older than a chain's head, newest first: the
/// first inline, the rest behind a vector that is allocated only from a
/// chain's third version on. A two-version chain — an update no GC pass
/// has reached yet — therefore costs one allocation, this box.
#[derive(Debug, Clone)]
struct Older {
    first: Version,
    rest: Vec<Version>,
}

/// Newest-first version history of one object, 24 bytes. The head is
/// inline and the older versions sit behind one thin pointer, so the
/// single-version common case allocates nothing and keeps the payload
/// slot at one cache line (DESIGN.md §13, the chain layout).
#[derive(Debug, Clone)]
pub(crate) struct VersionChain {
    head: Version,
    /// `None` in the common case.
    older: Option<Box<Older>>,
}

impl VersionChain {
    /// A chain holding one committed version stamped 0 — visible to every
    /// snapshot. Used for objects restored from a tree image, whose real
    /// commit timestamps did not survive the crash.
    pub(crate) fn bootstrap(value: u64) -> Self {
        Self {
            head: Version::new(0, Some(value)),
            older: None,
        }
    }

    /// A chain holding one pending version (a fresh insert).
    pub(crate) fn pending(value: u64) -> Self {
        Self {
            head: Version::new(TS_PENDING, Some(value)),
            older: None,
        }
    }

    /// The newest value regardless of timestamp — what the locking read
    /// path reports (its 2PL locks already guarantee the head is either
    /// committed or this transaction's own pending write). `None` is a
    /// delete marker.
    pub(crate) fn current(&self) -> Option<u64> {
        self.head.value()
    }

    /// The head's timestamp ([`TS_PENDING`] while uncommitted).
    pub(crate) fn latest_ts(&self) -> u64 {
        self.head.ts
    }

    /// Total stored versions.
    pub(crate) fn len(&self) -> u64 {
        1 + self.older.as_ref().map_or(0, |o| 1 + o.rest.len() as u64)
    }

    /// Pushes a new pending head, demoting the current head. Returns
    /// whether that took the chain from one version to two — the moment
    /// the caller owes its object id to the [`DirtyList`].
    pub(crate) fn push_pending(&mut self, value: Option<u64>) -> bool {
        let demoted = std::mem::replace(&mut self.head, Version::new(TS_PENDING, value));
        match &mut self.older {
            None => {
                self.older = Some(Box::new(Older {
                    first: demoted,
                    rest: Vec::new(),
                }));
                true
            }
            Some(o) => {
                let second = std::mem::replace(&mut o.first, demoted);
                o.rest.insert(0, second);
                false
            }
        }
    }

    /// Rollback: removes the pending head, promoting the next version.
    /// Returns `false` if that emptied the chain (an aborted insert with
    /// no history — the caller removes the map entry).
    pub(crate) fn pop_pending(&mut self) -> bool {
        debug_assert_eq!(self.head.ts, TS_PENDING, "pop of a committed head");
        let Some(o) = &mut self.older else {
            return false;
        };
        if o.rest.is_empty() {
            self.head = o.first;
            self.older = None;
        } else {
            self.head = std::mem::replace(&mut o.first, o.rest.remove(0));
        }
        true
    }

    /// Commit: stamps every pending version with `ts`. A transaction
    /// that wrote the object more than once (insert then update, or two
    /// updates) left pending versions *below* the head too; they all
    /// share the commit timestamp, and newest-first order keeps
    /// last-write-wins.
    pub(crate) fn stamp_pending(&mut self, ts: u64) {
        let stamp = |v: &mut Version| {
            if v.ts == TS_PENDING {
                v.ts = ts;
            }
        };
        stamp(&mut self.head);
        if let Some(o) = &mut self.older {
            stamp(&mut o.first);
            o.rest.iter_mut().for_each(stamp);
        }
    }

    /// The newest value committed at or before `ts`; `None` when the
    /// object did not exist (or was deleted) at `ts`. Pending versions
    /// are invisible ([`TS_PENDING`] exceeds every snapshot timestamp).
    pub(crate) fn visible_at(&self, ts: u64) -> Option<u64> {
        if self.head.ts <= ts {
            return self.head.value();
        }
        let o = self.older.as_deref()?;
        std::iter::once(&o.first)
            .chain(&o.rest)
            .find(|v| v.ts <= ts)
            .and_then(|v| v.value())
    }

    /// GC: drops every version no snapshot at or above `watermark` can
    /// resolve — everything older than the newest version with
    /// `ts <= watermark`. Returns how many versions were dropped. A chain
    /// pruned to its head frees its older versions' box.
    pub(crate) fn prune_below(&mut self, watermark: u64) -> u64 {
        let before = self.len();
        if let Some(o) = &mut self.older {
            // At or below the watermark only the newest version (the
            // floor) is still resolvable.
            let mut floor_kept = self.head.ts <= watermark;
            let mut keep =
                |v: &Version| v.ts > watermark || !std::mem::replace(&mut floor_kept, true);
            let keep_first = keep(&o.first);
            // In place: a chain a snapshot pins is pruned pass after pass.
            o.rest.retain(|v| keep(v));
            if !keep_first {
                if o.rest.is_empty() {
                    self.older = None;
                } else {
                    o.first = o.rest.remove(0);
                }
            }
        }
        before - self.len()
    }
}

/// The object ids whose chains may hold garbage — what a version-GC pass
/// visits. Invariant: **a live chain with more than one version has its
/// object id on this list, or in the hand of the pass running right
/// now.** The converse does not hold and need not: an id whose chain is
/// back to one version (rolled back, already pruned) or gone (physically
/// removed) costs the next pass one probe and is dropped there.
///
/// Writers feed it at the 1 → 2 transition
/// ([`VersionChain::push_pending`]), *after* leaving the payload stripe
/// closure; the pass re-queues what it could not prune to one version.
/// Striped by object id so that writers do not meet on one mutex; the
/// stripes are leaf locks, never held across anything.
pub(crate) struct DirtyList {
    stripes: [Mutex<Vec<ObjectId>>; 16],
    hasher: MixBuild,
}

impl DirtyList {
    pub(crate) fn new() -> Self {
        Self {
            stripes: std::array::from_fn(|_| Mutex::new(Vec::new())),
            hasher: MixBuild::seeded(),
        }
    }

    pub(crate) fn push(&self, oid: ObjectId) {
        // The mix's high half, so that strided ids still spread.
        let mixed = self.hasher.hash_one(oid.0) >> 32;
        self.stripes[mixed as usize % self.stripes.len()]
            .lock()
            .push(oid);
    }

    /// Empties the list into the caller's hand, each id once (an
    /// update → abort → update sequence between two passes lists its
    /// object twice).
    fn drain(&self) -> Vec<ObjectId> {
        let mut ids = Vec::new();
        for s in &self.stripes {
            ids.append(&mut s.lock());
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The listed ids, each once, the list left as it is.
    pub(crate) fn ids(&self) -> Vec<ObjectId> {
        let mut ids = Vec::new();
        for s in &self.stripes {
            ids.extend_from_slice(&s.lock());
        }
        ids.sort_unstable();
        ids.dedup();
        ids
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
    /// Distinct object ids queued for the next version-GC pass: every
    /// live chain with more than one version, plus chains that since
    /// went back to one version and have not been looked at yet.
    pub gc_queued: usize,
}

// --- DglCore: stamping, snapshot reads, version GC ----------------------

impl DglCore {
    /// The object ids this transaction has pending versions for (one per
    /// distinct written object, read from the undo log — the record
    /// retires only after stamping).
    pub(crate) fn pending_write_oids(&self, txn: TxnId) -> Vec<ObjectId> {
        let mut oids: Vec<ObjectId> = self
            .tm
            .record(txn, |r| {
                r.undo
                    .iter()
                    .map(|u| match u {
                        UndoRecord::Insert { oid, .. }
                        | UndoRecord::LogicalDelete { oid, .. }
                        | UndoRecord::Update { oid, .. } => *oid,
                    })
                    .collect()
            })
            .unwrap_or_default();
        oids.sort_unstable();
        oids.dedup();
        oids
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
    /// visibility, no lock-manager calls and no gate. Results are sorted
    /// by object id so repeated scans of one snapshot are bit-identical
    /// even as the tree is reorganized around them.
    pub(crate) fn snapshot_scan(&self, ts: u64, query: &Rect2) -> Vec<ScanHit> {
        assert!(
            ts <= self.clock.now(),
            "snapshot read at timestamp {ts} above the commit clock \
             ({}): future timestamps are not yet stable",
            self.clock.now()
        );
        self.obs.incr(Ctr::SnapshotScans);
        let tree = self.latch_shared();
        // The tombstone flag is a *locking-path* visibility device
        // (set at logical delete, before the deleter commits);
        // snapshot visibility is decided purely by the chain, so a
        // tombstoned entry is still visible to snapshots that
        // predate the delete. Per-stripe reads are sound here:
        // the shared latch excludes the structural removals that
        // retire entries, and commit stamping is atomic against this
        // snapshot's timestamp via the clock critical section.
        // Version 0 marks "nothing visible at `ts`": versions start at 1.
        let mut hits = with_walk(|walk| {
            walk.snapshot_hits(&tree, &tree.orphans, query, |oid, rect, _tombstone| {
                ScanHit {
                    oid,
                    rect,
                    version: 0,
                }
            })
        });
        self.payloads.get_each(
            &mut hits,
            |h| &h.oid,
            |h, slot| h.version = slot.and_then(|s| s.chain.visible_at(ts)).unwrap_or(0),
        );
        hits.retain(|h| h.version != 0);
        {
            // Dead objects moved out of the tree by deferred deletion;
            // the move happens under the exclusive latch, so holding the
            // shared latch across all three lookups sees each object
            // exactly once.
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
    /// lock-manager calls, no latch, and it never looks at the tree: the
    /// slot's version chain (or the dead list) fully decides visibility.
    ///
    /// The one structural transition that moves a chain — deferred
    /// physical deletion retiring an object — pushes the dead-list copy
    /// *before* removing the index entry, and this reader checks index
    /// first, dead list second, so every interleaving finds the chain at
    /// least once (finding it twice is harmless: both copies answer
    /// `visible_at(ts)` identically). A retired-without-dead-copy object
    /// (`retire == false`) is only possible when no registered snapshot
    /// predates the delete marker, so this snapshot's `ts` sees the delete
    /// either way.
    pub(crate) fn snapshot_read_single(&self, ts: u64, oid: ObjectId) -> Option<u64> {
        assert!(
            ts <= self.clock.now(),
            "snapshot read at timestamp {ts} above the commit clock \
             ({}): future timestamps are not yet stable",
            self.clock.now()
        );
        self.obs.incr(Ctr::SnapshotPointReads);
        let t0 = Instant::now();
        let live = self
            .payloads
            .get(&oid, |s| s.chain.visible_at(ts))
            .flatten();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(Hist::HashLookup, nanos);
        self.obs.incr(if live.is_some() {
            Ctr::HashHits
        } else {
            Ctr::HashMisses
        });
        // Slot absent (physically removed), or present but with nothing
        // visible at `ts` (a delete/reinsert cycle whose older incarnation
        // may still be visible): consult the dead list. Several dead
        // entries can share an oid across such cycles; at most one is
        // visible at any timestamp.
        live.or_else(|| {
            self.dead
                .lock()
                .iter()
                .filter(|d| d.oid == oid)
                .find_map(|d| d.chain.visible_at(ts))
        })
    }

    /// One version-GC pass: prunes the chains on the [`DirtyList`] and the
    /// dead list below the min-active-snapshot watermark, and drops dead
    /// objects no snapshot can see at all. In-memory only — recovery
    /// rebuilds chains from the log, so a crash mid-GC loses nothing.
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
        // The pass's hand. Whatever it still holds when the pass ends goes
        // back on the list: the chains found with more than one version
        // left, and — if the pass unwinds — the ids it never reached,
        // which nothing else would ever revisit (a later write to such an
        // object is not a 1 → 2 transition).
        struct Hand<'a> {
            list: &'a DirtyList,
            ids: Vec<ObjectId>,
        }
        impl Drop for Hand<'_> {
            fn drop(&mut self) {
                for oid in self.ids.drain(..) {
                    self.list.push(oid);
                }
            }
        }
        let mut hand = Hand {
            list: &self.dirty,
            ids: self.dirty.drain(),
        };
        dgl_faults::failpoint!("maint/version-gc");
        // No active snapshot ⇒ everything below "now" is unreachable.
        let watermark = self.clock.min_active().unwrap_or_else(|| self.clock.now());
        let visited = hand.ids.len() as u64;
        let mut reclaimed = 0u64;
        // Keep (re-queue) a chain still longer than one version: pinned by
        // a live snapshot, or its head is pending. `None` is an object
        // physically removed since it was listed (its history, if a
        // snapshot needs it, is on the dead list below).
        hand.ids.retain(|oid| {
            let garbage_left = self.payloads.update(oid, |slot| {
                reclaimed += slot.chain.prune_below(watermark);
                slot.chain.len() > 1
            });
            garbage_left == Some(true)
        });
        drop(hand);
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
        self.obs.add(Ctr::VersionGcChainsVisited, visited);
        self.obs.add(Ctr::VersionsReclaimed, reclaimed);
    }
}

// --- the public snapshot handle -----------------------------------------

/// Snapshot drops trigger a GC pass only every this many drops, so that
/// per-transaction snapshots find a batch of garbage to reclaim rather
/// than a dispatch each. [`DglRTree::dispatch_version_gc`] forces one.
const GC_EVERY_DROPS: u64 = 32;

/// A registered read timestamp over a [`DglRTree`]: reads through it see
/// exactly the transactions committed at [`Snapshot::ts`], issue **no
/// lock-manager requests**, never abort, and wait for nobody — not for
/// other transactions' locks, not for system operations, not for
/// checkpoints (they acquire only the tree latch and payload stripes).
/// Dropping the snapshot unregisters the timestamp (unpinning its
/// versions for GC).
///
/// A snapshot may be read from any thread, including one whose locking
/// transaction holds granule locks: `begin_snapshot()` inside a
/// transaction is the way to mix serializable writes with lock-free
/// reads of the committed prefix.
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

    /// One of this index's snapshots (or a sharded snapshot spanning it)
    /// was dropped: every [`GC_EVERY_DROPS`]th drop dispatches a pass.
    pub(crate) fn snapshot_dropped(&self) {
        let drops = self.core.gc_drops.fetch_add(1, Ordering::Relaxed);
        if drops % GC_EVERY_DROPS == GC_EVERY_DROPS - 1 {
            self.dispatch_version_gc();
        }
    }

    /// Runs a version-GC pass before returning. Deduplicated: a pass
    /// already running on another thread absorbs the request.
    pub fn dispatch_version_gc(&self) {
        if self.core.gc_pending.swap(true, Ordering::SeqCst) {
            return;
        }
        self.core.run_version_gc();
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
            gc_queued: self.core.dirty.ids().len(),
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
        self.db.snapshot_dropped();
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

    #[test]
    fn slot_and_chain_layout_is_pinned() {
        // One payload slot per cache line: leaf hint 8 + rect 32 + chain 24.
        assert_eq!(std::mem::size_of::<VersionChain>(), 24);
        assert_eq!(std::mem::size_of::<super::super::PayloadSlot>(), 64);
    }

    #[test]
    fn chain_walk_across_the_spill_boundary() {
        // ts 0 → v1, ts 2 → v2, ts 4 → delete marker, ts 6 → v4: the
        // third and fourth versions live in the spill vector.
        let mut c = VersionChain::bootstrap(1);
        assert!(c.push_pending(Some(2)), "1 → 2 versions");
        c.stamp_pending(2);
        assert!(!c.push_pending(None), "2 → 3 versions");
        c.stamp_pending(4);
        assert!(c.older.as_ref().is_some_and(|o| o.rest.len() == 1));
        assert!(!c.push_pending(Some(4)));
        assert_eq!(
            c.visible_at(u64::MAX - 1),
            None,
            "pending head, marker below"
        );
        c.stamp_pending(6);
        assert_eq!(c.len(), 4);
        let expect = [Some(1), Some(1), Some(2), Some(2), None, None, Some(4)];
        for (ts, want) in expect.into_iter().enumerate() {
            assert_eq!(c.visible_at(ts as u64), want, "visible at {ts}");
        }
        // Rollback walks back over the boundary: pop a pending head off
        // the four-version chain, then off a two-version one.
        assert!(!c.push_pending(Some(5)));
        assert!(c.pop_pending());
        assert_eq!((c.len(), c.current()), (4, Some(4)));
        let mut two = VersionChain::bootstrap(1);
        two.push_pending(Some(2));
        assert!(two.pop_pending());
        assert!(two.older.is_none(), "popping to one version frees the box");
        // Pruning: watermark 3 keeps ts 6, ts 4 and the floor ts 2.
        assert_eq!(c.prune_below(3), 1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.visible_at(3), Some(2));
        // Watermark 5 drops the floor ts 2; ts 4 (the marker) is the floor.
        assert_eq!(c.prune_below(5), 1);
        assert_eq!((c.len(), c.visible_at(5)), (2, None));
        assert!(c.older.as_ref().is_some_and(|o| o.rest.is_empty()));
        // Watermark 6: the head is the floor, the spill box is freed.
        assert_eq!(c.prune_below(6), 1);
        assert_eq!(c.len(), 1);
        assert!(c.older.is_none(), "pruning to one version frees the box");
        assert_eq!((c.visible_at(5), c.visible_at(6)), (None, Some(4)));
    }

    #[test]
    #[should_panic(expected = "payload versions start at 1")]
    fn version_zero_is_refused() {
        let mut c = VersionChain::bootstrap(1);
        c.push_pending(Some(0));
    }
}
