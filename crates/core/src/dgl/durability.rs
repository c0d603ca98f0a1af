//! Durability: write-ahead logging, checkpointing and crash recovery.
//!
//! The paper's protocol is an in-memory concurrency story; commit-duration
//! locks only guarantee serializability among transactions that survive.
//! This module makes commit *mean* something across a crash:
//!
//! * **Logging.** Every tree-mutating operation appends a logical record
//!   (`Insert`/`Delete`, preceded by a lazy `Begin`) to the [`Wal`]
//!   *before* the exclusive apply latch is released, and `commit` appends
//!   a `Commit` record and blocks until its batch's `fsync` completes —
//!   so an acknowledged commit is durable. The log's flusher syncs
//!   whatever is pending as soon as it is free, so commits that queue
//!   behind an in-flight `fsync` share the next one (group commit with
//!   no window to wait out).
//! * **Checkpointing.** A checkpoint cuts the log: it captures the undo
//!   logs of in-flight transactions and a consistent tree image under
//!   one shared-latch hold (writers stall only for the in-memory encode,
//!   never for the checksum or the file I/O), rotates the log into a new
//!   generation headed by a `Checkpoint` record carrying that undo image,
//!   writes the snapshot file (`crc32(image) | image`), and deletes the
//!   old generation. A threshold-triggered checkpoint runs at the end of
//!   the commit that crossed the threshold, after its locks are released
//!   and its deferred deletions have run.
//! * **Recovery.** [`DglRTree::recover`] picks the newest generation
//!   whose snapshot *and* segment are intact — the snapshot passing its
//!   checksum and decoding (falling back across a checkpoint that died
//!   mid-write or a damaged file) — peels the operations of
//!   transactions that never committed out of the image using the cut's
//!   undo records, runs the physical deletions of surviving tombstones,
//!   and replays the committed log tail through
//!   the normal plan/validate/apply write path — each replayed
//!   transaction executes at its `Commit` record's position, which under
//!   strict 2PL equals the serialization order. A torn final record
//!   (half-written batch) is detected by its CRC frame and discarded,
//!   never an error.
//!
//! ## The commit/cut atomicity argument
//!
//! Operations log under the exclusive tree latch; the checkpoint captures
//! undo + image + rotates under the shared latch. The latch makes every
//! operation wholly pre-cut (in the image, record in the old generation)
//! or wholly post-cut (absent from the image, record in the new
//! generation) — the cut classification exactly matches image
//! membership. Commit records are ordered against the cut by
//! [`DglCore::commit_cut`]: a commit appends its record and sets its
//! transaction record's log state to `Committed` under the read guard;
//! the checkpoint holds the write guard and skips `Committed` records,
//! so the undo image never includes a transaction whose commit record
//! precedes the cut. The record retires (and its locks release) only
//! after that, so a cut in between finds it `Committed`, not gone.
//!
//! ## In-doubt commits
//!
//! A commit that fails with [`TxnError::Durability`] is **in doubt**: its
//! batch may have partially reached disk before the log died (its commit
//! record durable), or a checkpoint may have classified it committed
//! before the failure. Recovery resolves it atomically — all of the
//! transaction's operations or none. The log is poisoned from the first
//! failure on, so no *later* commit can succeed and compound the
//! divergence.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_obs::{Ctr, Hist};
use dgl_rtree::{image, ObjectId, RTree2};
use dgl_wal::{
    crc32, read_segment, scan_dir, segment_path, snapshot_path, SegmentData, UndoEntry, UndoOp,
    Wal, WalConfig, WalError, WalRecord,
};

use crate::{TransactionalRTree, TxnError};

use super::{DglConfig, DglCore, DglRTree, LogState, ShardContext, UndoRecord};

/// Why [`DglRTree::open`] / [`DglRTree::recover`] could not produce an
/// index from a directory.
#[derive(Debug)]
pub enum RecoverError {
    /// Filesystem error outside the log/snapshot formats.
    Io(std::io::Error),
    /// The write-ahead log could not be read or re-created.
    Wal(WalError),
    /// The directory's files are inconsistent beyond what a crash can
    /// produce (mid-chain torn segment, generation gap, committed
    /// records with no usable checkpoint beneath them).
    Corrupt(String),
    /// Replaying a committed transaction through the write path failed —
    /// the log and snapshot disagree with the protocol's invariants.
    Replay(TxnError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
            RecoverError::Wal(e) => write!(f, "write-ahead log error: {e}"),
            RecoverError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            RecoverError::Replay(e) => write!(f, "log replay failed: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<std::io::Error> for RecoverError {
    fn from(e: std::io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

fn rect_to_arr(r: &Rect2) -> [f64; 4] {
    [r.lo[0], r.lo[1], r.hi[0], r.hi[1]]
}

fn arr_to_rect(a: [f64; 4]) -> Rect2 {
    Rect2 {
        lo: [a[0], a[1]],
        hi: [a[2], a[3]],
    }
}

// --- DglCore: logging hooks (called from the operation/commit paths) ----

impl DglCore {
    /// Pushes a tree operation's undo entry and appends its log record,
    /// lazily preceded by `Begin`. Called while the exclusive apply latch
    /// is still held, so the operation's position relative to any
    /// checkpoint cut matches its presence in the cut's tree image (and
    /// in the cut's undo). Without an attached log it only pushes.
    pub(crate) fn push_logged_undo(&self, txn: TxnId, op: UndoRecord) -> Result<(), TxnError> {
        let logged = self.wal.get().map(|wal| {
            let rec = match &op {
                UndoRecord::Insert { oid, rect } => WalRecord::Insert {
                    txn: txn.0,
                    oid: oid.0,
                    rect: rect_to_arr(rect),
                },
                UndoRecord::LogicalDelete { oid, rect } => WalRecord::Delete {
                    txn: txn.0,
                    oid: oid.0,
                    rect: rect_to_arr(rect),
                },
                UndoRecord::Update { .. } => unreachable!("payload updates are not logged"),
            };
            (wal, rec)
        });
        let first = self
            .tm
            .record(txn, |r| {
                r.undo.push(op);
                let first = logged.is_some() && r.log == LogState::Unlogged;
                if first {
                    r.log = LogState::Begun;
                }
                first
            })
            .expect("operation of an active transaction");
        let Some((wal, rec)) = logged else {
            return Ok(());
        };
        if first && wal.append(&WalRecord::Begin { txn: txn.0 }).is_err() {
            return Err(TxnError::Durability);
        }
        wal.append(&rec)
            .map(|_| ())
            .map_err(|_| TxnError::Durability)
    }

    /// The transaction's log state (`Unlogged` once it is gone).
    pub(crate) fn log_state(&self, txn: TxnId) -> LogState {
        self.tm.record(txn, |r| r.log).unwrap_or_default()
    }

    /// Appends the commit record under the cut's read guard, marks the
    /// transaction `Committed` for checkpoint classification, and waits
    /// for the record's batch to be durable — outside the guard: a
    /// checkpoint must never wait on an `fsync` it didn't issue. A no-op
    /// when nothing was logged (read-only transaction, or no log). A
    /// failed wait leaves the record `Committed`: the commit is in doubt
    /// (see module docs), so the rollback that follows appends no
    /// `Abort`, and the poisoned log takes no further cut.
    pub(crate) fn wal_commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let Some(wal) = self.wal.get() else {
            return Ok(());
        };
        let prepared = match self.log_state(txn) {
            LogState::Unlogged => return Ok(()),
            LogState::Prepared(gtxn) => Some(gtxn),
            LogState::Begun | LogState::Committed(_) => None,
        };
        let lsn = {
            let _cut = self.commit_cut.read();
            let lsn = wal.append_commit(txn.0).map_err(|_| TxnError::Durability)?;
            self.tm
                .record(txn, |r| r.log = LogState::Committed(prepared));
            lsn
        };
        wal.wait_durable(lsn).map_err(|_| TxnError::Durability)
    }

    /// Phase-1 prepare of a cross-shard (2PC) commit: appends a `Prepare`
    /// record binding this participant to the coordinator's global
    /// transaction `gtxn` and forces it durable. After `Ok(true)` the
    /// transaction is *in doubt* — recovery commits it iff the
    /// coordinator logged a decision for `gtxn`. `Ok(false)` means
    /// nothing was ever logged (read-only participant, or no log
    /// attached): the coordinator need not record a decision for this
    /// shard.
    pub(crate) fn wal_prepare(&self, txn: TxnId, gtxn: u64) -> Result<bool, TxnError> {
        let Some(wal) = self.wal.get() else {
            return Ok(false);
        };
        if self.log_state(txn) == LogState::Unlogged {
            return Ok(false);
        }
        let lsn = {
            // Same cut ordering as a commit record: the prepare (and its
            // log state below) lands wholly before or wholly after a
            // checkpoint cut, so the cut's `prepared` list is exact.
            let _cut = self.commit_cut.read();
            let lsn = wal
                .append(&WalRecord::Prepare { txn: txn.0, gtxn })
                .map_err(|_| TxnError::Durability)?;
            self.tm.record(txn, |r| r.log = LogState::Prepared(gtxn));
            lsn
        };
        wal.wait_durable(lsn).map_err(|_| TxnError::Durability)?;
        Ok(true)
    }

    /// Best-effort `Abort` record on rollback of a transaction whose log
    /// state was `log` (recovery discards uncommitted transactions with
    /// or without it; the record just lets replay drop their buffered
    /// operations early). None for an in-doubt `Committed` one.
    pub(crate) fn wal_abort(&self, txn: TxnId, log: LogState) {
        if let (Some(wal), LogState::Begun | LogState::Prepared(_)) = (self.wal.get(), log) {
            let _ = wal.append(&WalRecord::Abort { txn: txn.0 });
        }
    }

    /// Whether a threshold-triggered checkpoint should be dispatched now
    /// (claims the pending slot when it returns true).
    pub(crate) fn should_auto_checkpoint(&self) -> bool {
        let Some(threshold) = self.checkpoint_threshold else {
            return false;
        };
        let Some(wal) = self.wal.get() else {
            return false;
        };
        if wal.is_crashed() || wal.bytes_since_checkpoint() < threshold {
            return false;
        }
        !self.ckpt_pending.swap(true, Ordering::SeqCst)
    }

    /// Runs one checkpoint and records its outcome (also releases the
    /// auto-checkpoint pending slot). The entry point for both explicit
    /// [`DglRTree::checkpoint`] calls and threshold-triggered ones.
    pub(crate) fn run_checkpoint_guarded(&self) -> Result<(), TxnError> {
        // Drop guard: the pending slot is released even if the
        // checkpoint panics (otherwise auto-checkpointing would be
        // disabled for the rest of the process).
        struct PendingReset<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for PendingReset<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::SeqCst);
            }
        }
        let _reset = PendingReset(&self.ckpt_pending);
        let res = self.run_checkpoint();
        match res {
            Ok(()) => {
                self.obs.incr(Ctr::Checkpoints);
                Ok(())
            }
            Err(_) => {
                self.obs.incr(Ctr::CheckpointFailures);
                Err(TxnError::Durability)
            }
        }
    }

    /// The checkpoint protocol (see module docs): capture + rotate under
    /// the shared latch, then snapshot write, flush and truncation with
    /// writers running.
    fn run_checkpoint(&self) -> Result<(), WalError> {
        let Some(wal) = self.wal.get() else {
            return Ok(());
        };
        // Exclude system operations for the cut: a condensation
        // mid-flight spans several latch sessions (orphan re-insertion),
        // and a cut between them would capture orphans outside the tree.
        // Also serializes concurrent checkpoints.
        let _gate = self.deferred_gate.lock();
        self.assert_no_orphans();
        let (info, image) = {
            let _cut = self.commit_cut.write();
            let tree = self.latch_shared();
            let mut undo: Vec<UndoEntry> = Vec::new();
            let mut prepared: Vec<(u64, u64)> = Vec::new();
            self.tm.records(|records| {
                // A `Committed` record rides in neither list: its commit
                // record precedes the cut.
                for (t, r) in records.filter(|(_, r)| !matches!(r.log, LogState::Committed(_))) {
                    let ops: Vec<UndoOp> = r
                        .undo
                        .iter()
                        .filter_map(|u| match u {
                            UndoRecord::Insert { oid, rect } => Some(UndoOp::Insert {
                                oid: oid.0,
                                rect: rect_to_arr(rect),
                            }),
                            UndoRecord::LogicalDelete { oid, rect } => Some(UndoOp::Delete {
                                oid: oid.0,
                                rect: rect_to_arr(rect),
                            }),
                            // Payload versions are not part of the tree
                            // image; nothing to peel at recovery.
                            UndoRecord::Update { .. } => None,
                        })
                        .collect();
                    if !ops.is_empty() {
                        undo.push(UndoEntry { txn: t.0, ops });
                    }
                    // A prepared-but-undecided transaction's undo rides
                    // above; its (txn, gtxn) pair must ride too, or
                    // rotating away its `Prepare` record would leave
                    // recovery unable to resolve it against the
                    // coordinator log.
                    if let LogState::Prepared(g) = r.log {
                        prepared.push((t.0, g));
                    }
                }
            });
            let gen = wal.current_gen() + 1;
            let info = wal.rotate(&WalRecord::Checkpoint {
                gen,
                undo,
                prepared,
            })?;
            // The encode is the copy: the CRC and the file I/O below run
            // with writers going again.
            (info, image::encode(&tree))
        };
        // Crash window: the cut exists, the snapshot does not — recovery
        // falls back to the previous generation (its segment and
        // snapshot are only deleted below, after the new pair is
        // durable).
        dgl_faults::failpoint!("wal/checkpoint" => {
            wal.crash();
            WalError::Crashed
        });
        write_snapshot(wal.dir(), info.gen, &image)?;
        // Everything the new generation depends on — the sealed old
        // segments and the new segment's checkpoint header — must be
        // durable before the old generation's files disappear.
        wal.wait_durable(info.cut_lsn)?;
        prune_generations_below(wal.dir(), info.gen)?;
        Ok(())
    }
}

// --- snapshot + directory plumbing --------------------------------------

/// Atomically publishes generation `gen`'s snapshot, `crc32(image) |
/// image` with the log's CRC-32 (tmp + fsync + rename + directory
/// fsync).
fn write_snapshot(dir: &Path, gen: u64, image: &[u8]) -> Result<(), WalError> {
    let tmp = dir.join(format!("snapshot-{gen:010}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&crc32(image).to_le_bytes())?;
        f.write_all(image)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, snapshot_path(dir, gen))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads generation `gen`'s snapshot back into a tree. Every failure —
/// unreadable, shorter than its checksum, checksum mismatch, an image
/// [`image::decode`] rejects — is an error, so recovery can fall back to
/// the previous generation.
fn read_snapshot(dir: &Path, gen: u64) -> Result<RTree2, RecoverError> {
    let bytes = fs::read(snapshot_path(dir, gen))?;
    let corrupt = |why: String| RecoverError::Corrupt(format!("snapshot {gen}: {why}"));
    if bytes.len() < 4 {
        return Err(corrupt("shorter than its checksum".into()));
    }
    let (sum, image) = bytes.split_at(4);
    if u32::from_le_bytes(sum.try_into().expect("4 bytes")) != crc32(image) {
        return Err(corrupt("checksum mismatch".into()));
    }
    image::decode(image).map_err(|e| corrupt(e.to_string()))
}

/// Deletes segment and snapshot files of generations below `keep`.
fn prune_generations_below(dir: &Path, keep: u64) -> Result<(), WalError> {
    let listing = scan_dir(dir)?;
    let mut removed = false;
    for g in listing.segments.iter().filter(|&&g| g < keep) {
        fs::remove_file(segment_path(dir, *g))?;
        removed = true;
    }
    for g in listing.snapshots.iter().filter(|&&g| g < keep) {
        fs::remove_file(snapshot_path(dir, *g))?;
        removed = true;
    }
    if removed {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

// --- open / recover / checkpoint ----------------------------------------

impl DglRTree {
    /// Opens (or creates) a durable index in `dir`.
    ///
    /// An empty directory is bootstrapped: an empty-tree snapshot and a
    /// generation-0 log are written before the first transaction can
    /// commit. A non-empty directory goes through full
    /// [`recovery`](Self::recover).
    pub fn open(dir: impl AsRef<Path>, config: DglConfig) -> Result<Self, RecoverError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let listing = scan_dir(dir)?;
        if listing.segments.is_empty() && listing.snapshots.is_empty() {
            let db = Self::new(config.clone());
            db.attach_fresh_generation(dir, 0)?;
            return Ok(db);
        }
        Self::recover(dir, config)
    }

    /// Recovers an index from `dir`: newest intact snapshot, undo peel of
    /// uncommitted in-flight transactions, committed-tail replay through
    /// the normal write path, tombstone removal, then a fresh log
    /// generation so the next crash recovers from this point.
    ///
    /// Transactions that were *prepared* under two-phase commit but never
    /// locally decided are presumed aborted here — a standalone index has
    /// no coordinator to consult. Shard recovery goes through
    /// `recover_with_resolver` with the coordinator's decision
    /// log instead.
    pub fn recover(dir: impl AsRef<Path>, config: DglConfig) -> Result<Self, RecoverError> {
        Self::recover_with_resolver(dir.as_ref(), config, &|_| false, ShardContext::new(1))
    }

    /// [`Self::recover`] with an in-doubt resolver: `resolver(gtxn)`
    /// answers whether the 2PC coordinator durably committed global
    /// transaction `gtxn`. Prepared-but-undecided participants are
    /// committed iff the resolver says so; everything else is identical
    /// to plain recovery.
    ///
    /// Replaying a resolver-committed prepared transaction at the end of
    /// the tail is order-safe: it held all its locks when the process
    /// died, so no conflicting transaction can appear after its prepare
    /// in the log.
    pub(crate) fn recover_with_resolver(
        dir: &Path,
        config: DglConfig,
        resolver: &dyn Fn(u64) -> bool,
        context: ShardContext,
    ) -> Result<Self, RecoverError> {
        let t0 = Instant::now();
        let listing = scan_dir(dir)?;
        if listing.segments.is_empty() && listing.snapshots.is_empty() {
            // Nothing to recover: equivalent to a fresh open.
            let db = Self::new_in(config.clone(), context);
            db.attach_fresh_generation(dir, 0)?;
            return Ok(db);
        }
        let mut segments: BTreeMap<u64, SegmentData> = BTreeMap::new();
        for &g in &listing.segments {
            segments.insert(g, read_segment(&segment_path(dir, g))?);
        }
        let max_gen = listing
            .segments
            .iter()
            .chain(listing.snapshots.iter())
            .copied()
            .max()
            .unwrap_or(0);

        // Base selection: newest generation whose snapshot reads back into
        // a tree AND whose segment opens with the matching Checkpoint
        // record. A checkpoint that died mid-write leaves one of the two
        // invalid; the previous generation is still intact (its files are
        // deleted only after the new pair is durable).
        type Base = (u64, RTree2, Vec<UndoEntry>, Vec<(u64, u64)>);
        let mut base: Option<Base> = None;
        for &g in listing.snapshots.iter().rev() {
            let Some(sd) = segments.get(&g) else { continue };
            if sd.gen != Some(g) {
                continue;
            }
            let Some(WalRecord::Checkpoint {
                gen: cg,
                undo,
                prepared,
            }) = sd.records.first()
            else {
                continue;
            };
            if *cg != g {
                continue;
            }
            let Ok(tree) = read_snapshot(dir, g) else {
                continue;
            };
            base = Some((g, tree, undo.clone(), prepared.clone()));
            break;
        }
        let Some((base_gen, mut tree, cut_undo, cut_prepared)) = base else {
            // No usable checkpoint. Only safe to start fresh when no
            // user record was ever durable (e.g. a crash inside the very
            // first bootstrap) — otherwise committed data would vanish
            // silently.
            let any_user = segments.values().any(|s| {
                s.records
                    .iter()
                    .any(|r| !matches!(r, WalRecord::Checkpoint { .. }))
            });
            if any_user {
                return Err(RecoverError::Corrupt(
                    "no usable checkpoint beneath logged transactions".into(),
                ));
            }
            drop(segments);
            let db = Self::new_in(config.clone(), context);
            db.attach_fresh_generation(dir, max_gen + 1)?;
            return Ok(db);
        };

        // Tail chain: contiguous generations from the base upward.
        // Trailing segments that never got their header flushed (a
        // rotation raced the crash) read as empty and are dropped; a torn
        // segment anywhere *before* the last live one breaks the
        // prefix-durability contract and is real corruption.
        let mut tail: Vec<u64> = listing
            .segments
            .iter()
            .copied()
            .filter(|&g| g >= base_gen)
            .collect();
        while tail.len() > 1 {
            let last = *tail.last().expect("nonempty");
            let sd = &segments[&last];
            if sd.gen.is_none() && sd.records.is_empty() {
                tail.pop();
            } else {
                break;
            }
        }
        for (i, &g) in tail.iter().enumerate() {
            let expected = base_gen + i as u64;
            if g != expected {
                return Err(RecoverError::Corrupt(format!(
                    "segment chain gap: expected generation {expected}, found {g}"
                )));
            }
            let sd = &segments[&g];
            if sd.gen != Some(g) {
                return Err(RecoverError::Corrupt(format!(
                    "segment {g} header unreadable mid-chain"
                )));
            }
            if i + 1 != tail.len() && sd.torn_bytes > 0 {
                return Err(RecoverError::Corrupt(format!(
                    "segment {g} torn mid-chain ({} bytes)",
                    sd.torn_bytes
                )));
            }
        }
        let records: Vec<WalRecord> = tail
            .iter()
            .flat_map(|g| segments[g].records.iter())
            .filter(|r| !matches!(r, WalRecord::Checkpoint { .. }))
            .cloned()
            .collect();

        // 2PC mappings: prepared-but-locally-undecided transactions, from
        // the cut record (prepare pre-cut) and the tail (prepare
        // post-cut). The coordinator resolver is the tie-breaker.
        let mut prepared_map: BTreeMap<u64, u64> = cut_prepared.iter().copied().collect();
        for r in &records {
            if let WalRecord::Prepare { txn, gtxn } = r {
                prepared_map.insert(*txn, *gtxn);
            }
        }

        // Peel: transactions in flight at the cut whose commit never made
        // the tail had their pre-cut operations captured in the image;
        // undo them against the raw tree (reverse order), exactly as a
        // live abort would have. A prepared transaction counts as
        // committed iff the coordinator durably decided so.
        let committed: HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .chain(
                prepared_map
                    .iter()
                    .filter(|(_, &g)| resolver(g))
                    .map(|(&t, _)| t),
            )
            .collect();
        for entry in cut_undo.iter().filter(|e| !committed.contains(&e.txn)) {
            for op in entry.ops.iter().rev() {
                match *op {
                    UndoOp::Insert { oid, rect } => {
                        tree.remove_entry_raw(ObjectId(oid), arr_to_rect(rect));
                    }
                    UndoOp::Delete { oid, rect } => {
                        tree.clear_tombstone(ObjectId(oid), arr_to_rect(rect));
                    }
                }
            }
        }

        // Surviving tombstones belong to committed deleters whose
        // deferred physical deletion never ran; `from_snapshot` runs
        // them before it returns.
        // Version chains rebuild as the replay below runs through the
        // normal write path on the (fresh) clock — GC state is in-memory
        // only, so nothing is lost by a crash mid-GC.
        let db =
            Self::from_snapshot_in(tree, config.clone(), context).map_err(RecoverError::Replay)?;

        // Replay the committed tail through the normal write path, each
        // transaction at its commit position (= its 2PL serialization
        // position). Single-threaded, fresh transaction ids; the log is
        // not attached yet, so nothing is re-logged.
        let mut buffered: BTreeMap<u64, Vec<WalRecord>> = BTreeMap::new();
        for rec in records {
            match rec {
                WalRecord::Begin { txn } => {
                    buffered.entry(txn).or_default();
                }
                WalRecord::Insert { txn, .. } | WalRecord::Delete { txn, .. } => {
                    buffered.entry(txn).or_default().push(rec);
                }
                WalRecord::Abort { txn } => {
                    buffered.remove(&txn);
                }
                WalRecord::Commit { txn } => {
                    let ops = buffered.remove(&txn).unwrap_or_default();
                    db.replay_txn(&ops).map_err(RecoverError::Replay)?;
                }
                WalRecord::Prepare { .. } => {
                    // Mapping already collected above; the buffered ops
                    // stay pending until a local decision or end-of-tail
                    // resolution.
                }
                WalRecord::Checkpoint { .. } => unreachable!("filtered above"),
            }
        }
        // Still-buffered transactions with a coordinator-committed
        // prepare replay now; the position is safe (they held all their
        // locks at the crash, so nothing later in the tail conflicts).
        for (txn, ops) in std::mem::take(&mut buffered) {
            if prepared_map.get(&txn).is_some_and(|&g| resolver(g)) {
                db.replay_txn(&ops).map_err(RecoverError::Replay)?;
            }
        }
        // Transactions still buffered never committed: discarded.
        db.quiesce().map_err(RecoverError::Replay)?;
        db.core.obs.record(
            Hist::WalReplay,
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        drop(segments);
        db.attach_fresh_generation(dir, max_gen + 1)?;
        Ok(db)
    }

    /// Takes an explicit checkpoint now: snapshot + log truncation. A
    /// no-op `Ok(())` without an attached log;
    /// `Err(TxnError::Durability)` when the log is poisoned or the
    /// snapshot write failed (the previous checkpoint stays the base).
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        if self.core.wal.get().is_none() {
            return Ok(());
        }
        self.core.run_checkpoint_guarded()
    }

    /// Whether a write-ahead log is attached (durable commits).
    pub fn is_durable(&self) -> bool {
        self.core.wal.get().is_some()
    }

    /// Simulates a process kill with page-cache loss: every log segment
    /// is truncated to its fsynced prefix and the log is poisoned (all
    /// further commits fail with [`TxnError::Durability`]). The on-disk
    /// state is exactly what [`DglRTree::recover`] would find after
    /// `kill -9`. Testing hook for the crash-matrix harness.
    pub fn crash_wal(&self) {
        if let Some(wal) = self.core.wal.get() {
            wal.crash();
        }
    }

    /// Publishes the current tree as generation `gen` (snapshot + fresh
    /// log segment), prunes older generations, and attaches the log.
    fn attach_fresh_generation(&self, dir: &Path, gen: u64) -> Result<(), RecoverError> {
        let image = image::encode(&self.core.latch_shared());
        write_snapshot(dir, gen, &image)?;
        let wal = Wal::create(
            dir,
            gen,
            &WalRecord::Checkpoint {
                gen,
                undo: Vec::new(),
                prepared: Vec::new(),
            },
            WalConfig,
            Arc::clone(&self.core.obs),
        )?;
        prune_generations_below(dir, gen)?;
        self.core
            .wal
            .set(Arc::new(wal))
            .map_err(|_| RecoverError::Corrupt("log already attached".into()))?;
        Ok(())
    }

    /// Executes one recovered transaction's operations through the
    /// normal write path and commits it.
    fn replay_txn(&self, ops: &[WalRecord]) -> Result<(), TxnError> {
        if ops.is_empty() {
            return Ok(());
        }
        let t = self.begin();
        for op in ops {
            match *op {
                WalRecord::Insert { oid, rect, .. } => {
                    self.insert(t, ObjectId(oid), arr_to_rect(rect))?;
                }
                WalRecord::Delete { oid, rect, .. } => {
                    self.delete(t, ObjectId(oid), arr_to_rect(rect))?;
                }
                _ => unreachable!("only operation records are buffered"),
            }
        }
        self.commit(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `t` inserts three objects, then `before_cut`, a checkpoint,
    /// `after_cut` and a clean kill. Returns `t`, the cut record's undo
    /// and the recovered object ids.
    fn cut_then_kill(
        tag: &str,
        before_cut: impl FnOnce(&DglRTree, TxnId),
        after_cut: impl FnOnce(&DglRTree, TxnId),
    ) -> (TxnId, Vec<UndoEntry>, Vec<u64>) {
        let dir = std::env::temp_dir().join(format!("dgl-cut-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let db = DglRTree::open(&dir, DglConfig::default()).unwrap();
        let t = db.begin();
        for i in 1..=3 {
            let x = 0.2 * i as f64;
            db.insert(t, ObjectId(i), Rect2::new([x; 2], [x + 0.1; 2]))
                .unwrap();
        }
        before_cut(&db, t);
        db.checkpoint().unwrap();
        let gen = db.core.wal.get().unwrap().current_gen();
        let seg = read_segment(&segment_path(&dir, gen)).unwrap();
        let Some(WalRecord::Checkpoint { undo, .. }) = seg.records.first().cloned() else {
            panic!("segment {gen} opens without its cut record");
        };
        after_cut(&db, t);
        db.crash_wal();
        drop(db);
        let db = DglRTree::recover(&dir, DglConfig::default()).unwrap();
        let _ = fs::remove_dir_all(&dir);
        let objects = db.with_tree(|tree| tree.all_objects());
        (t, undo, objects.iter().map(|o| o.0 .0).collect())
    }

    #[test]
    fn cut_between_commit_record_and_release_carries_no_undo() {
        let (t, undo, mut oids) = cut_then_kill(
            "committed",
            |db, t| {
                db.commit_phase_durable(t).unwrap();
                db.core.stamp_commit_versions(t);
                assert_eq!(db.core.log_state(t), LogState::Committed(None));
                assert!(db.lock_manager().locks_held(t) > 0, "locks still held");
            },
            |db, t| db.commit_maintenance(db.commit_release(t), Instant::now()),
        );
        assert!(undo.iter().all(|e| e.txn != t.0), "{undo:?}");
        oids.sort_unstable();
        assert_eq!(oids, [1, 2, 3], "each object exactly once");
    }

    #[test]
    fn cut_before_commit_carries_undo_and_recovery_peels_it() {
        let (t, undo, oids) = cut_then_kill("active", |_, _| {}, |_, _| {});
        assert!(undo.iter().any(|e| e.txn == t.0 && e.ops.len() == 3));
        assert!(oids.is_empty(), "uncommitted inserts peeled: {oids:?}");
    }
}
