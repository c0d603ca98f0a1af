//! Space-partitioned sharding: N independent [`DglRTree`] shards behind
//! one transactional router.
//!
//! The single-tree protocol serializes every structure modification on
//! one tree latch and funnels every lock request through one lock
//! manager — fine for protocol fidelity, but a hard ceiling for
//! multi-core scaling. [`ShardedDglRTree`] partitions the embedded
//! space `S` with a static grid directory and gives every shard its own
//! *complete* DGL instance: lock manager, structure-version counter,
//! tree latch, WAL directory and observability registry. Transactions touching one shard pay exactly the
//! single-tree cost (including the one-fsync durable commit);
//! cross-shard transactions run two-phase commit over a dedicated
//! coordinator decision log.
//!
//! What the shards share is identity, not state: one commit clock, and
//! one wait-for domain — a global transaction wears the same [`TxnId`],
//! drawn from one sequence, on every shard it touches, so a lock cycle
//! across shards is an ordinary cycle in the union of the shards'
//! wait-for edges, refused by whichever lock manager's request would
//! close it (DESIGN.md §12).
//!
//! # Routing
//!
//! Objects route by the *center* of their rectangle into a fixed
//! `gx × gy` grid over the world, cells mapping round-robin onto
//! shards. Phantom protection requires that a scan consult every shard
//! that could ever hold a qualifying object — including objects
//! *inserted after the scan* — so routing must be a pure function of
//! the rectangle, and scans must over-approximate:
//!
//! - An object whose extent exceeds
//!   [`ShardingConfig::max_object_extent`] in any dimension routes to
//!   the **overflow shard** (shard 0), which every scan consults.
//! - A scan consults the shards of all cells intersecting the query
//!   *inflated by half the extent bound* — any small object
//!   intersecting the query has its center inside that inflation.
//!
//! Each consulted shard holds the scan's Table-3 granule S-locks for
//! its own region, so the per-shard phantom guarantee composes: a
//! qualifying insert anywhere must route into some consulted shard and
//! collide with that shard's commit-duration locks.
//!
//! # Cross-shard atomicity (presumed-abort 2PC)
//!
//! A global transaction with writes on ≥ 2 durable shards commits in
//! three phases:
//!
//! 1. **Prepare** — each writing participant appends + fsyncs a
//!    `Prepare { txn, gtxn }` record (`DglCore::wal_prepare`; the two
//!    ids are equal) while still holding all its locks.
//! 2. **Decide** — the coordinator appends + fsyncs
//!    `Commit { txn: gtxn }` to its own append-only decision log
//!    (`<dir>/coord`). This fsync *is* the commit point.
//! 3. **Complete** — every participant commits locally (its own
//!    `Commit` record, lock release, deferred deletions).
//!
//! Recovery: each shard recovers independently via
//! `DglRTree::recover_with_resolver`, resolving prepared-but-undecided
//! participants against the set of gtxns in the coordinator log —
//! present ⇒ commit, absent ⇒ presumed abort. [`Self::checkpoint`]
//! prunes the decision log: decisions whose global transactions no
//! shard still holds a prepared-undecided participant for are dropped
//! (no recovery will ever consult them), in-doubt decisions are carried
//! into the fresh segment, and the highest decision is always carried
//! so fresh global ids keep starting above every recorded decision — a
//! recycled gtxn can never match a stale decision.
//!
//! Global transactions with ≤ 1 writing participant skip all of this:
//! the lone writer's local commit record is the global decision — the
//! same one-fsync fast path a single tree pays.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_obs::{Hist, Registry, RegistrySnapshot};
use dgl_rtree::ObjectId;
use dgl_wal::{read_segment, scan_dir, segment_path, Wal, WalConfig, WalRecord};

use crate::{ScanHit, TransactionalRTree, TxnError};

use super::{DglConfig, DglRTree, LogState, RecoverError, ShardContext};

/// How the embedded space is partitioned across shards.
#[derive(Debug, Clone)]
pub struct ShardingConfig {
    /// Number of shards (≥ 1). Shard 0 doubles as the overflow shard
    /// for objects too large to route by center.
    pub shards: usize,
    /// Largest per-dimension extent (in world units) an object may have
    /// and still route by its center cell. Larger objects live on the
    /// overflow shard, which every scan consults — keep this small
    /// relative to the world so the overflow shard stays cold. Scans
    /// are inflated by half this bound when selecting shards, so the
    /// bound also caps scan fan-out slop.
    pub max_object_extent: f64,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            max_object_extent: 0.05,
        }
    }
}

/// Static grid over the world mapping rectangles to shards.
///
/// Routing is a pure function of the rectangle (no state, no dynamic
/// re-balancing) — the property the phantom argument in the module docs
/// rests on.
#[derive(Debug, Clone)]
struct GridDirectory {
    world: Rect2,
    gx: usize,
    gy: usize,
    cell_w: f64,
    cell_h: f64,
    shards: usize,
    /// Half of `max_object_extent`: the center of any routable object
    /// intersecting a query lies within this distance of it per
    /// dimension.
    half_bound: f64,
}

impl GridDirectory {
    fn new(world: Rect2, shards: usize, max_object_extent: f64) -> Self {
        let gx = (shards as f64).sqrt().ceil().max(1.0) as usize;
        let gy = shards.div_ceil(gx);
        Self {
            world,
            gx,
            gy,
            cell_w: (world.extent(0) / gx as f64).max(f64::MIN_POSITIVE),
            cell_h: (world.extent(1) / gy as f64).max(f64::MIN_POSITIVE),
            shards,
            half_bound: max_object_extent / 2.0,
        }
    }

    /// Grid cell containing a point (clamped — objects outside the
    /// world still route deterministically).
    fn cell_of(&self, x: f64, y: f64) -> (usize, usize) {
        let ix = ((x - self.world.lo[0]) / self.cell_w).floor() as isize;
        let iy = ((y - self.world.lo[1]) / self.cell_h).floor() as isize;
        (
            ix.clamp(0, self.gx as isize - 1) as usize,
            iy.clamp(0, self.gy as isize - 1) as usize,
        )
    }

    fn shard_of_cell(&self, ix: usize, iy: usize) -> usize {
        (iy * self.gx + ix) % self.shards
    }

    /// The shard an object with this rectangle lives on.
    fn home_shard(&self, rect: &Rect2) -> usize {
        if self.shards == 1 {
            return 0;
        }
        if rect.extent(0) > self.half_bound * 2.0 || rect.extent(1) > self.half_bound * 2.0 {
            return 0; // overflow shard
        }
        let c = rect.center();
        let (ix, iy) = self.cell_of(c.coords[0], c.coords[1]);
        self.shard_of_cell(ix, iy)
    }

    /// Every shard that could hold an object intersecting `query` (now
    /// or in the future), in ascending order. Always includes the
    /// overflow shard; scans visit shards in this order, which keeps
    /// cross-shard lock acquisition roughly ordered.
    fn scan_shards(&self, query: &Rect2) -> Vec<usize> {
        if self.shards == 1 {
            return vec![0];
        }
        let mut hit = vec![false; self.shards];
        hit[0] = true;
        let (x0, y0) = self.cell_of(query.lo[0] - self.half_bound, query.lo[1] - self.half_bound);
        let (x1, y1) = self.cell_of(query.hi[0] + self.half_bound, query.hi[1] + self.half_bound);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                hit[self.shard_of_cell(ix, iy)] = true;
            }
        }
        (0..self.shards).filter(|&s| hit[s]).collect()
    }
}

// --- participant-side 2PC hooks on the single-tree index ---------------

impl DglRTree {
    /// Phase-1 vote of two-phase commit: durably logs (and fsyncs) this
    /// participant's `Prepare` record while every lock stays held. After
    /// `Ok(())` the participant is *in doubt*: it commits iff the
    /// coordinator logs a decision for `txn` (consulted at recovery via
    /// [`DglRTree::recover_with_resolver`]). On `Err` the participant
    /// has been rolled back, like any failed commit.
    ///
    /// Read-only participants (nothing logged) vote yes trivially and
    /// stay un-prepared — their later local commit is a lock release.
    pub(crate) fn prepare_commit(&self, txn: TxnId) -> Result<(), TxnError> {
        self.core.check_active(txn)?;
        match self.core.wal_prepare(txn, txn.0) {
            Ok(_) => Ok(()),
            Err(e) => {
                self.core.rollback_now(txn);
                Err(e)
            }
        }
    }
}

// --- the router --------------------------------------------------------

/// N space-partitioned [`DglRTree`] shards behind one
/// [`TransactionalRTree`] facade.
///
/// See the module docs for the routing and 2PC design. Constructed
/// in-memory ([`Self::new`]) or directory-backed ([`Self::open`], which
/// also performs crash recovery: shard directories `shard-<i>/` plus
/// the coordinator decision log `coord/`).
pub struct ShardedDglRTree {
    shards: Vec<DglRTree>,
    grid: GridDirectory,
    /// What every shard shares. The commit clock: a snapshot timestamp
    /// from it means the same thing on every shard, and the router
    /// stamps all of a global transaction's participants under one
    /// clock critical section — so cross-shard snapshots are
    /// all-or-nothing per global transaction. The wait-for domain: the
    /// one sequence global, participant and per-shard system transaction
    /// ids are drawn from; after [`Self::open`] it starts above every
    /// decision ever recorded by the coordinator (see module docs).
    context: ShardContext,
    /// Live global transactions. Which shards `g` has joined is not
    /// mirrored here: it is `shards[s].core.tm.is_active(g)`.
    sessions: Mutex<HashSet<TxnId>>,
    /// Coordinator decision log (`None` for an in-memory index — then
    /// multi-shard commits are atomic only in the absence of failures,
    /// exactly as in-memory single-tree commits are).
    coord: Option<Wal>,
    /// Router-level registry: global commit latency, executor
    /// accounting and the coordinator WAL's flush metrics (the shard
    /// registries count participant work).
    obs: Arc<Registry>,
}

impl std::fmt::Debug for ShardedDglRTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedDglRTree")
            .field("shards", &self.shards.len())
            .field("durable", &self.coord.is_some())
            .finish_non_exhaustive()
    }
}

impl ShardedDglRTree {
    /// Creates an empty in-memory sharded index (no durability).
    pub fn new(config: DglConfig, sharding: ShardingConfig) -> Self {
        let n = sharding.shards.max(1);
        let context = ShardContext::new(1);
        let shards = (0..n)
            .map(|_| DglRTree::new_in(config.clone(), context.clone()))
            .collect();
        let obs = Arc::new(Registry::new());
        Self::assemble(shards, config.world, &sharding, None, obs, context)
    }

    /// Opens (or crash-recovers) a sharded index from `dir`.
    ///
    /// Layout: `dir/shard-<i>/` holds shard `i`'s snapshots + log
    /// segments; `dir/coord/` holds the coordinator's append-only
    /// decision log. Each shard recovers independently, resolving
    /// prepared-but-undecided 2PC participants against the decision set
    /// read from `coord/`.
    pub fn open(
        dir: impl AsRef<Path>,
        config: DglConfig,
        sharding: ShardingConfig,
    ) -> Result<Self, RecoverError> {
        let dir = dir.as_ref();
        let n = sharding.shards.max(1);
        std::fs::create_dir_all(dir)?;

        // Router registry: global commit latency + coordinator flush
        // metrics land here.
        let obs = Arc::new(Registry::new());
        let coord_dir = dir.join("coord");
        std::fs::create_dir_all(&coord_dir)?;
        let (decisions, max_gen, any) = read_decisions(&coord_dir)?;
        // A fresh generation per open: the previous segment may have
        // a torn tail; decisions already read stay where they are
        // until the next checkpoint prunes the resolved ones.
        let gen = if any { max_gen + 1 } else { 0 };
        let coord = Wal::create(
            &coord_dir,
            gen,
            &WalRecord::Checkpoint {
                gen,
                undo: Vec::new(),
                prepared: Vec::new(),
            },
            WalConfig,
            Arc::clone(&obs),
        )
        .map_err(RecoverError::Wal)?;

        let resolver = |gtxn: u64| decisions.contains(&gtxn);
        // Fresh ids start above every recorded decision (recovery's own
        // replay and system transactions draw from the same sequence).
        let context = ShardContext::new(decisions.iter().max().map_or(1, |m| m + 1));
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let shard_dir = dir.join(format!("shard-{i}"));
            std::fs::create_dir_all(&shard_dir)?;
            shards.push(DglRTree::recover_with_resolver(
                &shard_dir,
                config.clone(),
                &resolver,
                context.clone(),
            )?);
        }
        Ok(Self::assemble(
            shards,
            config.world,
            &sharding,
            Some(coord),
            obs,
            context,
        ))
    }

    fn assemble(
        shards: Vec<DglRTree>,
        world: Rect2,
        sharding: &ShardingConfig,
        coord: Option<Wal>,
        obs: Arc<Registry>,
        context: ShardContext,
    ) -> Self {
        Self {
            grid: GridDirectory::new(world, shards.len(), sharding.max_object_extent),
            shards,
            context,
            sessions: Mutex::new(HashSet::new()),
            coord,
            obs,
        }
    }

    /// The individual shards (tests, benchmarks).
    pub fn shard_handles(&self) -> &[DglRTree] {
        &self.shards
    }

    /// Runs `op` on shard `s` as global transaction `g`, which joins the
    /// shard under its own id on first touch.
    ///
    /// An error that left the participant rolled back (`Deadlock`,
    /// `Timeout`, an injected fault — the single-tree contract) means the
    /// global transaction is dead: every other participant is aborted
    /// and the session removed — the caller retries the whole global
    /// transaction, same as with one tree.
    fn on_shard<T>(
        &self,
        g: TxnId,
        s: usize,
        op: impl FnOnce(&DglRTree) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let shard = &self.shards[s];
        {
            // Joined under the session lock: an abort from another thread
            // finds either no participant here or one to roll back.
            let sessions = self.sessions.lock();
            if !sessions.contains(&g) {
                return Err(TxnError::NotActive);
            }
            if !shard.core.tm.is_active(g) {
                shard.core.tm.begin_as(g);
            }
        }
        let r = op(shard);
        if r.is_err() && !shard.core.tm.is_active(g) {
            let _ = self.abort(g);
        }
        r
    }

    /// The shards `g` has joined and not left, ascending.
    fn parts_of(&self, g: TxnId) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&s| self.shards[s].core.tm.is_active(g))
            .collect()
    }

    fn abort_parts(&self, g: TxnId, parts: &[usize]) {
        for &s in parts {
            // Already-rolled-back participants answer NotActive; fine.
            let _ = self.shards[s].abort(g);
        }
    }

    /// Stamps the pending versions of every staged (durably committed)
    /// participant under **one** clock critical section, so a snapshot
    /// sees all of a global transaction's cross-shard effects or none.
    fn stamp_parts(&self, g: TxnId, staged: &[usize]) {
        let per_shard: Vec<(usize, Vec<ObjectId>)> = staged
            .iter()
            .map(|&s| (s, self.shards[s].core.pending_write_oids(g)))
            .collect();
        if per_shard.iter().all(|(_, oids)| oids.is_empty()) {
            return;
        }
        self.context.clock.stamp(|ts| {
            for (s, oids) in &per_shard {
                self.shards[*s].core.stamp_oids(oids, ts);
            }
        });
    }

    /// Commits `g`'s participants; `parts` is in ascending shard order.
    ///
    /// Both paths drive the per-shard commit phases explicitly
    /// (durable → stamp → finish) so all participants stamp at one
    /// timestamp via [`Self::stamp_parts`].
    fn commit_parts(&self, g: TxnId, parts: &[usize]) -> Result<(), TxnError> {
        let start = Instant::now();
        // Participants whose logged writes need a 2PC vote.
        let writers: Vec<usize> = parts
            .iter()
            .copied()
            .filter(|&s| self.shards[s].core.log_state(g) != LogState::Unlogged)
            .collect();

        if self.coord.is_none() || writers.len() <= 1 {
            // Fast path: at most one durable decision to make, so the
            // lone writer's local commit record *is* the global decision
            // (one fsync). Read-only participants just release locks.
            // Without a coordinator log, multi-writer commits take this
            // path too — atomic except under failpoint-injected faults,
            // matching the in-memory single-tree guarantee.
            let mut staged: Vec<usize> = Vec::with_capacity(parts.len());
            let mut failure = None;
            for (i, &s) in parts.iter().enumerate() {
                match self.shards[s].commit_phase_durable(g) {
                    Ok(()) => staged.push(s),
                    Err(e) => {
                        // The failed participant rolled itself back; the
                        // global transaction aborts, so release the rest.
                        // Participants already durable stay committed
                        // (the historical non-atomicity under injected
                        // faults) — they still stamp and finish below.
                        self.abort_parts(g, &parts[i + 1..]);
                        failure = Some(e);
                        break;
                    }
                }
            }
            self.stamp_parts(g, &staged);
            self.finish_parts(g, &staged, start);
            return match failure {
                Some(e) => Err(e),
                None => Ok(()),
            };
        }

        // Full two-phase commit.
        let coord = self.coord.as_ref().expect("coord checked above");
        for &s in &writers {
            if let Err(e) = self.shards[s].prepare_commit(g) {
                // No decision was logged: presumed abort everywhere.
                self.abort_parts(g, parts);
                return Err(e);
            }
        }
        // Crash window A: every participant prepared, no decision yet.
        // Recovery must presume abort.
        dgl_faults::failpoint!("shard/2pc-before-decision" => {
            self.crash_all_wals();
            self.abort_parts(g, parts);
            TxnError::Durability
        });
        let decided = coord
            .append_commit(g.0)
            .and_then(|lsn| coord.wait_durable(lsn));
        if decided.is_err() {
            // The decision may or may not have reached disk — the
            // coordinator log is poisoned, so nothing *later* commits
            // either way; roll the participants back and report
            // in-doubt. Recovery resolves against whatever the log
            // actually holds.
            self.abort_parts(g, parts);
            return Err(TxnError::Durability);
        }
        // Crash window B: decision durable, participants not yet
        // committed. Recovery must commit every prepared participant.
        dgl_faults::failpoint!("shard/2pc-after-decision" => {
            self.crash_all_wals();
            self.abort_parts(g, parts);
            TxnError::Durability
        });
        let mut result = Ok(());
        let mut staged: Vec<usize> = Vec::with_capacity(parts.len());
        for &s in parts {
            // After the decision every participant must complete; an
            // individual failure (poisoned shard log) leaves that
            // participant prepared — recovery commits it from the
            // decision log. Its pending versions stay unstamped
            // (invisible to snapshots); after the crash the in-memory
            // chains are moot anyway.
            match self.shards[s].commit_phase_durable(g) {
                Ok(()) => staged.push(s),
                Err(e) => result = Err(e),
            }
        }
        self.stamp_parts(g, &staged);
        self.finish_parts(g, &staged, start);
        result
    }

    /// Finishes committed participants in two sweeps: release **every**
    /// shard's locks first, then run deferred maintenance. A single
    /// sweep releasing and maintaining one shard at a time would run one
    /// shard's inline deferred deletion (a lock-taking system operation)
    /// while a sibling participant still held its commit-duration locks
    /// — scanners blocked on that sibling convoy behind the system
    /// operation's lock waits and the commit deadlocks against its own
    /// still-locked shards (a cycle no wait-for graph shows: no edge
    /// says "the committing call of `g` is executing system transaction
    /// T").
    fn finish_parts(&self, g: TxnId, staged: &[usize], start: Instant) {
        let released: Vec<_> = staged
            .iter()
            .map(|&s| (s, self.shards[s].commit_release(g)))
            .collect();
        for (s, deferred) in released {
            self.shards[s].commit_maintenance(deferred, start);
        }
    }

    // --- testing / operational hooks -----------------------------------

    /// Crashes every shard WAL and the coordinator log (page-cache-loss
    /// model; see [`DglRTree::crash_wal`]). Crash-matrix testing hook.
    pub fn crash_all_wals(&self) {
        for s in &self.shards {
            s.crash_wal();
        }
        if let Some(c) = &self.coord {
            c.crash();
        }
    }

    /// Checkpoints every shard (snapshot + log truncation), then prunes
    /// the coordinator decision log: only decisions some shard still
    /// holds a prepared-undecided participant for (plus the highest
    /// decision, for gtxn monotonicity across reopens) survive into a
    /// fresh segment; the rest — decisions for globally-resolved
    /// transactions no recovery will ever consult — are dropped with
    /// the old segments.
    pub fn checkpoint(&self) -> Result<(), TxnError> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        self.prune_coord_log()
    }

    /// The coordinator-log pruning half of [`Self::checkpoint`].
    fn prune_coord_log(&self) -> Result<(), TxnError> {
        let Some(coord) = &self.coord else {
            return Ok(());
        };
        let gen = coord.current_gen() + 1;
        let info = coord
            .rotate(&WalRecord::Checkpoint {
                gen,
                undo: Vec::new(),
                prepared: Vec::new(),
            })
            .map_err(|_| TxnError::Durability)?;
        // Every decision on disk (sealed segments + the fresh one — a
        // decision racing the rotation lands in the fresh segment and is
        // at worst re-appended, which is harmless: decisions are a set).
        let (decisions, _, _) = read_decisions(coord.dir()).map_err(|_| TxnError::Durability)?;
        // In-doubt: gtxns some shard prepared but has not locally
        // finished (a `Committed` participant stays in doubt until its
        // record retires). Prepare strictly precedes the decision
        // append, so any decided-but-incomplete 2PC is captured here.
        let mut in_doubt: HashSet<u64> = HashSet::new();
        for s in &self.shards {
            s.core.tm.records(|records| {
                in_doubt.extend(records.filter_map(|(_, r)| match r.log {
                    LogState::Prepared(g) | LogState::Committed(Some(g)) => Some(g),
                    _ => None,
                }));
            });
        }
        let mut keep: Vec<u64> = decisions
            .iter()
            .copied()
            .filter(|g| in_doubt.contains(g))
            .collect();
        if let Some(max) = decisions.iter().max().copied() {
            if !keep.contains(&max) {
                keep.push(max);
            }
        }
        keep.sort_unstable();
        let mut last = info.cut_lsn;
        for g in keep {
            last = coord
                .append(&WalRecord::Commit { txn: g })
                .map_err(|_| TxnError::Durability)?;
        }
        coord.wait_durable(last).map_err(|_| TxnError::Durability)?;
        // Old generations are now redundant; deletion is best-effort (a
        // leftover segment only re-supplies decisions already carried or
        // resolved).
        if let Ok(listing) = scan_dir(coord.dir()) {
            for g in listing.segments {
                if g < info.gen {
                    let _ = std::fs::remove_file(segment_path(coord.dir(), g));
                }
            }
        }
        Ok(())
    }

    /// Reports every shard's deferred-deletion failures (see
    /// [`DglRTree::quiesce`]).
    pub fn quiesce(&self) -> Result<(), TxnError> {
        for s in &self.shards {
            s.quiesce()?;
        }
        Ok(())
    }

    /// Whether the index is durably backed (coordinator log attached).
    pub fn is_durable(&self) -> bool {
        self.coord.is_some()
    }

    // --- merged exports -------------------------------------------------

    /// The one merged export over the whole index: per-shard registries
    /// merged metric-wise with the router registry, except the
    /// commit-latency histogram, which is the router's alone — a
    /// participant commit is an internal phase of a global commit, not
    /// a second commit.
    pub fn obs_snapshot(&self) -> RegistrySnapshot {
        let router = self.obs.snapshot();
        let mut merged = self
            .shards
            .iter()
            .map(|s| s.obs().snapshot())
            .fold(router.clone(), |a, b| a.merge(&b));
        merged.hists[Hist::Commit as usize] = router.hists[Hist::Commit as usize];
        merged
    }

    /// Renders the merged registry as a Prometheus text dump.
    pub fn prometheus_dump(&self) -> String {
        dgl_obs::prometheus_text(&self.obs_snapshot())
    }

    /// Renders the cross-shard wait state a blocking request reasons
    /// over: every shard's lock table and transaction records, one id
    /// naming one transaction throughout (the shell's
    /// `locktable --merged`).
    pub fn merged_locktable_dump(&self) -> String {
        let shards = self.shards.iter().enumerate();
        shards
            .map(|(i, s)| format!("shard {i}:\n{}", s.lock_manager().debug_dump()))
            .collect()
    }

    // --- MVCC snapshot reads --------------------------------------------

    /// Begins a zero-lock snapshot read over **every** shard at one
    /// commit timestamp from the shared clock (see
    /// [`DglRTree::begin_snapshot`] for the single-tree semantics).
    /// Because the router stamps all participants of a global
    /// transaction inside one clock critical section, a sharded
    /// snapshot observes each global transaction all-or-nothing, even
    /// when its writes span shards.
    pub fn begin_snapshot(&self) -> ShardedSnapshot<'_> {
        ShardedSnapshot {
            db: self,
            ts: self.context.clock.begin_snapshot(),
        }
    }
}

/// A consistent zero-lock read view over every shard of a
/// [`ShardedDglRTree`], pinned at one commit timestamp of the shared
/// clock. Dropping it unregisters the snapshot and periodically kicks
/// version GC on every shard.
pub struct ShardedSnapshot<'a> {
    db: &'a ShardedDglRTree,
    ts: u64,
}

impl ShardedSnapshot<'_> {
    /// The commit timestamp this snapshot reads at.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Snapshot region scan: consults the same over-approximated shard
    /// set a locking scan would (so no qualifying object can be
    /// missed), merges the per-shard results, and returns them sorted
    /// by object id — bit-identical across repeated calls regardless of
    /// concurrent writers.
    pub fn read_scan(&self, query: Rect2) -> Vec<ScanHit> {
        let mut hits = Vec::new();
        for s in self.db.grid.scan_shards(&query) {
            hits.extend(self.db.shards[s].core.snapshot_scan(self.ts, &query));
        }
        hits.sort_unstable_by_key(|h| h.oid.0);
        hits
    }

    /// Snapshot point read by object id (first shard holding a version
    /// visible at this timestamp wins; ids are globally unique).
    pub fn read_single(&self, oid: ObjectId) -> Option<u64> {
        self.db
            .shards
            .iter()
            .find_map(|s| s.core.snapshot_read_single(self.ts, oid))
    }
}

impl Drop for ShardedSnapshot<'_> {
    fn drop(&mut self) {
        self.db.context.clock.end_snapshot(self.ts);
        // Same throttled GC trigger as the single-tree snapshot drop,
        // applied per shard (each shard prunes its own chains).
        for s in &self.db.shards {
            s.snapshot_dropped();
        }
    }
}

impl TransactionalRTree for ShardedDglRTree {
    fn begin(&self) -> TxnId {
        let g = self.context.domain.next_txn_id();
        self.sessions.lock().insert(g);
        g
    }

    fn commit(&self, txn: TxnId) -> Result<(), TxnError> {
        let start = Instant::now();
        if !self.sessions.lock().remove(&txn) {
            return Err(TxnError::NotActive);
        }
        self.commit_parts(txn, &self.parts_of(txn))?;
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(Hist::Commit, nanos);
        Ok(())
    }

    fn abort(&self, txn: TxnId) -> Result<(), TxnError> {
        if !self.sessions.lock().remove(&txn) {
            return Err(TxnError::NotActive);
        }
        self.abort_parts(txn, &self.parts_of(txn));
        Ok(())
    }

    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError> {
        let s = self.grid.home_shard(&rect);
        self.on_shard(txn, s, |shard| shard.insert(txn, oid, rect))
    }

    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        let s = self.grid.home_shard(&rect);
        self.on_shard(txn, s, |shard| shard.delete(txn, oid, rect))
    }

    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError> {
        let s = self.grid.home_shard(&rect);
        self.on_shard(txn, s, |shard| shard.read_single(txn, oid, rect))
    }

    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError> {
        let s = self.grid.home_shard(&rect);
        self.on_shard(txn, s, |shard| shard.update_single(txn, oid, rect))
    }

    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        let mut hits = Vec::new();
        for s in self.grid.scan_shards(&query) {
            hits.extend(self.on_shard(txn, s, |shard| shard.read_scan(txn, query))?);
        }
        Ok(hits)
    }

    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError> {
        let mut hits = Vec::new();
        for s in self.grid.scan_shards(&query) {
            hits.extend(self.on_shard(txn, s, |shard| shard.update_scan(txn, query))?);
        }
        Ok(hits)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn validate(&self) -> Result<(), String> {
        let mut seen: HashSet<ObjectId> = HashSet::new();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.validate().map_err(|e| format!("shard {i}: {e}"))?;
            // Object ids must be globally unique: routing is per-rect,
            // so a duplicate oid inserted under a different rect would
            // evade the shard-local duplicate check.
            let dup = shard.with_tree(|t| {
                t.all_objects()
                    .into_iter()
                    .find(|(oid, ..)| !seen.insert(*oid))
            });
            if let Some((oid, ..)) = dup {
                return Err(format!("object {oid} present on multiple shards"));
            }
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "dgl-sharded"
    }

    fn obs_registry(&self) -> &Arc<Registry> {
        &self.obs
    }
}

/// Reads the coordinator decision set: every `Commit { txn: gtxn }` in
/// any segment under `dir`, plus the highest generation present.
/// Lenient like all log reading — a torn tail on the live segment is a
/// normal crash artifact, and a decision that did not survive the tear
/// was never durable (its transaction is presumed aborted).
fn read_decisions(dir: &Path) -> Result<(HashSet<u64>, u64, bool), RecoverError> {
    let listing = scan_dir(dir)?;
    let mut decisions = HashSet::new();
    let mut max_gen = 0u64;
    for &g in &listing.segments {
        max_gen = max_gen.max(g);
        let seg = read_segment(&segment_path(dir, g))?;
        for rec in &seg.records {
            if let WalRecord::Commit { txn } = rec {
                decisions.insert(*txn);
            }
        }
    }
    Ok((decisions, max_gen, !listing.segments.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(shards: usize) -> GridDirectory {
        GridDirectory::new(Rect2::unit(), shards, 0.05)
    }

    fn small_rect(cx: f64, cy: f64) -> Rect2 {
        Rect2::new([cx - 0.01, cy - 0.01], [cx + 0.01, cy + 0.01])
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let g = grid(4);
        for i in 0..100 {
            let r = small_rect(0.01 + (i as f64) * 0.0097 % 0.98, (i as f64) * 0.013 % 0.98);
            let s = g.home_shard(&r);
            assert!(s < 4);
            assert_eq!(s, g.home_shard(&r), "routing must be pure");
        }
    }

    #[test]
    fn oversized_objects_route_to_overflow_shard() {
        let g = grid(4);
        let big = Rect2::new([0.2, 0.2], [0.9, 0.9]);
        assert_eq!(g.home_shard(&big), 0);
    }

    #[test]
    fn scans_cover_every_possible_home_shard() {
        // Phantom-safety core property: for any query and any object
        // rectangle intersecting it, the object's home shard is among
        // the scanned shards.
        let g = grid(7);
        let mut checked = 0usize;
        for qi in 0..12 {
            let q = Rect2::new(
                [0.08 * qi as f64 % 0.7, 0.05 * qi as f64 % 0.6],
                [0.08 * qi as f64 % 0.7 + 0.2, 0.05 * qi as f64 % 0.6 + 0.25],
            );
            let scanned = g.scan_shards(&q);
            for oi in 0..200 {
                let r = small_rect(
                    0.015 + (oi as f64 * 0.031) % 0.96,
                    0.015 + (oi as f64 * 0.047) % 0.96,
                );
                if r.intersects(&q) {
                    checked += 1;
                    assert!(
                        scanned.contains(&g.home_shard(&r)),
                        "object {r:?} intersects {q:?} but its home shard \
                         {} is not in {scanned:?}",
                        g.home_shard(&r)
                    );
                }
            }
            assert!(scanned.contains(&0), "overflow shard always consulted");
        }
        assert!(checked > 100, "property test exercised too few pairs");
    }

    #[test]
    fn single_shard_routes_everything_to_zero() {
        let g = grid(1);
        assert_eq!(g.home_shard(&Rect2::unit()), 0);
        assert_eq!(g.scan_shards(&Rect2::unit()), vec![0]);
    }
}
