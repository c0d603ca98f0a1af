use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::deadlock::WaitForGraph;
use crate::{LockDuration, LockMode, RequestKind, ResourceId, TxnId};
use dgl_obs::{Ctr, Event, Hist, Registry, Res};

/// Maps a lock-manager resource to its observability identity (obs sits
/// below this crate in the dependency graph, so it has its own type).
pub fn obs_res(res: ResourceId) -> Res {
    match res {
        ResourceId::Page(p) => Res::Page(p.0),
        ResourceId::Object(o) => Res::Object(o),
        ResourceId::Tree => Res::Tree,
    }
}

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held (immediately or after waiting).
    Granted,
    /// Conditional request could not be granted immediately.
    WouldBlock,
    /// Waiting would close a cycle in the waits-for graph; the requester
    /// was chosen as the victim and must abort.
    Deadlock,
    /// The wait-timeout backstop fired. Like [`LockOutcome::Deadlock`]
    /// the requester must abort, but the verdict stays distinct so retry
    /// classifiers can tell a detected cycle from a stall (and surface
    /// them as different transaction errors upstream).
    Timeout,
}

/// Stripes of the resource table and of the transaction records. A power
/// of two, so a stripe is a mask of the key's hash or id.
const STRIPES: usize = 16;

/// Configuration for [`LockManager`].
#[derive(Debug, Clone)]
pub struct LockManagerConfig {
    /// Backstop timeout for unconditional waits.
    pub wait_timeout: Duration,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        Self {
            wait_timeout: Duration::from_secs(10),
        }
    }
}

/// One transaction's granted lock on one resource.
///
/// A transaction holds at most one grant per resource; its effective mode
/// is the supremum of the commit-duration and short-duration slots. Short
/// slots disappear at operation end ([`LockManager::release_short`]), which
/// may *downgrade* the effective mode — e.g. an inserter's short SIX on an
/// external granule decays to nothing while its commit IX on the target
/// leaf granule survives.
#[derive(Debug, Clone, Copy)]
struct Grant {
    txn: TxnId,
    commit_mode: Option<LockMode>,
    short_mode: Option<LockMode>,
}

impl Grant {
    fn slot(&mut self, dur: LockDuration) -> &mut Option<LockMode> {
        match dur {
            LockDuration::Commit => &mut self.commit_mode,
            LockDuration::Short => &mut self.short_mode,
        }
    }

    /// Effective held mode (supremum of both duration slots).
    fn mode(&self) -> LockMode {
        match (self.commit_mode, self.short_mode) {
            (Some(c), Some(s)) => c.supremum(s),
            (Some(c), None) => c,
            (None, Some(s)) => s,
            (None, None) => unreachable!("empty grant"),
        }
    }
}

#[derive(Debug)]
enum WaitVerdict {
    Granted,
    Cancelled,
}

#[derive(Debug)]
struct WaitCell {
    state: Mutex<Option<WaitVerdict>>,
    cv: Condvar,
}

impl WaitCell {
    fn new() -> Self {
        Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn settle(&self, verdict: WaitVerdict) {
        *self.state.lock() = Some(verdict);
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    /// Total mode the transaction will hold if granted (supremum with any
    /// already-held mode, for conversions).
    want: LockMode,
    /// The mode actually requested (recorded into the duration slot).
    req_mode: LockMode,
    duration: LockDuration,
    conversion: bool,
    cell: Arc<WaitCell>,
}

/// The holders of one resource. The first grant lives inline, so granting
/// and releasing an uncontended resource — the common case — allocates and
/// frees nothing; a second and later holders spill to `rest`. Removal moves
/// the last holder into the gap, as `Vec::swap_remove` would on the holders
/// in order.
#[derive(Debug, Default)]
struct Grants {
    first: Option<Grant>,
    /// Empty unless `first` is set.
    rest: Vec<Grant>,
}

impl Grants {
    fn iter(&self) -> impl Iterator<Item = &Grant> {
        self.first.iter().chain(&self.rest)
    }

    fn of(&self, txn: TxnId) -> Option<&Grant> {
        self.iter().find(|g| g.txn == txn)
    }

    fn of_mut(&mut self, txn: TxnId) -> Option<&mut Grant> {
        self.first
            .iter_mut()
            .chain(&mut self.rest)
            .find(|g| g.txn == txn)
    }

    /// `txn`'s grant, created empty if it has none.
    fn entry(&mut self, txn: TxnId) -> &mut Grant {
        let empty = Grant {
            txn,
            commit_mode: None,
            short_mode: None,
        };
        let first = self.first.get_or_insert(empty);
        if first.txn == txn {
            return first;
        }
        match self.rest.iter().position(|g| g.txn == txn) {
            Some(i) => &mut self.rest[i],
            None => {
                self.rest.push(empty);
                self.rest.last_mut().expect("just pushed")
            }
        }
    }

    fn remove(&mut self, txn: TxnId) {
        if self.first.as_ref().is_some_and(|g| g.txn == txn) {
            self.first = self.rest.pop();
        } else if let Some(i) = self.rest.iter().position(|g| g.txn == txn) {
            self.rest.swap_remove(i);
        }
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }
}

#[derive(Debug, Default)]
struct ResourceState {
    grants: Grants,
    waiters: VecDeque<Waiter>,
}

impl ResourceState {
    /// Whether `mode` requested by `txn` is compatible with all grants held
    /// by *other* transactions.
    fn compatible_with_others(&self, txn: TxnId, mode: LockMode) -> bool {
        self.grants
            .iter()
            .filter(|g| g.txn != txn)
            .all(|g| mode.compatible(g.mode()))
    }

    /// Records `mode` in the `dur` slot of `txn`'s grant, creating the grant
    /// if need be. Returns whether the slot was empty: the resource is then
    /// new to that list of the transaction's record, and whoever granted it
    /// must list it there.
    fn fill(&mut self, txn: TxnId, mode: LockMode, dur: LockDuration) -> bool {
        let slot = self.grants.entry(txn).slot(dur);
        let fresh = slot.is_none();
        *slot = Some(slot.map_or(mode, |m| m.supremum(mode)));
        fresh
    }

    fn is_unused(&self) -> bool {
        self.grants.is_empty() && self.waiters.is_empty()
    }
}

/// Grants one call made that filled an empty slot, waiting to be listed in
/// the transaction's record: up to `N` on the stack, listed with one visit
/// to the transaction's stripe (a longer run flushes every `N`). Dropping
/// lists what is left, so a call that unwinds — a panicking failpoint —
/// still leaves every grant it made on the record.
struct Listing<'a, const N: usize> {
    lm: &'a LockManager,
    txn: TxnId,
    fresh: [(ResourceId, LockDuration); N],
    len: usize,
}

impl<'a, const N: usize> Listing<'a, N> {
    fn new(lm: &'a LockManager, txn: TxnId) -> Self {
        Self {
            lm,
            txn,
            fresh: [(ResourceId::Tree, LockDuration::Short); N],
            len: 0,
        }
    }

    fn push(&mut self, res: ResourceId, dur: LockDuration) {
        if self.len == N {
            self.flush();
        }
        self.fresh[self.len] = (res, dur);
        self.len += 1;
    }

    fn flush(&mut self) {
        if self.len > 0 {
            self.lm.list(self.txn, &self.fresh[..self.len]);
            self.len = 0;
        }
    }
}

impl<const N: usize> Drop for Listing<'_, N> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// How many fresh grants [`LockManager::try_lock_all`] lists per visit to
/// the transaction's stripe: a scan's lock set averages about seven.
const LISTING: usize = 16;

/// A refused request's resource stripe, still held, with the mode the
/// transaction would hold if granted and whether that is a conversion —
/// what an unconditional request needs to queue.
type Refused<'a> = (
    parking_lot::MutexGuard<'a, HashMap<ResourceId, ResourceState, MixBuild>>,
    LockMode,
    bool,
);

/// Everything the manager knows about one transaction outside the
/// resource table. Created lazily by the first request or system mark
/// (stand-alone callers use ids no transaction manager ever began) and
/// dropped once it says nothing.
///
/// Invariants: a grant of the transaction with a short slot is listed in
/// `short`; any grant of it is listed in `commit` or `short`; neither list
/// repeats a resource. A grant is listed before the call that granted it
/// returns — `lock` and `try_lock_all` list their own grants after leaving
/// the resource stripes, with one visit to this stripe per call, and a
/// grant handed to a parked waiter is listed before the waiter wakes — not
/// under the resource stripe. Nobody can see the gap: only the
/// transaction's own thread releases its locks or reads these lists
/// (`release_short`, `release_all`, `locks_held`); other threads touch
/// only `waiting_on` and `system`.
#[derive(Debug, Default)]
struct TxnRecord {
    /// Resources on which the transaction has a commit-duration slot.
    commit: Vec<ResourceId>,
    /// Resources on which it has a short-duration slot: all that the end
    /// of an operation has to visit.
    short: Vec<ResourceId>,
    /// The resource its blocked unconditional request is queued on
    /// (victim cancellation finds the wait through this).
    waiting_on: Option<ResourceId>,
    /// Exempt from deadlock victim selection.
    system: bool,
}

impl TxnRecord {
    fn is_idle(&self) -> bool {
        self.commit.is_empty() && self.short.is_empty() && self.waiting_on.is_none() && !self.system
    }
}

/// Multiply-mix hasher for the table's fixed-width keys: one folded
/// 64×64→128 multiply per word instead of SipHash's rounds. Seeded per
/// manager (object ids arrive from clients) by [`MixBuild`].
#[derive(Debug)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15_u128;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`BuildHasher`] of `MixHasher` for maps keyed by ids (`TxnId`, object
/// ids, [`ResourceId`]) — the lock table's, and `dgl-txn`'s active set
/// with its per-transaction records.
#[derive(Debug, Clone)]
pub struct MixBuild(u64);

impl MixBuild {
    /// A hasher with a fresh per-process-random seed.
    pub fn seeded() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for MixBuild {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        MixHasher(self.0)
    }
}

type Stripe<K, V> = Mutex<HashMap<K, V, MixBuild>>;

/// One granted lock in a [`LockManager::table_snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct GrantEntry {
    /// Holding transaction.
    pub txn: TxnId,
    /// Effective held mode (supremum of the duration slots).
    pub mode: LockMode,
    /// Commit-duration slot, if set.
    pub commit_mode: Option<LockMode>,
    /// Short-duration slot, if set.
    pub short_mode: Option<LockMode>,
}

/// One queued waiter in a [`LockManager::table_snapshot`].
#[derive(Debug, Clone, Copy)]
pub struct WaiterEntry {
    /// Waiting transaction.
    pub txn: TxnId,
    /// Total mode it will hold when granted.
    pub mode: LockMode,
    /// Whether this is a conversion of an existing grant.
    pub conversion: bool,
}

/// One blocking edge in a [`LockManager::wait_edges`] snapshot: `waiter`
/// is queued behind `holder` on `res`. The same waiter appears once per
/// transaction it waits behind (incompatible grant holders plus waiters
/// queued ahead of it under the FIFO grant policy).
#[derive(Debug, Clone, Copy)]
pub struct WaitEdge {
    /// The blocked transaction.
    pub waiter: TxnId,
    /// A transaction it cannot be granted before.
    pub holder: TxnId,
    /// The contended resource.
    pub res: ResourceId,
}

/// Lock state of one resource in a [`LockManager::table_snapshot`].
#[derive(Debug, Clone)]
pub struct ResourceTableEntry {
    /// The resource.
    pub res: ResourceId,
    /// Current grant holders.
    pub grants: Vec<GrantEntry>,
    /// FIFO wait queue (conversions first).
    pub waiters: Vec<WaiterEntry>,
}

/// A wait past this is reported by the waiter itself (counter + event),
/// once, and left to wait: roughly 1000× a typical transaction, so
/// crossing it is worth a diagnostic — not an abort.
pub const STALL_THRESHOLD: Duration = Duration::from_millis(50);

/// A wait-for domain: the lock managers whose transactions draw their ids
/// from one sequence. A [`TxnId`] therefore names the same transaction in
/// every member's table and "youngest = highest id" means the same thing
/// in all of them, so a request about to block can search the union of
/// the members' wait edges and a cycle that crosses tables is an ordinary
/// cycle. The tables themselves stay apart: each member grants, queues
/// and releases on its own.
///
/// A manager built by [`LockManager::new`] or [`LockManager::with_obs`]
/// owns a domain alone; the shards of a sharded index
/// [`join`](LockManager::join) one.
#[derive(Debug)]
pub struct WaitDomain {
    next_id: AtomicU64,
    /// The managers that joined (weak: each holds the domain).
    members: Mutex<Vec<Weak<LockManager>>>,
}

impl WaitDomain {
    /// An empty domain whose transaction ids start at `first_id`.
    pub fn new(first_id: u64) -> Arc<Self> {
        Arc::new(Self {
            next_id: AtomicU64::new(first_id),
            members: Mutex::new(Vec::new()),
        })
    }

    /// The next transaction id: lower ids are older transactions, and no
    /// id is handed out twice.
    pub fn next_txn_id(&self) -> TxnId {
        TxnId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Every live member other than `me`.
    fn peers_of(&self, me: &LockManager) -> Vec<Arc<LockManager>> {
        let members = self.members.lock();
        let live = members.iter().filter_map(Weak::upgrade);
        live.filter(|m| !std::ptr::eq(&**m, me)).collect()
    }
}

/// The lock manager: a sharded lock table with FIFO grant queues,
/// conversion priority, deadlock detection over its [`WaitDomain`] and a
/// wait-timeout backstop.
///
/// See the crate docs for the feature set; the protocol crate issues every
/// granule and object lock through this type.
///
/// ```
/// use dgl_lockmgr::{
///     LockDuration::{Commit, Short},
///     LockManager, LockMode, LockOutcome, RequestKind::Conditional, ResourceId, TxnId,
/// };
/// use dgl_pager::PageId;
///
/// let lm = LockManager::default();
/// let (t1, t2) = (TxnId(1), TxnId(2));
/// let granule = ResourceId::Page(PageId(7));
/// // A searcher's commit-duration S lock…
/// assert_eq!(lm.lock(t1, granule, LockMode::S, Commit, Conditional), LockOutcome::Granted);
/// // …blocks an inserter's IX (conditional requests never wait).
/// assert_eq!(lm.lock(t2, granule, LockMode::IX, Commit, Conditional), LockOutcome::WouldBlock);
/// lm.release_all(t1);
/// assert_eq!(lm.lock(t2, granule, LockMode::IX, Commit, Conditional), LockOutcome::Granted);
/// # lm.release_all(t2);
/// ```
pub struct LockManager {
    /// The resource table. Lock order: a resource stripe, then a
    /// transaction stripe; neither is held across a wait.
    shards: Vec<Stripe<ResourceId, ResourceState>>,
    /// Per-transaction records, as many stripes as `shards`, picked by
    /// the (sequential) transaction id.
    txns: Vec<Stripe<TxnId, TxnRecord>>,
    hasher: MixBuild,
    /// Transactions parked in an unconditional wait.
    parked: AtomicUsize,
    wait_timeout: Duration,
    domain: Arc<WaitDomain>,
    obs: Arc<Registry>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl Default for LockManager {
    fn default() -> Self {
        Self::new(LockManagerConfig::default())
    }
}

impl LockManager {
    /// Creates a lock manager with the given configuration and a private
    /// observability registry.
    pub fn new(config: LockManagerConfig) -> Self {
        Self::with_obs(config, Arc::new(Registry::new()))
    }

    /// Creates a lock manager reporting into a shared observability
    /// registry (the protocol layer passes its tree-wide registry so lock
    /// waits and latch holds land in one place).
    pub fn with_obs(config: LockManagerConfig, obs: Arc<Registry>) -> Self {
        Self::build(config, obs, WaitDomain::new(1))
    }

    /// Creates a lock manager that is a member of `domain`: its
    /// transactions carry ids of the domain's sequence, and a request
    /// about to block in any member searches this table's wait edges too.
    pub fn join(
        config: LockManagerConfig,
        obs: Arc<Registry>,
        domain: &Arc<WaitDomain>,
    ) -> Arc<Self> {
        let lm = Arc::new(Self::build(config, obs, Arc::clone(domain)));
        domain.members.lock().push(Arc::downgrade(&lm));
        lm
    }

    fn build(config: LockManagerConfig, obs: Arc<Registry>, domain: Arc<WaitDomain>) -> Self {
        let hasher = MixBuild::seeded();
        fn table<K, V>(hasher: &MixBuild) -> Vec<Stripe<K, V>> {
            (0..STRIPES)
                .map(|_| Mutex::new(HashMap::with_hasher(hasher.clone())))
                .collect()
        }
        Self {
            shards: table(&hasher),
            txns: table(&hasher),
            hasher,
            parked: AtomicUsize::new(0),
            wait_timeout: config.wait_timeout,
            domain,
            obs,
        }
    }

    /// The observability registry this manager reports into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The wait-for domain this manager's transaction ids come from.
    pub fn domain(&self) -> &Arc<WaitDomain> {
        &self.domain
    }

    /// Marks `txn` as a *system* transaction: deadlock victim selection
    /// will sacrifice it only when every cycle member is a system
    /// transaction. Used for the deferred physical deletions that run
    /// after commit and must not be rolled back.
    pub fn set_system(&self, txn: TxnId) {
        self.record(txn, |r| r.system = true);
    }

    /// Clears the system mark (call when the system operation finishes).
    pub fn clear_system(&self, txn: TxnId) {
        self.peek(txn, |r| r.system = false);
    }

    /// Whether `txn` is currently marked as a system transaction.
    pub fn is_system(&self, txn: TxnId) -> bool {
        self.peek(txn, |r| r.system)
    }

    /// The stripe comes from hash bits the in-stripe map uses neither for
    /// bucketing (the low ones) nor for its control bytes (the top seven).
    fn shard(&self, res: &ResourceId) -> &Stripe<ResourceId, ResourceState> {
        &self.shards[(self.hasher.hash_one(res) >> 32) as usize & (STRIPES - 1)]
    }

    fn txn_stripe(&self, txn: TxnId) -> &Stripe<TxnId, TxnRecord> {
        &self.txns[txn.0 as usize & (STRIPES - 1)]
    }

    /// Runs `f` on `txn`'s record, creating it if need be.
    fn record<R>(&self, txn: TxnId, f: impl FnOnce(&mut TxnRecord) -> R) -> R {
        f(self.txn_stripe(txn).lock().entry(txn).or_default())
    }

    /// Runs `f` on `txn`'s record if it has one (`R::default()` if not),
    /// then drops a record that no longer says anything.
    fn peek<R: Default>(&self, txn: TxnId, f: impl FnOnce(&mut TxnRecord) -> R) -> R {
        let mut stripe = self.txn_stripe(txn).lock();
        let Some(rec) = stripe.get_mut(&txn) else {
            return R::default();
        };
        let out = f(rec);
        if rec.is_idle() {
            stripe.remove(&txn);
        }
        out
    }

    /// Lists `fresh` grants of `txn` in its record — the one place the
    /// lists grow.
    fn list(&self, txn: TxnId, fresh: &[(ResourceId, LockDuration)]) {
        self.record(txn, |r| {
            for &(res, dur) in fresh {
                match dur {
                    LockDuration::Commit => r.commit.push(res),
                    LockDuration::Short => r.short.push(res),
                }
            }
        });
    }

    /// The one grant routine, behind both [`lock`](Self::lock) and
    /// [`try_lock_all`](Self::try_lock_all): grants `txn` `mode` on `res`
    /// if that is possible now, pushing a grant that filled an empty slot
    /// onto `listing`. A refusal is reported to the event stream and hands
    /// back the resource's stripe, still held.
    fn request<'a, const N: usize>(
        &'a self,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
        dur: LockDuration,
        listing: &mut Listing<'_, N>,
    ) -> Result<(), Refused<'a>> {
        // Chaos hook: delay (slow lock manager) or panic (requester dies
        // before this request touches the lock table; the grants its call
        // made before are listed as the listing unwinds).
        dgl_faults::failpoint!("lockmgr/acquire");
        self.obs.incr(match dur {
            LockDuration::Short => Ctr::LockReqShort,
            LockDuration::Commit => Ctr::LockReqCommit,
        });
        let mut shard = self.shard(&res).lock();
        let state = shard.entry(res).or_default();
        debug_assert!(
            !state.waiters.iter().any(|w| w.txn == txn),
            "{txn} issued a second request on {res} while already waiting"
        );
        // A transaction that already holds the resource is asking for a
        // *conversion*: it ends up with the supremum, is not held behind
        // queued waiters, and needs nothing at all if what it holds
        // already covers the request.
        let held = state.grants.of(txn).map(Grant::mode);
        let conversion = held.is_some();
        let covered = held.is_some_and(|h| h.covers(mode));
        let want = held.map_or(mode, |h| h.supremum(mode));
        let grantable = covered
            || (conversion || state.waiters.is_empty()) && state.compatible_with_others(txn, want);
        if !grantable {
            self.emit_blocked(txn, res, mode, state);
            return Err((shard, want, conversion));
        }
        if conversion && !covered {
            self.obs.incr(Ctr::LockConversions);
        }
        let fresh = state.fill(txn, mode, dur);
        drop(shard);
        if fresh {
            listing.push(res, dur);
        }
        self.emit_granted(txn, res, mode, dur);
        if !conversion {
            // Chaos hook: delay-only site (the grant is already on the
            // listing; a panic would be indistinguishable from one in the
            // caller).
            dgl_faults::failpoint!("lockmgr/grant");
        }
        Ok(())
    }

    /// Conditionally requests each of `reqs`, in the given order: a whole
    /// operation's lock set in one call. Stops at the first request that
    /// cannot be granted now and returns it; the grants made before it are
    /// kept, exactly as if each request had been its own conditional
    /// [`lock`](Self::lock). The transaction's record is visited once for
    /// the call, not once per newly held lock, and the call allocates
    /// nothing of its own.
    pub fn try_lock_all(
        &self,
        txn: TxnId,
        reqs: impl IntoIterator<Item = (ResourceId, LockMode, LockDuration)>,
    ) -> Result<(), (ResourceId, LockMode, LockDuration)> {
        let mut listing = Listing::<LISTING>::new(self, txn);
        for (res, mode, dur) in reqs {
            if self.request(txn, res, mode, dur, &mut listing).is_err() {
                self.obs.incr(Ctr::LockConditionalFail);
                return Err((res, mode, dur));
            }
        }
        Ok(())
    }

    /// Requests a lock on `res` in `mode` for `txn`.
    ///
    /// Re-requesting a resource the transaction already covers records the
    /// duration and returns immediately; requesting a stronger mode is a
    /// *conversion* (the transaction ends up holding the supremum).
    /// Conditional requests never wait. Unconditional requests wait FIFO,
    /// abort with [`LockOutcome::Deadlock`] if blocking would close a
    /// waits-for cycle, and with [`LockOutcome::Timeout`] if the backstop
    /// fires.
    pub fn lock(
        &self,
        txn: TxnId,
        res: ResourceId,
        mode: LockMode,
        dur: LockDuration,
        kind: RequestKind,
    ) -> LockOutcome {
        let cell;
        {
            let (mut shard, want, conversion) =
                match self.request(txn, res, mode, dur, &mut Listing::<1>::new(self, txn)) {
                    Ok(()) => return LockOutcome::Granted,
                    Err(refused) => refused,
                };
            if kind == RequestKind::Conditional {
                self.obs.incr(Ctr::LockConditionalFail);
                return LockOutcome::WouldBlock;
            }
            if conversion {
                self.obs.incr(Ctr::LockConversions);
            }
            let state = shard.get_mut(&res).expect("the refused request's entry");
            cell = Arc::new(WaitCell::new());
            // Conversions queue ahead of ordinary waiters (after any
            // conversions already queued), the standard anti-starvation
            // placement.
            let pos = if conversion {
                state.waiters.iter().take_while(|w| w.conversion).count()
            } else {
                state.waiters.len()
            };
            state.waiters.insert(
                pos,
                Waiter {
                    txn,
                    want,
                    req_mode: mode,
                    duration: dur,
                    conversion,
                    cell: Arc::clone(&cell),
                },
            );
        }
        let wait_start = Instant::now();
        self.record(txn, |r| r.waiting_on = Some(res));
        self.parked.fetch_add(1, Ordering::SeqCst);
        // Every way out of the wait: the record stops saying "waiting",
        // the verdict and the wait are counted.
        let finish_wait = |outcome: LockOutcome| {
            self.peek(txn, |r| r.waiting_on = None);
            self.parked.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                LockOutcome::Deadlock => self.obs.incr(Ctr::LockDeadlocks),
                LockOutcome::Timeout => self.obs.incr(Ctr::LockTimeouts),
                _ => {}
            }
            let nanos = wait_start.elapsed().as_nanos() as u64;
            self.obs.record(Hist::LockWait, nanos);
            // Per-operation-kind breakdown (scan vs point vs write): the
            // protocol layer declares the kind through a thread-local
            // scope; waits outside any scope (system operations, direct
            // lock-manager use) stay aggregate-only.
            if let Some(kind) = dgl_obs::current_op_kind() {
                self.obs.record(kind.wait_hist(), nanos);
            }
            if self.obs.detail() {
                self.obs.emit(Event::LockWaitEnd {
                    txn: txn.0,
                    res: obs_res(res),
                    granted: outcome == LockOutcome::Granted,
                    wait_nanos: nanos,
                });
            }
            outcome
        };

        // About to block: if this wait closes a cycle, abort the youngest
        // non-system member. If that is us, give up; otherwise the
        // victim's wait has been cancelled, and we block. (A verdict that
        // raced with a grant is picked up by the wait below.)
        if self.resolve_deadlocks(txn, res) {
            return finish_wait(LockOutcome::Deadlock);
        }

        // Chaos hook: force the timeout verdict without waiting out the
        // backstop — exercises the Timeout path (distinct from Deadlock)
        // on demand. Skipped if the wait was already granted.
        if dgl_faults::fired!("lockmgr/timeout") && self.cancel_waiter(res, txn) {
            return finish_wait(LockOutcome::Timeout);
        }

        let deadline = Instant::now() + self.wait_timeout;
        // The waiter is its own stall watchdog: it wakes once at the
        // threshold to report itself, then waits for the backstop.
        let mut wake = deadline.min(wait_start + STALL_THRESHOLD);
        let mut guard = cell.state.lock();
        loop {
            match &*guard {
                Some(WaitVerdict::Granted) => {
                    drop(guard);
                    finish_wait(LockOutcome::Granted);
                    self.emit_granted(txn, res, mode, dur);
                    return LockOutcome::Granted;
                }
                Some(WaitVerdict::Cancelled) => {
                    drop(guard);
                    return finish_wait(LockOutcome::Deadlock);
                }
                None => {
                    if cell.cv.wait_until(&mut guard, wake).timed_out() {
                        if wake < deadline {
                            wake = deadline;
                            self.obs.incr(Ctr::WatchdogStalls);
                            self.obs.emit(Event::WatchdogStall {
                                txn: txn.0,
                                res: obs_res(res),
                                wait_nanos: wait_start.elapsed().as_nanos() as u64,
                            });
                            continue;
                        }
                        drop(guard);
                        if self.cancel_waiter(res, txn) {
                            return finish_wait(LockOutcome::Timeout);
                        }
                        // Granted concurrently with the timeout.
                        guard = cell.state.lock();
                    }
                }
            }
        }
    }

    /// Releases all short-duration lock slots of `txn` (end of operation).
    ///
    /// Grants whose only slot was short disappear; grants that also have a
    /// commit slot are downgraded to it. Either way waiting requests are
    /// re-examined. Visits only the resources on the record's short list:
    /// none after an operation that took commit locks alone.
    pub fn release_short(&self, txn: TxnId) {
        let short = self.peek(txn, |r| std::mem::take(&mut r.short));
        self.release(txn, short, false);
    }

    /// Releases every lock of `txn` (transaction commit or rollback).
    pub fn release_all(&self, txn: TxnId) {
        let (commit, short) = self.peek(txn, |r| {
            (std::mem::take(&mut r.commit), std::mem::take(&mut r.short))
        });
        self.release(txn, commit.into_iter().chain(short), true);
    }

    /// Drops `txn`'s short slot — with `all`, its whole grant — on each of
    /// `resources`, one table visit apiece, and wakes what that unblocks.
    fn release(&self, txn: TxnId, resources: impl IntoIterator<Item = ResourceId>, all: bool) {
        let mut visits = 0;
        let mut wakeups = Vec::new();
        for res in resources {
            visits += 1;
            let mut shard = self.shard(&res).lock();
            let Entry::Occupied(mut entry) = shard.entry(res) else {
                continue;
            };
            let state = entry.get_mut();
            let Some(grant) = state.grants.of_mut(txn) else {
                continue; // listed twice (both slots): dropped by the first visit
            };
            grant.short_mode = None;
            if all || grant.commit_mode.is_none() {
                state.grants.remove(txn);
            }
            self.process_queue(res, state, &mut wakeups);
            if state.is_unused() {
                entry.remove();
            }
        }
        if visits > 0 {
            self.obs.add(Ctr::LockReleaseVisits, visits);
        }
        Self::notify(wakeups);
    }

    /// The mode `txn` currently holds on `res`, if any.
    pub fn held(&self, txn: TxnId, res: ResourceId) -> Option<LockMode> {
        let shard = self.shard(&res).lock();
        shard
            .get(&res)
            .and_then(|s| s.grants.of(txn).map(Grant::mode))
    }

    /// The commit-duration mode `txn` holds on `res`, ignoring any
    /// short-duration slot. The protocol's §3.5 self-inheritance checks
    /// ("did this transaction hold an S lock from an earlier scan?") must
    /// not be confused by the operation's own short SIX locks.
    pub fn held_commit(&self, txn: TxnId, res: ResourceId) -> Option<LockMode> {
        let shard = self.shard(&res).lock();
        shard
            .get(&res)
            .and_then(|s| s.grants.of(txn).and_then(|g| g.commit_mode))
    }

    /// All current holders of `res` with their effective modes (test/debug).
    pub fn holders(&self, res: ResourceId) -> Vec<(TxnId, LockMode)> {
        let shard = self.shard(&res).lock();
        shard
            .get(&res)
            .map(|s| s.grants.iter().map(|g| (g.txn, g.mode())).collect())
            .unwrap_or_default()
    }

    /// Number of resources with live lock state (leak check in tests).
    pub fn resource_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Number of distinct resources `txn` holds locks on.
    pub fn locks_held(&self, txn: TxnId) -> usize {
        self.peek(txn, |r| {
            r.commit.len() + r.short.iter().filter(|s| !r.commit.contains(s)).count()
        })
    }

    /// A structured snapshot of the live lock table (grants and wait
    /// queues per resource, sorted by resource id). Powers the shell's
    /// `locktable` command. Each shard is read under its own lock; the
    /// snapshot is per-resource consistent, not globally atomic.
    pub fn table_snapshot(&self) -> Vec<ResourceTableEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (res, state) in shard.iter() {
                out.push(ResourceTableEntry {
                    res: *res,
                    grants: state
                        .grants
                        .iter()
                        .map(|g| GrantEntry {
                            txn: g.txn,
                            mode: g.mode(),
                            commit_mode: g.commit_mode,
                            short_mode: g.short_mode,
                        })
                        .collect(),
                    waiters: state
                        .waiters
                        .iter()
                        .map(|w| WaiterEntry {
                            txn: w.txn,
                            mode: w.want,
                            conversion: w.conversion,
                        })
                        .collect(),
                });
            }
        }
        out.sort_by_key(|e| e.res);
        out
    }

    /// Number of transactions currently blocked in an unconditional
    /// wait. Cheap (one atomic load, no table walk).
    pub fn waiter_count(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// A cheap flat snapshot of every blocking edge in the lock table:
    /// waiter → each transaction it cannot be granted before. This is
    /// the per-manager contribution to its domain's wait-for graph; each
    /// shard of the lock table is read under its own mutex, so the
    /// snapshot is per-resource consistent, like
    /// [`LockManager::table_snapshot`].
    pub fn wait_edges(&self) -> Vec<WaitEdge> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (res, state) in shard.iter() {
                for (i, w) in state.waiters.iter().enumerate() {
                    let mut push = |holder: TxnId| {
                        out.push(WaitEdge {
                            waiter: w.txn,
                            holder,
                            res: *res,
                        });
                    };
                    for g in state.grants.iter() {
                        if g.txn != w.txn && !w.want.compatible(g.mode()) {
                            push(g.txn);
                        }
                    }
                    if !w.conversion {
                        for ahead in state.waiters.iter().take(i) {
                            if ahead.txn != w.txn {
                                push(ahead.txn);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Renders the entire lock table (grants and wait queues) for hang
    /// diagnosis. Expensive; debugging aid only.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (res, state) in shard.iter() {
                let _ = write!(out, "{res}: granted[");
                for g in state.grants.iter() {
                    let _ = write!(
                        out,
                        " {}:{}(c:{:?},s:{:?})",
                        g.txn,
                        g.mode(),
                        g.commit_mode,
                        g.short_mode
                    );
                }
                let _ = write!(out, " ] waiting[");
                for w in &state.waiters {
                    let _ = write!(
                        out,
                        " {}:{}{}",
                        w.txn,
                        w.want,
                        if w.conversion { "(conv)" } else { "" }
                    );
                }
                let _ = writeln!(out, " ]");
            }
        }
        for stripe in &self.txns {
            for (txn, rec) in stripe.lock().iter() {
                let _ = writeln!(out, "{txn}: {rec:?}");
            }
        }
        out
    }

    // -- internals ---------------------------------------------------------

    /// Grants waiters from the front of the queue while possible.
    ///
    /// Conversions (queued at the front) are grantable when compatible with
    /// all *other* grants; ordinary waiters when compatible with all grants.
    /// Processing stops at the first ungrantable waiter (strict FIFO, no
    /// starvation).
    fn process_queue(
        &self,
        res: ResourceId,
        state: &mut ResourceState,
        wakeups: &mut Vec<Arc<WaitCell>>,
    ) {
        while let Some(front) = state.waiters.front() {
            let ok = if front.conversion {
                state.compatible_with_others(front.txn, front.want)
            } else {
                state.grants.iter().all(|g| front.want.compatible(g.mode()))
            };
            if !ok {
                break;
            }
            let w = state.waiters.pop_front().expect("front exists");
            if state.fill(w.txn, w.req_mode, w.duration) {
                // Listed before the waiter wakes, so before its `lock`
                // call returns.
                self.list(w.txn, &[(res, w.duration)]);
            }
            wakeups.push(w.cell);
        }
    }

    /// Settles granted waiters' cells; called with no stripe held.
    fn notify(wakeups: Vec<Arc<WaitCell>>) {
        for cell in wakeups {
            cell.settle(WaitVerdict::Granted);
        }
    }

    /// Removes `txn`'s waiter on `res`. Returns false if it is no longer
    /// queued (i.e. it was granted concurrently).
    fn cancel_waiter(&self, res: ResourceId, txn: TxnId) -> bool {
        let mut wakeups = Vec::new();
        let removed = {
            let mut shard = self.shard(&res).lock();
            let Some(state) = shard.get_mut(&res) else {
                return false;
            };
            let Some(pos) = state.waiters.iter().position(|w| w.txn == txn) else {
                return false;
            };
            let w = state.waiters.remove(pos).expect("position exists");
            w.cell.settle(WaitVerdict::Cancelled);
            // Removing a waiter may unblock those behind it.
            self.process_queue(res, state, &mut wakeups);
            if state.is_unused() {
                shard.remove(&res);
            }
            true
        };
        Self::notify(wakeups);
        removed
    }

    /// Resolves any waits-for cycles through `txn`, whose request is
    /// queued on `res` and about to block, by aborting victims. Returns
    /// true if `txn` itself must abort: it was the chosen victim and its
    /// waiter has been withdrawn.
    ///
    /// The graph is the union of the wait edges of every table in the
    /// domain, read now: every member of a cycle is parked in some
    /// member's queue, so the victim is either the requester or a waiter
    /// whose record — in whichever table holds it — says where it waits.
    ///
    /// Victim policy: the youngest (highest-id) non-system member of the
    /// cycle; if every member is a system transaction, the youngest of
    /// them. Non-requester victims have their waits cancelled (their
    /// blocked `lock()` call returns [`LockOutcome::Deadlock`] and counts
    /// the verdict).
    fn resolve_deadlocks(&self, txn: TxnId, res: ResourceId) -> bool {
        let peers = self.domain.peers_of(self);
        let tables = || std::iter::once(self).chain(peers.iter().map(|m| &**m));
        for _ in 0..16 {
            let mut graph = WaitForGraph::new();
            for e in tables().flat_map(|m| m.wait_edges()) {
                graph.add_edge(e.waiter, e.holder);
            }
            let Some(members) = graph.cycle_through(txn) else {
                return false;
            };
            let system: HashSet<TxnId> = members
                .iter()
                .copied()
                .filter(|t| tables().any(|m| m.is_system(*t)))
                .collect();
            let victim = crate::deadlock::select_victim(&members, &system);
            let parked = if victim == txn {
                Some((self, res))
            } else {
                tables().find_map(|m| Some((m, m.peek(victim, |r| r.waiting_on)?)))
            };
            // Not cancelled: the victim raced to a grant or to another
            // requester's verdict — the next pass (or, for the requester,
            // the wait) re-examines.
            let cancelled = parked.is_some_and(|(m, res)| m.cancel_waiter(res, victim));
            if cancelled && self.obs.detail() {
                self.obs.emit(Event::DeadlockVictim {
                    txn: victim.0,
                    cycle: members.iter().map(|t| t.0).collect(),
                });
            }
            if victim == txn {
                return cancelled;
            }
        }
        // Could not stabilize; sacrifice the requester as a backstop.
        self.cancel_waiter(res, txn)
    }

    /// Emits grant evidence to the event stream (detail mode only).
    fn emit_granted(&self, txn: TxnId, res: ResourceId, mode: LockMode, dur: LockDuration) {
        if self.obs.detail() {
            self.obs.emit(Event::LockGranted {
                txn: txn.0,
                res: obs_res(res),
                mode: mode.name(),
                duration: match dur {
                    LockDuration::Short => "short",
                    LockDuration::Commit => "commit",
                },
            });
        }
    }

    /// Emits conflict evidence — which other transactions currently hold
    /// the resource, and in what modes — to the event stream (detail mode
    /// only). Called under the resource's shard lock so the holder list
    /// is exact at block time.
    fn emit_blocked(&self, txn: TxnId, res: ResourceId, mode: LockMode, state: &ResourceState) {
        if self.obs.detail() {
            let holders = state
                .grants
                .iter()
                .filter(|g| g.txn != txn)
                .map(|g| (g.txn.0, g.mode().name()))
                .collect();
            self.obs.emit(Event::LockBlocked {
                txn: txn.0,
                res: obs_res(res),
                mode: mode.name(),
                holders,
            });
        }
    }
}
