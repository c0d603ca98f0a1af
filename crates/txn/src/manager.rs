use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use dgl_lockmgr::dgl_obs::Ctr;
use dgl_lockmgr::{LockManager, MixBuild, TxnId};

/// Tracks the active set of one index (or one shard of it) and performs
/// the terminal transitions.
///
/// Ids come from the lock manager's [`WaitDomain`](dgl_lockmgr::WaitDomain)
/// — one sequence for every manager whose lock tables can form a cycle
/// together: lower ids are older transactions; ids are never reused. Both
/// terminal transitions release *all* locks the transaction holds in the
/// attached [`LockManager`] — the protocol layer runs its deferred
/// deletions / undo actions *before* calling them, matching the paper's
/// requirement that commit-duration locks protect the deferred work.
/// Begins, commits and aborts are counted in the lock manager's registry
/// (`txns_started` / `txns_committed` / `txns_aborted`).
///
/// Each active transaction carries one record `R` (`()` for none),
/// created by `begin` and returned by the terminal transition. **The map
/// is a leaf lock**, like the payload table's stripes: a record closure
/// never takes the tree latch, a stripe, the commit clock or the lock
/// manager.
#[derive(Debug)]
pub struct TxnManager<R = ()> {
    lock_manager: Arc<LockManager>,
    active: Mutex<HashMap<TxnId, R, MixBuild>>,
}

impl TxnManager<()> {
    /// Creates a manager releasing locks through `lock_manager`.
    pub fn new(lock_manager: Arc<LockManager>) -> Self {
        Self::with_records(lock_manager)
    }
}

impl<R: Default> TxnManager<R> {
    /// [`TxnManager::new`], each transaction's record `R::default()`.
    pub fn with_records(lock_manager: Arc<LockManager>) -> Self {
        Self {
            lock_manager,
            active: Mutex::new(HashMap::with_hasher(MixBuild::seeded())),
        }
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> TxnId {
        self.begin_with(R::default())
    }

    /// Begins a new transaction whose record is `record` from the start:
    /// no caller can find it active with another.
    pub fn begin_with(&self, record: R) -> TxnId {
        let id = self.lock_manager.domain().next_txn_id();
        self.join(id, record);
        id
    }

    /// Begins the transaction `id` here: a global transaction, begun by
    /// whoever drew `id` from the domain's sequence, joining this shard on
    /// its first touch.
    ///
    /// # Panics
    /// Panics if `id` is already active here.
    pub fn begin_as(&self, id: TxnId) {
        self.join(id, R::default());
    }

    fn join(&self, id: TxnId, record: R) {
        let joined = self.active.lock().insert(id, record);
        assert!(joined.is_none(), "second begin of active transaction {id}");
        self.lock_manager.obs().incr(Ctr::TxnsStarted);
    }

    /// Whether `txn` is currently active.
    pub fn is_active(&self, txn: TxnId) -> bool {
        self.active.lock().contains_key(&txn)
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Runs `f` on `txn`'s record; `None` if `txn` is not active.
    pub fn record<T>(&self, txn: TxnId, f: impl FnOnce(&mut R) -> T) -> Option<T> {
        self.active.lock().get_mut(&txn).map(f)
    }

    /// Runs `f` over every active transaction's record, in no particular
    /// order, with no transaction beginning or retiring meanwhile.
    pub fn records<T>(&self, f: impl FnOnce(&mut dyn Iterator<Item = (TxnId, &R)>) -> T) -> T {
        let active = self.active.lock();
        f(&mut active.iter().map(|(t, r)| (*t, r)))
    }

    /// Commits `txn`: releases every lock, retires the id and returns its
    /// record.
    ///
    /// # Panics
    /// Panics if the transaction is not active (double termination).
    pub fn commit(&self, txn: TxnId) -> R {
        self.retire(txn, "commit", Ctr::TxnsCommitted)
    }

    /// Aborts `txn`: releases every lock, retires the id and returns its
    /// record. The caller must have applied its undo actions first.
    ///
    /// # Panics
    /// Panics if the transaction is not active (double termination).
    pub fn abort(&self, txn: TxnId) -> R {
        self.retire(txn, "abort", Ctr::TxnsAborted)
    }

    fn retire(&self, txn: TxnId, what: &str, ctr: Ctr) -> R {
        let removed = self.active.lock().remove(&txn);
        let record = removed.unwrap_or_else(|| panic!("{what} of non-active transaction {txn}"));
        self.lock_manager.obs().incr(ctr);
        self.lock_manager.release_all(txn);
        record
    }

    /// Ends the current operation of `txn`: releases its short-duration
    /// locks (the paper's operation/transaction duration split).
    pub fn end_operation(&self, txn: TxnId) {
        self.lock_manager.release_short(txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgl_lockmgr::{
        LockDuration::{Commit, Short},
        LockMode, LockOutcome,
        RequestKind::Conditional,
        ResourceId,
    };

    fn setup() -> TxnManager {
        TxnManager::new(Arc::new(LockManager::default()))
    }

    #[test]
    fn ids_are_monotonic_and_unique() {
        let m = setup();
        let a = m.begin();
        let b = m.begin();
        assert!(b > a, "ids must increase (age order for victim policy)");
        assert!(m.is_active(a) && m.is_active(b));
        assert_eq!(m.active_count(), 2);
    }

    #[test]
    fn records_ride_with_the_transaction() {
        let m = TxnManager::<Vec<u32>>::with_records(Arc::new(LockManager::default()));
        let (a, b) = (m.begin(), m.begin());
        m.record(a, |r| r.extend([1, 2]));
        assert_eq!(m.records(|rs| rs.map(|(_, r)| r.len()).sum::<usize>()), 2);
        assert_eq!(m.commit(a), [1, 2], "commit hands the record back");
        assert_eq!(m.record(a, |r| r.len()), None, "retired with its id");
        assert!(m.abort(b).is_empty());
    }

    #[test]
    fn commit_releases_all_locks() {
        let m = setup();
        let t = m.begin();
        let lm = Arc::clone(&m.lock_manager);
        assert_eq!(
            lm.lock(t, ResourceId::Object(1), LockMode::X, Commit, Conditional),
            LockOutcome::Granted
        );
        assert_eq!(
            lm.lock(t, ResourceId::Object(2), LockMode::S, Short, Conditional),
            LockOutcome::Granted
        );
        m.commit(t);
        assert!(!m.is_active(t));
        assert_eq!(lm.locks_held(t), 0);
        assert_eq!(lm.resource_count(), 0);
        assert_eq!(lm.obs().ctr(Ctr::TxnsCommitted), 1);
    }

    #[test]
    fn abort_releases_all_locks() {
        let m = setup();
        let t = m.begin();
        let lm = Arc::clone(&m.lock_manager);
        lm.lock(t, ResourceId::Tree, LockMode::X, Commit, Conditional);
        m.abort(t);
        assert_eq!(lm.locks_held(t), 0);
        assert_eq!(lm.obs().ctr(Ctr::TxnsAborted), 1);
    }

    #[test]
    fn end_operation_releases_only_short_locks() {
        let m = setup();
        let t = m.begin();
        let lm = Arc::clone(&m.lock_manager);
        lm.lock(t, ResourceId::Object(1), LockMode::X, Commit, Conditional);
        lm.lock(t, ResourceId::Object(2), LockMode::S, Short, Conditional);
        m.end_operation(t);
        assert_eq!(lm.locks_held(t), 1, "commit lock survives the operation");
        m.commit(t);
    }

    #[test]
    #[should_panic(expected = "commit of non-active")]
    fn double_commit_panics() {
        let m = setup();
        let t = m.begin();
        m.commit(t);
        m.commit(t);
    }

    #[test]
    fn registry_tracks_lifecycle() {
        let m = setup();
        let a = m.begin();
        let b = m.begin();
        let c = m.begin();
        m.commit(a);
        m.abort(b);
        m.commit(c);
        let s = m.lock_manager.obs().snapshot();
        assert_eq!(
            (
                s.ctr(Ctr::TxnsStarted),
                s.ctr(Ctr::TxnsCommitted),
                s.ctr(Ctr::TxnsAborted)
            ),
            (3, 2, 1)
        );
        assert_eq!(m.active_count(), 0);
    }
}
