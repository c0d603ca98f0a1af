use dgl_geom::Rect2;
use dgl_lockmgr::TxnId;
use dgl_rtree::ObjectId;

use crate::TxnError;

/// One object returned by a scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanHit {
    /// The object id.
    pub oid: ObjectId,
    /// Its indexed rectangle.
    pub rect: Rect2,
    /// Its payload version (bumped by updates; lets tests observe update
    /// atomicity and isolation).
    pub version: u64,
}

/// The paper's transactional operation set over an R-tree index.
///
/// Every protocol (the paper's dynamic granular locking and the three
/// baselines) implements this trait, so phantom tests and benchmark
/// workloads run unchanged over all of them.
///
/// # Transaction discipline
///
/// `begin` hands out a transaction id; operations are issued one at a time
/// per transaction (a transaction is single-threaded, the standard model).
/// An `Err(Deadlock | Timeout)` from any operation means the transaction
/// **has already been rolled back** — do not use the id again. `commit`
/// runs any deferred physical deletions and releases every lock.
pub trait TransactionalRTree: Send + Sync {
    /// Starts a new transaction.
    fn begin(&self) -> TxnId;

    /// Commits: makes every change durable/visible, runs deferred physical
    /// deletions, releases all locks.
    fn commit(&self, txn: TxnId) -> Result<(), TxnError>;

    /// Rolls back: undoes every change, releases all locks.
    fn abort(&self, txn: TxnId) -> Result<(), TxnError>;

    /// Inserts an object. Its initial payload version is 1.
    ///
    /// Object ids must be unique among live objects; an id deleted by a
    /// still-active transaction stays reserved ([`TxnError::DuplicateObject`])
    /// until that transaction commits.
    fn insert(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<(), TxnError>;

    /// Deletes an object (logically, where the protocol defers the
    /// physical removal to commit). Returns whether it existed.
    fn delete(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError>;

    /// Reads a single object by id + rectangle; returns its payload
    /// version if present and visible.
    fn read_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<Option<u64>, TxnError>;

    /// Updates (bumps the payload version of) a single object. Returns
    /// whether it existed. Indexed attributes are immutable per the paper —
    /// relocation is modeled as delete + insert by the caller.
    fn update_single(&self, txn: TxnId, oid: ObjectId, rect: Rect2) -> Result<bool, TxnError>;

    /// Region scan: all visible objects intersecting `query`, with
    /// phantom protection until commit.
    fn read_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError>;

    /// Region scan that also updates (bumps) every qualifying object.
    /// Returns the hits with their *new* versions.
    fn update_scan(&self, txn: TxnId, query: Rect2) -> Result<Vec<ScanHit>, TxnError>;

    /// Number of (physically present) objects — testing aid, not
    /// transactional.
    fn len(&self) -> usize;

    /// Whether the index is empty — testing aid.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates internal invariants (quiescent state assumed).
    fn validate(&self) -> Result<(), String>;

    /// Protocol name for reports.
    fn name(&self) -> &'static str;

    /// The protocol's observability registry — the one place its lock
    /// requests, operation counts, retries and latencies are recorded.
    /// [`TxnExecutor`](crate::TxnExecutor) records attempt/backoff
    /// accounting into it; benches and the paper tables read it through
    /// [`RegistrySnapshot::since`](dgl_obs::RegistrySnapshot::since).
    fn obs_registry(&self) -> &std::sync::Arc<dgl_obs::Registry>;
}
