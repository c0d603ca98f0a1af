//! The central metrics registry: typed histograms + counters, the
//! runtime detail switch, and the (feature-gated) event ring.

use crate::counter::ShardedCounter;
use crate::event::Event;
use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(feature = "full")]
use parking_lot::Mutex;
#[cfg(feature = "full")]
use std::collections::VecDeque;

/// Maximum buffered events in detail mode; older events are dropped
/// (and counted) once the ring is full.
#[cfg(feature = "full")]
pub const EVENT_RING_CAPACITY: usize = 65_536;

/// Declares a metric enum ([`Hist`], [`Ctr`]) from one list — variant,
/// doc and stable export name — so the enum, its `ALL` and its `name`
/// cannot drift apart. Export order is declaration order; append, never
/// reorder or rename.
macro_rules! metric_enum {
    (
        $(#[$ty_doc:meta])* enum $ty:ident;
        $(#[$name_doc:meta])* fn name;
        $($(#[$doc:meta])* $variant:ident => $name:literal,)+
    ) => {
        $(#[$ty_doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $($(#[$doc])* $variant,)+
        }

        impl $ty {
            /// Every variant, in export order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            $(#[$name_doc])*
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_enum! {
    /// Every latency histogram the workspace records into.
    enum Hist;
    /// Stable metric name (also the Prometheus/JSON key, prefixed
    /// `dgl_` on export).
    fn name;
    /// Nanoseconds a lock request spent queued before grant/abort.
    LockWait => "lock_wait_nanos",
    /// Nanoseconds the short exclusive tree latch was held
    /// (validate + apply).
    LatchHold => "x_latch_hold_nanos",
    /// Nanoseconds spent in the shared-latch planning phase of a write.
    PlanPhase => "plan_phase_nanos",
    /// Nanoseconds from commit entry to lock release.
    Commit => "commit_nanos",
    /// Nanoseconds one deferred deletion takes from its first attempt to
    /// physical completion (retries included).
    MaintDrain => "maint_drain_nanos",
    /// Nanoseconds slept by the executor's abort-retry backoff.
    ExecBackoff => "exec_backoff_nanos",
    /// Nanoseconds per WAL flush batch (write + `fsync`).
    WalFsync => "wal_fsync_nanos",
    /// Nanoseconds per replayed operation during crash recovery.
    WalReplay => "wal_replay_nanos",
    /// Lock-wait nanoseconds attributed to region scans
    /// ([`OpKind::Scan`](crate::OpKind::Scan)).
    /// Sibling breakdown of [`Hist::LockWait`]: the same wait is recorded
    /// into both, so the per-kind histograms partition the total.
    LockWaitScan => "lock_wait_scan_nanos",
    /// Lock-wait nanoseconds attributed to point reads
    /// ([`OpKind::Point`](crate::OpKind::Point)).
    LockWaitPoint => "lock_wait_point_nanos",
    /// Lock-wait nanoseconds attributed to write operations
    /// ([`OpKind::Write`](crate::OpKind::Write)).
    LockWaitWrite => "lock_wait_write_nanos",
    /// Server-side nanoseconds per network scan request
    /// (Search/UpdateScan/SnapshotScan), decode to reply enqueued.
    NetReqScan => "net_request_scan_nanos",
    /// Server-side nanoseconds per network point request
    /// (ReadSingle/SnapshotRead/Count).
    NetReqPoint => "net_request_point_nanos",
    /// Server-side nanoseconds per network write request
    /// (Insert/Delete/Update).
    NetReqWrite => "net_request_write_nanos",
    /// Server-side nanoseconds per network transaction-control request
    /// (Begin/Commit/Abort/BeginSnapshot/EndSnapshot).
    NetReqTxn => "net_request_txn_nanos",
    /// Nanoseconds per hash-index point lookup (hit or miss; the O(1)
    /// path `read_single` and snapshot point reads take instead of a
    /// tree traversal).
    HashLookup => "hash_lookup_nanos",
}

metric_enum! {
    /// Every monotonic counter the workspace records into.
    enum Ctr;
    /// Stable metric name (exported as `dgl_<name>_total`).
    fn name;
    /// Short-duration lock requests (Table 2's cheap majority).
    LockReqShort => "lock_requests_short",
    /// Commit-duration lock requests (held to commit; Table 2's
    /// granule-changing overhead signal).
    LockReqCommit => "lock_requests_commit",
    /// Conditional lock requests that failed (would have blocked).
    LockConditionalFail => "lock_conditional_failures",
    /// Aborted attempts retried by the executor.
    ExecRetries => "exec_retries",
    /// Pages read through the pager (logical reads).
    PageReads => "page_reads",
    /// Pages written through the pager.
    PageWrites => "page_writes",
    /// Deferred deletions physically completed.
    MaintCompleted => "maint_completed",
    /// WAL flush batches (`fsync` calls).
    WalFsyncs => "wal_fsyncs",
    /// Bytes appended to the WAL (headers + framed records).
    WalAppendedBytes => "wal_appended_bytes",
    /// Records appended to the WAL.
    WalRecords => "wal_records",
    /// Commits acknowledged by WAL flushes; divided by `wal_fsyncs`
    /// this is the mean group-commit batch size.
    WalGroupCommitCommits => "wal_group_commit_commits",
    /// Region scans served from an MVCC snapshot (zero lock-manager
    /// requests; compare against `lock_requests_*` staying flat).
    SnapshotScans => "snapshot_scans",
    /// Point reads served from an MVCC snapshot.
    SnapshotPointReads => "snapshot_point_reads",
    /// Object versions (chain entries and retired dead objects)
    /// reclaimed by version GC below the min-active-snapshot watermark.
    VersionsReclaimed => "versions_reclaimed",
    /// Lock waits that outlasted the stall threshold: the waiter reports
    /// itself once and keeps waiting (diagnostic, never an abort).
    WatchdogStalls => "watchdog_stalls",
    /// Lock requests that returned a deadlock verdict: the requester was
    /// chosen as the victim of a cycle refused at block time — its own
    /// closing request or another's, on its shard or a peer — and must
    /// abort. Counted once, by the victim.
    LockDeadlocks => "lock_deadlocks",
    /// Lock waits resolved by the wait-timeout backstop.
    LockTimeouts => "lock_timeouts",
    /// Requests decoded and dispatched by the network server.
    NetRequests => "net_requests",
    /// Bytes read from client connections (frames incl. length prefix).
    NetBytesIn => "net_bytes_in",
    /// Bytes written to client connections (frames incl. length prefix).
    NetBytesOut => "net_bytes_out",
    /// Transactions aborted server-side because their session died or
    /// timed out (connection drop, idle/txn timeout, drain force-close).
    SessionAborts => "session_aborts",
    /// Point accesses answered by the hash index without a tree
    /// traversal (`read_single`, snapshot point reads, and the verified
    /// leaf hints of delete/update).
    HashHits => "hash_hits",
    /// Point accesses that fell back to the tree traversal (stale leaf
    /// hint, or the hash read path disabled by config).
    HashMisses => "hash_misses",
    /// Insert duplicate probes answered by the hash index's O(1)
    /// membership check (every insert; the traversal the probe used to
    /// cost is gone).
    DupProbesSkipped => "dup_probes_skipped",
    /// `insert` operations started.
    Inserts => "inserts",
    /// `delete` operations started.
    Deletes => "deletes",
    /// `read_single` operations started.
    ReadSingles => "read_singles",
    /// `update_single` operations started.
    UpdateSingles => "update_singles",
    /// `read_scan` operations started.
    ReadScans => "read_scans",
    /// `update_scan` operations started.
    UpdateScans => "update_scans",
    /// Operation attempts that found a conditional lock blocked, waited,
    /// and re-planned (the retry loop of the latch/lock interplay).
    OpRetries => "op_retries",
    /// Lock-acquisition retries inside deferred-deletion system
    /// operations (subset of `op_retries`).
    DeferredRetries => "deferred_retries",
    /// Inserts that changed a granule boundary (grew a leaf BR or split
    /// a node) — the quantity of the paper's §3.4 fanout experiment.
    GranuleChangingInserts => "granule_changing_inserts",
    /// Deferred (post-commit) physical deletions executed.
    DeferredDeletes => "deferred_deletes",
    /// Nanoseconds system operations slept in retry backoff.
    MaintBackoffNanos => "maint_backoff_nanos",
    /// Write attempts whose plan went stale between the shared-latch
    /// planning phase and the exclusive-latch apply (another writer
    /// bumped the structure version); each one replans before any
    /// mutation, keeping its locks.
    PlanValidationFailures => "plan_validation_failures",
    /// Transaction attempts started by the executor (first tries and
    /// retries alike).
    ExecAttempts => "exec_attempts",
    /// Transaction-body panics the executor caught, rolled back and
    /// converted into retries.
    ExecPanics => "exec_panics",
    /// Executor runs that exhausted their retry budget and gave up.
    ExecGiveups => "exec_giveups",
    /// Transactions rolled back by the unwind guard because a panic tore
    /// through an in-flight operation.
    UnwindRollbacks => "unwind_rollbacks",
    /// Panics that unwound through the apply phase's exclusive tree
    /// latch; the latch guard re-validated structural invariants before
    /// release.
    ApplyUnwinds => "apply_unwinds",
    /// Apply-phase unwinds whose post-panic structural validation failed
    /// — an invariant breach that chaos tests treat as fatal.
    UnwindValidateFailures => "unwind_validate_failures",
    /// Panics caught inside maintenance (deferred-deletion) execution.
    MaintPanics => "maint_panics",
    /// Deferred-deletion attempts retried after a caught panic.
    MaintRequeues => "maint_requeues",
    /// Deferred deletions dropped after exhausting their retry budget
    /// (mirror of the flag that makes `quiesce` report
    /// `MaintenanceFailed`).
    MaintFailed => "maint_failed",
    /// Completed checkpoints (snapshot written, log truncated).
    Checkpoints => "checkpoints",
    /// Checkpoint attempts that failed (log poisoned or snapshot I/O
    /// error); the previous checkpoint remains the recovery base.
    CheckpointFailures => "checkpoint_failures",
    /// MVCC snapshots begun.
    SnapshotBegins => "snapshot_begins",
    /// Version-GC passes executed.
    VersionGcRuns => "version_gc_runs",
    /// Predicate-table rectangle comparisons (predicate-locking baseline
    /// only; Table 4's cost axis).
    PredicateChecks => "predicate_checks",
    /// Lock requests that strengthened a mode the transaction already
    /// held on the resource.
    LockConversions => "lock_conversions",
    /// Transactions begun.
    TxnsStarted => "txns_started",
    /// Transactions committed.
    TxnsCommitted => "txns_committed",
    /// Transactions rolled back (user abort or deadlock/timeout victim).
    TxnsAborted => "txns_aborted",
    /// Resource-table visits made by `release_short` and `release_all`:
    /// the end-of-operation and end-of-transaction work, countable.
    LockReleaseVisits => "lock_release_visits",
    /// Version chains a version-GC pass looked at: the dirty list it
    /// drained, not the payload table.
    VersionGcChainsVisited => "version_gc_chains_visited",
}

/// The workspace-wide metrics registry.
///
/// One `Arc<Registry>` is shared by the lock manager, the DGL write/read
/// paths, the executor, deferred maintenance, and the pager. Counter
/// and histogram recording is always on; the structured event stream
/// additionally needs the `full` cargo feature *and* the runtime detail
/// flag.
#[derive(Debug)]
pub struct Registry {
    detail: AtomicBool,
    hists: [Histogram; Hist::ALL.len()],
    ctrs: [ShardedCounter; Ctr::ALL.len()],
    #[cfg(feature = "full")]
    events: Mutex<VecDeque<Event>>,
    #[cfg(feature = "full")]
    dropped_events: ShardedCounter,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with detail mode off.
    pub fn new() -> Self {
        Self {
            detail: AtomicBool::new(false),
            hists: std::array::from_fn(|_| Histogram::default()),
            ctrs: std::array::from_fn(|_| ShardedCounter::default()),
            #[cfg(feature = "full")]
            events: Mutex::new(VecDeque::new()),
            #[cfg(feature = "full")]
            dropped_events: ShardedCounter::default(),
        }
    }

    /// Whether detail (event-stream) mode is on. Always `false` unless
    /// the `full` feature is compiled in.
    pub fn detail(&self) -> bool {
        cfg!(feature = "full") && self.detail.load(Ordering::Relaxed)
    }

    /// Turns the event stream on or off (no-op without the `full`
    /// feature).
    pub fn set_detail(&self, on: bool) {
        self.detail.store(on, Ordering::Relaxed);
    }

    /// Records one observation into `hist`.
    pub fn record(&self, hist: Hist, value: u64) {
        self.hists[hist.index()].record(value);
    }

    /// Adds `n` to `ctr`.
    pub fn add(&self, ctr: Ctr, n: u64) {
        self.ctrs[ctr.index()].add(n);
    }

    /// Adds 1 to `ctr`.
    pub fn incr(&self, ctr: Ctr) {
        self.add(ctr, 1);
    }

    /// Point-in-time snapshot of one histogram.
    pub fn hist(&self, hist: Hist) -> HistogramSnapshot {
        self.hists[hist.index()].snapshot()
    }

    /// Current value of one counter.
    pub fn ctr(&self, ctr: Ctr) -> u64 {
        self.ctrs[ctr.index()].get()
    }

    /// Snapshot of every histogram and counter at once.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
            ctrs: std::array::from_fn(|i| self.ctrs[i].get()),
        }
    }

    /// Pushes an event if detail mode is on. With the ring full, the
    /// oldest event is dropped and counted in [`Registry::events_dropped`].
    #[cfg(feature = "full")]
    pub fn emit(&self, event: Event) {
        if !self.detail() {
            return;
        }
        let mut ring = self.events.lock();
        if ring.len() >= EVENT_RING_CAPACITY {
            ring.pop_front();
            self.dropped_events.incr();
        }
        ring.push_back(event);
    }

    /// No-op stub: events are compiled out without the `full` feature.
    #[cfg(not(feature = "full"))]
    #[inline(always)]
    pub fn emit(&self, _event: Event) {}

    /// Emits an [`Event::Span`] (used by the `span!` macro).
    #[cfg(feature = "full")]
    pub fn emit_span(&self, op: &'static str, phase: &'static str, txn: u64, nanos: u64) {
        if self.detail() {
            self.emit(Event::Span {
                op,
                phase,
                txn,
                nanos,
            });
        }
    }

    /// No-op stub: spans are compiled out without the `full` feature.
    #[cfg(not(feature = "full"))]
    #[inline(always)]
    pub fn emit_span(&self, _op: &'static str, _phase: &'static str, _txn: u64, _nanos: u64) {}

    /// Drains and returns all buffered events (oldest first).
    #[cfg(feature = "full")]
    pub fn take_events(&self) -> Vec<Event> {
        self.events.lock().drain(..).collect()
    }

    /// Without the `full` feature there are never any events.
    #[cfg(not(feature = "full"))]
    pub fn take_events(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Number of currently buffered events.
    #[cfg(feature = "full")]
    pub fn events_len(&self) -> usize {
        self.events.lock().len()
    }

    /// Without the `full` feature there are never any events.
    #[cfg(not(feature = "full"))]
    pub fn events_len(&self) -> usize {
        0
    }

    /// Events discarded because the ring was full.
    #[cfg(feature = "full")]
    pub fn events_dropped(&self) -> u64 {
        self.dropped_events.get()
    }

    /// Without the `full` feature there are never any events.
    #[cfg(not(feature = "full"))]
    pub fn events_dropped(&self) -> u64 {
        0
    }
}

/// A consistent-enough copy of every metric (each histogram/counter is
/// individually atomic; the set is read without a global pause).
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Histogram snapshots, indexed by [`Hist`] discriminant.
    pub hists: [HistogramSnapshot; Hist::ALL.len()],
    /// Counter values, indexed by [`Ctr`] discriminant.
    pub ctrs: [u64; Ctr::ALL.len()],
}

impl RegistrySnapshot {
    /// The snapshot of one histogram.
    pub fn hist(&self, hist: Hist) -> &HistogramSnapshot {
        &self.hists[hist.index()]
    }

    /// The value of one counter.
    pub fn ctr(&self, ctr: Ctr) -> u64 {
        self.ctrs[ctr.index()]
    }

    /// Total lock requests: short- plus commit-duration (Table 4's
    /// "lock requests per transaction" numerator).
    pub fn lock_requests(&self) -> u64 {
        self.ctr(Ctr::LockReqShort) + self.ctr(Ctr::LockReqCommit)
    }

    /// Metric-wise difference `self - earlier` (per-phase accounting).
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            hists: std::array::from_fn(|i| self.hists[i].since(&earlier.hists[i])),
            ctrs: std::array::from_fn(|i| self.ctrs[i] - earlier.ctrs[i]),
        }
    }

    /// Metric-wise sum `self + other`: histograms merge bucket-wise,
    /// counters add. How a sharded index presents its per-shard
    /// registries as one export view.
    pub fn merge(&self, other: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            hists: std::array::from_fn(|i| self.hists[i].merge(&other.hists[i])),
            ctrs: std::array::from_fn(|i| self.ctrs[i] + other.ctrs[i]),
        }
    }
}

impl Default for RegistrySnapshot {
    fn default() -> Self {
        RegistrySnapshot {
            hists: std::array::from_fn(|_| HistogramSnapshot::default()),
            ctrs: [0; Ctr::ALL.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_merge_sums_per_metric() {
        let a = Registry::new();
        let b = Registry::new();
        a.record(Hist::Commit, 8);
        a.incr(Ctr::WalFsyncs);
        b.record(Hist::Commit, 16);
        b.add(Ctr::WalFsyncs, 3);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.hist(Hist::Commit).count, 2);
        assert_eq!(merged.hist(Hist::Commit).sum, 24);
        assert_eq!(merged.ctr(Ctr::WalFsyncs), 4);
        let merged = merged.merge(&RegistrySnapshot::default());
        assert_eq!(merged.hist(Hist::Commit).count, 2);
    }

    #[test]
    fn snapshot_since_subtracts_per_metric() {
        let reg = Registry::new();
        reg.record(Hist::Commit, 8);
        reg.incr(Ctr::LockReqCommit);
        let before = reg.snapshot();
        reg.record(Hist::Commit, 8);
        reg.record(Hist::Commit, 9);
        reg.add(Ctr::LockReqCommit, 2);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.hist(Hist::Commit).count, 2);
        assert_eq!(delta.hist(Hist::Commit).sum, 17);
        assert_eq!(delta.ctr(Ctr::LockReqCommit), 2);
    }
}
