//! Background maintenance: deferred physical deletions off the commit path.
//!
//! §3.6 makes Delete logical (a tombstone) and §3.7 runs the physical
//! removal — node elimination and orphan re-insertion included — as a
//! *system operation* after the deleting transaction commits. The paper
//! does not say *when* that system operation runs, only that it is
//! "executed as a separate operation"; a real system runs it from a
//! maintenance daemon so user commits do not pay for tree condensation.
//!
//! This module provides both schedules behind [`MaintenanceConfig`]:
//!
//! * [`MaintenanceMode::Inline`] (default) — `commit` executes each
//!   deferred deletion synchronously before returning. Deterministic;
//!   what the protocol test-suite runs under.
//! * [`MaintenanceMode::Background`] — `commit` pushes the records onto a
//!   bounded queue consumed by a dedicated worker thread. Each record
//!   still runs as its own system operation (fresh transaction id,
//!   conditional-then-wait locking, deadlock-victim exemption) — only the
//!   *schedule* changes, not the locking discipline. `quiesce` blocks
//!   until the queue is empty and nothing is mid-flight.
//!
//! Correctness across the widened window rests on what already held for
//! the inline window between `tm.commit` and the system operation:
//! tombstoned entries are invisible to scans and reads, and the object id
//! stays reserved (inserts of it report `DuplicateObject`) until the
//! physical deletion removes the payload entry. Background mode only
//! lengthens that window; `quiesce` bounds it on demand.
//!
//! The queue is bounded: a commit finding it full blocks until the worker
//! catches up (backpressure, never unbounded memory). Dropping the index
//! shuts the worker down gracefully — it drains every queued record first,
//! because each one is a *committed* deletion that must not be lost.
//!
//! # Panic containment
//!
//! A deferred deletion that panics (an injected fault, or a genuine bug)
//! must not kill the worker thread: every queued record is a *committed*
//! deletion, and a dead worker would strand them all and hang `quiesce`
//! forever. Execution therefore runs under `catch_unwind`; a panicked
//! record is requeued (front of the queue, `attempts + 1`) up to
//! [`MAINT_MAX_ATTEMPTS`] times, after which it is dropped, the core's
//! `maint_failed` flag is raised (and counted) — and `quiesce` reports
//! [`TxnError::MaintenanceFailed`] instead of pretending the tree is
//! clean. The system operation itself aborts its transaction on unwind
//! (see `deferred.rs`), so a requeued record starts from scratch against
//! a consistent tree.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dgl_obs::{Ctr, Hist};
use parking_lot::{Condvar, Mutex};

use crate::TxnError;

use super::{DeferredDelete, DglCore};

/// Attempts (first run included) a deferred deletion gets before it is
/// dropped and the failure surfaced through `quiesce`.
pub(crate) const MAINT_MAX_ATTEMPTS: u32 = 4;

/// When deferred physical deletions execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenanceMode {
    /// Synchronously inside `commit` (deterministic; the default).
    #[default]
    Inline,
    /// On a background worker thread; `commit` only enqueues.
    Background,
}

/// Configuration of the maintenance subsystem
/// ([`crate::DglConfig::maintenance`]).
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// Execution schedule for deferred physical deletions.
    pub mode: MaintenanceMode,
    /// Bounded queue capacity (background mode only). A commit that finds
    /// the queue full waits for the worker — backpressure instead of
    /// unbounded growth.
    pub queue_capacity: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            mode: MaintenanceMode::Inline,
            queue_capacity: 256,
        }
    }
}

/// The per-index maintenance facility: either a no-op (inline mode) or a
/// handle to the background worker.
pub(crate) enum MaintenanceHandle {
    Inline,
    Background(MaintenanceWorker),
}

impl MaintenanceHandle {
    pub(crate) fn new(core: &Arc<DglCore>, config: MaintenanceConfig) -> Self {
        match config.mode {
            MaintenanceMode::Inline => Self::Inline,
            // Thread spawn can fail (resource exhaustion); committed
            // deletions must still run, so degrade to inline execution
            // instead of crashing the index constructor.
            MaintenanceMode::Background => match MaintenanceWorker::spawn(core, config) {
                Some(w) => Self::Background(w),
                None => Self::Inline,
            },
        }
    }

    /// Hands one committed deferred deletion to the subsystem: runs it now
    /// (inline) or enqueues it (background).
    pub(crate) fn dispatch(&self, core: &DglCore, d: DeferredDelete) {
        core.obs.incr(Ctr::MaintEnqueued);
        // Backlog-drain latency is measured dispatch → physical completion,
        // so the timestamp rides along with the queued record.
        let enqueued = Instant::now();
        match self {
            Self::Inline => run_with_retries(core, d, enqueued),
            Self::Background(w) => w.enqueue(core, d, enqueued),
        }
    }

    /// Hands a checkpoint request to the subsystem: runs it now (inline)
    /// or enqueues it behind the pending deletions (background), so
    /// commits never pay for snapshot encoding in background mode. The
    /// outcome lands in the `checkpoints` / `checkpoint_failures` counters.
    pub(crate) fn dispatch_checkpoint(&self, core: &DglCore) {
        match self {
            Self::Inline => {
                let _ = core.run_checkpoint_guarded();
            }
            Self::Background(w) => w.enqueue_checkpoint(core),
        }
    }

    /// Hands a version-GC request to the subsystem: runs it now (inline)
    /// or enqueues it behind the pending work (background), so snapshot
    /// drops never pay for chain pruning in background mode.
    pub(crate) fn dispatch_version_gc(&self, core: &DglCore) {
        match self {
            Self::Inline => core.run_version_gc(),
            Self::Background(w) => w.enqueue_version_gc(core),
        }
    }

    /// Blocks until every dispatched deletion (and queued checkpoint) has
    /// finished executing, then reports whether any deletion was dropped
    /// after exhausting its retry budget
    /// ([`TxnError::MaintenanceFailed`]) — the queue always drains either
    /// way; failure never shows up as a hang.
    pub(crate) fn quiesce(&self, core: &DglCore) -> Result<(), TxnError> {
        if let Self::Background(w) = self {
            w.wait_drained();
        }
        if core.maint_failed.load(Ordering::Relaxed) {
            Err(TxnError::MaintenanceFailed)
        } else {
            Ok(())
        }
    }

    /// Work items queued or executing right now (always 0 in inline
    /// mode, where dispatch runs the item before returning).
    pub(crate) fn backlog(&self) -> usize {
        match self {
            Self::Inline => 0,
            Self::Background(w) => {
                let st = w.shared.state.lock();
                st.queue.len() + st.running
            }
        }
    }
}

/// Runs one deletion under `catch_unwind`, returning whether it finished.
fn run_caught(core: &DglCore, d: DeferredDelete) -> bool {
    catch_unwind(AssertUnwindSafe(|| core.run_deferred_delete(d))).is_ok()
}

/// Records the dispatch → completion latency of one applied deletion.
fn record_drain(core: &DglCore, enqueued: Instant) {
    core.obs.incr(Ctr::MaintCompleted);
    core.obs.record(
        Hist::MaintDrain,
        u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX),
    );
}

/// Inline execution with the same retry budget the background worker
/// enforces (also the shutdown-drain fallback path).
fn run_with_retries(core: &DglCore, d: DeferredDelete, enqueued: Instant) {
    let mut attempts = 0;
    loop {
        if run_caught(core, d) {
            record_drain(core, enqueued);
            return;
        }
        attempts += 1;
        if !note_panic(core, attempts) {
            return;
        }
    }
}

/// Accounts for a deletion whose `attempts`-th execution panicked and
/// returns whether it gets another try. Out of budget, it is dropped and
/// the failure flag `quiesce` reports from is raised.
fn note_panic(core: &DglCore, attempts: u32) -> bool {
    core.obs.incr(Ctr::MaintPanics);
    if attempts >= MAINT_MAX_ATTEMPTS {
        core.maint_failed.store(true, Ordering::Relaxed);
        core.obs.incr(Ctr::MaintFailed);
        return false;
    }
    core.obs.incr(Ctr::MaintRequeues);
    true
}

struct QueuedDelete {
    d: DeferredDelete,
    /// Executions that already panicked (see module docs).
    attempts: u32,
    /// Dispatch time, for the backlog-drain latency histogram.
    enqueued: Instant,
}

/// One unit of background work: a committed physical deletion, or a
/// threshold-triggered checkpoint riding the same queue (so `quiesce`
/// covers it and it runs strictly after the deletions queued before it).
enum WorkItem {
    Delete(QueuedDelete),
    Checkpoint,
    /// MVCC version-GC pass (prune version chains below the min-active
    /// snapshot watermark). Dispatched by snapshot drops; deduped by
    /// `DglCore::gc_pending`.
    VersionGc,
}

struct QueueState {
    queue: VecDeque<WorkItem>,
    /// Records popped but still executing.
    running: usize,
    shutdown: bool,
}

struct Shared {
    capacity: usize,
    state: Mutex<QueueState>,
    cond: Condvar,
}

/// Owns the background worker thread. Dropping it requests shutdown and
/// joins; the worker drains the queue before exiting.
pub(crate) struct MaintenanceWorker {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl MaintenanceWorker {
    /// `None` when the OS refuses a thread — the caller degrades to
    /// inline execution.
    fn spawn(core: &Arc<DglCore>, config: MaintenanceConfig) -> Option<Self> {
        let shared = Arc::new(Shared {
            capacity: config.queue_capacity.max(1),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                running: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker_core = Arc::clone(core);
        let thread = std::thread::Builder::new()
            .name("dgl-maintenance".into())
            .spawn(move || worker_loop(&worker_core, &worker_shared))
            .ok()?;
        Some(Self {
            shared,
            thread: Some(thread),
        })
    }

    fn enqueue(&self, core: &DglCore, d: DeferredDelete, enqueued: Instant) {
        let mut st = self.shared.state.lock();
        while st.queue.len() >= self.shared.capacity && !st.shutdown {
            self.shared.cond.wait(&mut st);
        }
        if st.shutdown {
            // The index is being torn down around this commit; the
            // deletion is committed and must still be applied.
            drop(st);
            run_with_retries(core, d, enqueued);
            return;
        }
        st.queue.push_back(WorkItem::Delete(QueuedDelete {
            d,
            attempts: 0,
            enqueued,
        }));
        self.shared.cond.notify_all();
    }

    /// Checkpoints skip the capacity backpressure (they are rare, and a
    /// commit must never deadlock against the full queue it is trying to
    /// shrink); on shutdown the request just runs inline.
    fn enqueue_checkpoint(&self, core: &DglCore) {
        {
            let mut st = self.shared.state.lock();
            if !st.shutdown {
                st.queue.push_back(WorkItem::Checkpoint);
                self.shared.cond.notify_all();
                return;
            }
        }
        let _ = core.run_checkpoint_guarded();
    }

    /// Version-GC requests skip the capacity backpressure like
    /// checkpoints (rare, deduped by `gc_pending`); on shutdown the
    /// request runs inline.
    fn enqueue_version_gc(&self, core: &DglCore) {
        {
            let mut st = self.shared.state.lock();
            if !st.shutdown {
                st.queue.push_back(WorkItem::VersionGc);
                self.shared.cond.notify_all();
                return;
            }
        }
        core.run_version_gc();
    }

    fn wait_drained(&self) {
        let mut st = self.shared.state.lock();
        while !st.queue.is_empty() || st.running > 0 {
            self.shared.cond.wait(&mut st);
        }
    }
}

impl Drop for MaintenanceWorker {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cond.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Decrements `running` and wakes `quiesce` waiters even if the deletion
/// panics — otherwise a dead worker would leave `running` stuck above
/// zero and `quiesce` blocked forever.
struct RunningGuard<'a>(&'a Shared);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.running -= 1;
        self.0.cond.notify_all();
    }
}

fn worker_loop(core: &DglCore, shared: &Shared) {
    loop {
        let next = {
            let mut st = shared.state.lock();
            loop {
                if let Some(q) = st.queue.pop_front() {
                    st.running += 1;
                    // A capacity slot freed: wake blocked committers.
                    shared.cond.notify_all();
                    break Some(q);
                }
                // Shutdown is honoured only once the queue is drained —
                // every queued record is a committed deletion.
                if st.shutdown {
                    break None;
                }
                shared.cond.wait(&mut st);
            }
        };
        let item = match next {
            Some(item) => item,
            None => return,
        };
        // Keeps `running > 0` (and thus `quiesce` blocked) until *after*
        // any requeue below — a panicked record never becomes invisible
        // to a concurrent quiesce.
        let _guard = RunningGuard(shared);
        let QueuedDelete {
            d,
            attempts,
            enqueued,
        } = match item {
            WorkItem::Delete(q) => q,
            WorkItem::Checkpoint => {
                // Outcome (and the pending-slot release) is recorded
                // inside; a panic is contained like any maintenance
                // panic — the next threshold crossing retries.
                if catch_unwind(AssertUnwindSafe(|| core.run_checkpoint_guarded())).is_err() {
                    core.obs.incr(Ctr::CheckpointFailures);
                }
                continue;
            }
            WorkItem::VersionGc => {
                // GC is best-effort: a panic (injected fault) leaves the
                // chains untouched — the next snapshot drop re-dispatches.
                // The `gc_pending` flag resets via the drop guard inside.
                let _ = catch_unwind(AssertUnwindSafe(|| core.run_version_gc()));
                continue;
            }
        };
        if run_caught(core, d) {
            record_drain(core, enqueued);
            continue;
        }
        if !note_panic(core, attempts + 1) {
            continue;
        }
        {
            let mut st = shared.state.lock();
            st.queue.push_front(WorkItem::Delete(QueuedDelete {
                d,
                attempts: attempts + 1,
                enqueued,
            }));
        }
        shared.cond.notify_all();
    }
}
