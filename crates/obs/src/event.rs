//! Structured event stream: fine-grained lock-conflict and span evidence.
//!
//! Events exist so tests (and the shell's `locktable`) can assert *why*
//! something happened — e.g. that a blocked insert was blocked by a
//! granule the searcher S-locked — not just that counters moved. They
//! are compiled in only under the `full` cargo feature and recorded only
//! while the registry's runtime `detail` flag is set, so production
//! builds pay nothing for them.

/// A resource identity, mirrored from the lock manager without depending
/// on it (obs sits below every other crate in the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Res {
    /// A page-granule (leaf granule or external granule host page).
    Page(u64),
    /// A logical object id.
    Object(u64),
    /// The whole-tree resource.
    Tree,
}

impl std::fmt::Display for Res {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Res::Page(p) => write!(f, "page:P{p}"),
            Res::Object(o) => write!(f, "obj:{o}"),
            Res::Tree => write!(f, "tree"),
        }
    }
}

/// One structured observation from an instrumented code path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lock request was granted (immediately or after a wait).
    LockGranted {
        /// Requesting transaction.
        txn: u64,
        /// Locked resource.
        res: Res,
        /// Granted mode name (`"S"`, `"IX"`, ...).
        mode: &'static str,
        /// `"short"` or `"commit"`.
        duration: &'static str,
    },
    /// A lock request found an incompatible holder. `holders` lists every
    /// *other* transaction granted on the resource at that instant, with
    /// its mode — the conflict evidence the phantom oracle checks.
    LockBlocked {
        /// Requesting transaction.
        txn: u64,
        /// Contended resource.
        res: Res,
        /// Requested mode name.
        mode: &'static str,
        /// `(txn, mode)` for each current grant holder other than `txn`.
        holders: Vec<(u64, &'static str)>,
    },
    /// A queued (unconditional) lock wait resolved.
    LockWaitEnd {
        /// Waiting transaction.
        txn: u64,
        /// Contended resource.
        res: Res,
        /// `true` if the lock was granted; `false` on deadlock-abort or
        /// timeout.
        granted: bool,
        /// Nanoseconds spent queued.
        wait_nanos: u64,
    },
    /// A timed span inside an operation (`span!`).
    Span {
        /// Operation name (`"insert"`, `"scan"`, ...).
        op: &'static str,
        /// Phase within the operation (`"plan"`, `"apply"`, ...).
        phase: &'static str,
        /// Transaction the span ran under.
        txn: u64,
        /// Span duration in nanoseconds.
        nanos: u64,
    },
    /// A request about to block closed a wait-for cycle and the lock
    /// manager refused it: `txn` was chosen as the victim and its wait
    /// withdrawn. Emitted once per victim, by the closing request.
    DeadlockVictim {
        /// The victim (the youngest non-system member).
        txn: u64,
        /// Every cycle member in wait order: the closing requester first,
        /// each waiting for the next, the last for the first.
        cycle: Vec<u64>,
    },
    /// A lock wait outlasted the stall threshold and its waiter reported
    /// itself (once per wait). Diagnostic only — nothing is aborted.
    WatchdogStall {
        /// The stalled (waiting) transaction.
        txn: u64,
        /// The contended resource.
        res: Res,
        /// Nanoseconds the wait had lasted when flagged.
        wait_nanos: u64,
    },
}

impl Event {
    /// The transaction the event concerns.
    pub fn txn(&self) -> u64 {
        match self {
            Event::LockGranted { txn, .. }
            | Event::LockBlocked { txn, .. }
            | Event::LockWaitEnd { txn, .. }
            | Event::Span { txn, .. }
            | Event::DeadlockVictim { txn, .. }
            | Event::WatchdogStall { txn, .. } => *txn,
        }
    }
}

/// Times `$body` and records it into histogram `$hist` of registry
/// `$reg`; when the registry is in detail mode (and the `full` feature is
/// compiled in) also emits an [`Event::Span`] with the given labels.
///
/// ```
/// use dgl_obs::{span, Hist, Registry};
/// let reg = Registry::new();
/// let sum = span!(reg, Hist::PlanPhase, op = "insert", phase = "plan", txn = 7, {
///     (1..=3).sum::<u64>()
/// });
/// assert_eq!(sum, 6);
/// assert_eq!(reg.hist(Hist::PlanPhase).count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($reg:expr, $hist:expr, op = $op:expr, phase = $phase:expr, txn = $txn:expr, $body:block) => {{
        let __obs_start = ::std::time::Instant::now();
        let __obs_out = $body;
        let __obs_nanos = __obs_start.elapsed().as_nanos() as u64;
        let __obs_reg = &$reg;
        __obs_reg.record($hist, __obs_nanos);
        __obs_reg.emit_span($op, $phase, $txn, __obs_nanos);
        __obs_out
    }};
}
