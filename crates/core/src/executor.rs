//! Abort-retry transaction executor.
//!
//! Locking protocols resolve conflicts by aborting somebody: deadlock
//! victims, timeout victims and (under fault injection) transactions hit
//! by a failpoint all come back as `Err` with the transaction already
//! rolled back. The classic response is *abort-retry*: run the body again
//! in a fresh transaction, backing off a little so the conflicting
//! transactions can finish. [`TxnExecutor`] packages that loop —
//! classification via [`TxnError::is_retryable`], capped exponential
//! backoff with jitter, a retry budget, panic containment, and attempt
//! accounting in the protocol's [`dgl_obs::Registry`] — so workloads,
//! stress tests and benchmarks
//! share one tested implementation instead of hand-rolling it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dgl_obs::{Ctr, Hist, Registry};

use crate::{TransactionalRTree, TxnError, TxnId};

/// Retry/backoff policy for [`TxnExecutor`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for backoff jitter. Each executor derives an independent
    /// stream from it, so equal seeds give reproducible *schedules* per
    /// executor while different executors still decorrelate.
    pub jitter_seed: u64,
}

/// Timeout aborts a run may retry **without** consuming the
/// `max_attempts` budget. A `Timeout` does not signal a probable deadlock
/// (every genuine cycle is refused at block time as `Deadlock`); it means
/// the backstop expired under load — burning budget on it turns one slow
/// resource into spurious [`ExecError::RetriesExhausted`] failures. The
/// pool is finite so a pathologically wedged system still surfaces as a
/// giveup.
const TIMEOUT_FREE_RETRIES: u32 = 64;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

/// Terminal outcome of [`TxnExecutor::run`] when the body never committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A non-retryable error: retrying cannot help (caller bug, damaged
    /// maintenance pipeline). The body's transaction was rolled back.
    Fatal(TxnError),
    /// Every attempt ended in a retryable abort and the budget ran out.
    RetriesExhausted {
        /// Total attempts made — the policy's `max_attempts` plus any
        /// budget-free timeout retries taken along the way.
        attempts: u32,
        /// The error from the final attempt.
        last: TxnError,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Fatal(e) => write!(f, "fatal transaction error: {e}"),
            ExecError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-process salt so concurrently created executors with the same
/// `jitter_seed` still sleep on decorrelated schedules.
static RUN_SALT: AtomicU64 = AtomicU64::new(0);

/// Runs transaction bodies with abort-retry semantics over any
/// [`TransactionalRTree`].
///
/// ```
/// use dgl_core::{DglConfig, DglRTree, ObjectId, Rect2, RetryPolicy};
/// use dgl_core::{TransactionalRTree, TxnExecutor};
///
/// let db = DglRTree::new(DglConfig::default());
/// let exec = TxnExecutor::new(&db, RetryPolicy::default());
/// let n = exec
///     .run(|txn| {
///         db.insert(txn, ObjectId(7), Rect2::new([0.1, 0.1], [0.2, 0.2]))?;
///         db.read_scan(txn, Rect2::new([0.0, 0.0], [0.5, 0.5]))
///             .map(|hits| hits.len())
///     })
///     .unwrap();
/// assert_eq!(n, 1);
/// ```
pub struct TxnExecutor<'a> {
    db: &'a dyn TransactionalRTree,
    policy: RetryPolicy,
    obs: &'a Registry,
    rng_state: std::cell::Cell<u64>,
}

impl<'a> TxnExecutor<'a> {
    /// Creates an executor over `db`. Attempt/backoff accounting goes to
    /// the protocol's registry (see [`TransactionalRTree::obs_registry`]).
    pub fn new(db: &'a dyn TransactionalRTree, policy: RetryPolicy) -> Self {
        let salt = RUN_SALT
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            db,
            policy,
            obs: db.obs_registry(),
            rng_state: std::cell::Cell::new((policy.jitter_seed ^ salt) | 1),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Runs `body` inside a transaction, committing on `Ok` and retrying
    /// on retryable aborts (deadlock, timeout, injected fault, caught
    /// panic) with capped exponential backoff + jitter.
    ///
    /// Each attempt gets a **fresh transaction id**; the body must not
    /// capture ids across calls. On a retryable `Err` the transaction has
    /// already been rolled back by the protocol; the executor still issues
    /// a defensive `abort` (a no-op `NotActive` then). A body panic is
    /// rolled back the same way and retried (counted as `exec_panics`).
    pub fn run<T>(
        &self,
        mut body: impl FnMut(TxnId) -> Result<T, TxnError>,
    ) -> Result<T, ExecError> {
        let mut attempt = 0u32;
        let mut budgeted = 0u32;
        let mut timeout_free = TIMEOUT_FREE_RETRIES;
        loop {
            attempt += 1;
            self.incr(Ctr::ExecAttempts);

            let txn = self.db.begin();
            let err = match catch_unwind(AssertUnwindSafe(|| body(txn))) {
                Ok(Ok(v)) => match self.db.commit(txn) {
                    Ok(()) => return Ok(v),
                    // Commit can itself be aborted (injected fault at the
                    // commit failpoint); classify like any body error.
                    Err(e) => e,
                },
                Ok(Err(e)) => {
                    // The protocol rolls back on Deadlock/Timeout/Injected;
                    // for caller-level errors (DuplicateObject surfaced by
                    // the body) the transaction is still active — release
                    // its locks either way.
                    let _ = self.db.abort(txn);
                    e
                }
                Err(_) => {
                    // The unwind guard inside the in-flight operation (or
                    // the catch_unwind boundary itself) already restored
                    // invariants; make sure the transaction is dead.
                    let _ = self.db.abort(txn);
                    self.incr(Ctr::ExecPanics);
                    TxnError::Injected
                }
            };

            if !err.is_retryable() {
                return Err(ExecError::Fatal(err));
            }
            // Timeouts draw on their own free pool first: a backstop
            // expiry under load is not evidence the body is doomed, so
            // it should not march the run toward a giveup the way a
            // deadlock or injected fault does.
            if matches!(err, TxnError::Timeout) && timeout_free > 0 {
                timeout_free -= 1;
            } else {
                budgeted += 1;
                if budgeted >= self.policy.max_attempts {
                    self.incr(Ctr::ExecGiveups);
                    return Err(ExecError::RetriesExhausted {
                        attempts: attempt,
                        last: err,
                    });
                }
            }
            self.incr(Ctr::ExecRetries);
            self.sleep_backoff(attempt);
        }
    }

    /// Capped exponential backoff with jitter in `[d/2, d]`: full-throttle
    /// synchronization (no jitter) makes retry storms re-collide, while
    /// full jitter `[0, d]` can retry immediately into the same conflict.
    fn sleep_backoff(&self, finished_attempt: u32) {
        let shift = (finished_attempt - 1).min(16);
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << shift.min(31));
        let capped = exp.min(self.policy.max_backoff);
        let nanos = capped.as_nanos() as u64;
        if nanos == 0 {
            return;
        }
        let jittered = nanos / 2 + self.next_rand() % (nanos / 2 + 1);
        self.obs.record(Hist::ExecBackoff, jittered);
        std::thread::sleep(Duration::from_nanos(jittered));
    }

    fn next_rand(&self) -> u64 {
        // xorshift64*: cheap, seedable, good enough for jitter.
        let mut x = self.rng_state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn incr(&self, ctr: Ctr) {
        self.obs.incr(ctr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DglConfig, DglRTree, ObjectId};
    use dgl_geom::Rect2;
    use std::sync::atomic::AtomicU32;

    fn r(x: f64) -> Rect2 {
        Rect2::new([x, x], [x + 0.05, x + 0.05])
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(400),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn success_on_first_try_commits() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        exec.run(|txn| db.insert(txn, ObjectId(1), r(0.1))).unwrap();
        assert_eq!(db.len(), 1);
        let s = db.obs().snapshot();
        assert_eq!(s.ctr(Ctr::ExecAttempts), 1);
        assert_eq!(s.ctr(Ctr::ExecRetries), 0);
        assert_eq!(s.hist(Hist::Commit).count, 1);
    }

    #[test]
    fn fatal_error_is_not_retried() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        exec.run(|txn| db.insert(txn, ObjectId(1), r(0.1))).unwrap();
        let out = exec.run(|txn| db.insert(txn, ObjectId(1), r(0.1)));
        assert_eq!(out, Err(ExecError::Fatal(TxnError::DuplicateObject)));
        let s = db.obs().snapshot();
        // One attempt for the successful run, one for the fatal run.
        assert_eq!(s.ctr(Ctr::ExecAttempts), 2);
        assert_eq!(s.ctr(Ctr::ExecRetries), 0);
        // The duplicate attempt's transaction must not linger.
        assert_eq!(db.active_txns(), 0);
        assert_eq!(db.lock_manager().resource_count(), 0);
    }

    #[test]
    fn retryable_error_retries_until_success() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        let tries = AtomicU32::new(0);
        exec.run(|txn| {
            if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                // Simulate the protocol having rolled us back.
                db.abort(txn)?;
                return Err(TxnError::Deadlock);
            }
            db.insert(txn, ObjectId(9), r(0.3))
        })
        .unwrap();
        assert_eq!(tries.load(Ordering::Relaxed), 3);
        assert_eq!(db.len(), 1);
        let s = db.obs().snapshot();
        assert_eq!(s.ctr(Ctr::ExecAttempts), 3);
        assert_eq!(s.ctr(Ctr::ExecRetries), 2);
        assert!(s.hist(Hist::ExecBackoff).sum > 0, "retries must back off");
    }

    #[test]
    fn retry_budget_is_enforced() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        let out: Result<(), _> = exec.run(|txn| {
            db.abort(txn)?;
            Err(TxnError::Deadlock)
        });
        assert_eq!(
            out,
            Err(ExecError::RetriesExhausted {
                attempts: 5,
                last: TxnError::Deadlock
            })
        );
        let s = db.obs().snapshot();
        assert_eq!(s.ctr(Ctr::ExecAttempts), 5);
        assert_eq!(s.ctr(Ctr::ExecRetries), 4);
        assert_eq!(s.ctr(Ctr::ExecGiveups), 1);
    }

    #[test]
    fn timeouts_do_not_consume_the_retry_budget() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        let tries = AtomicU32::new(0);
        // 8 timeouts in a row — more than max_attempts (5) — then
        // success: the free pool absorbs them all.
        exec.run(|txn| {
            if tries.fetch_add(1, Ordering::Relaxed) < 8 {
                db.abort(txn)?;
                return Err(TxnError::Timeout);
            }
            db.insert(txn, ObjectId(2), r(0.2))
        })
        .unwrap();
        assert_eq!(tries.load(Ordering::Relaxed), 9);
        assert_eq!(db.len(), 1);
        let s = db.obs().snapshot();
        assert_eq!(s.ctr(Ctr::ExecAttempts), 9);
        assert_eq!(s.ctr(Ctr::ExecGiveups), 0);
    }

    #[test]
    fn timeout_free_pool_is_finite() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(
            &db,
            RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_micros(10),
                max_backoff: Duration::from_micros(40),
                ..RetryPolicy::default()
            },
        );
        let out: Result<(), _> = exec.run(|txn| {
            db.abort(txn)?;
            Err(TxnError::Timeout)
        });
        // The free timeout retries, then 2 budgeted attempts.
        assert_eq!(
            out,
            Err(ExecError::RetriesExhausted {
                attempts: TIMEOUT_FREE_RETRIES + 2,
                last: TxnError::Timeout
            })
        );
        assert_eq!(db.obs().ctr(Ctr::ExecGiveups), 1);
    }

    #[test]
    fn body_panic_is_caught_rolled_back_and_retried() {
        let db = DglRTree::new(DglConfig::default());
        let exec = TxnExecutor::new(&db, fast_policy());
        let tries = AtomicU32::new(0);
        exec.run(|txn| {
            db.insert(txn, ObjectId(4), r(0.5))?;
            if tries.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("chaos monkey");
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(db.len(), 1, "second attempt's insert committed");
        let s = db.obs().snapshot();
        assert_eq!(s.ctr(Ctr::ExecPanics), 1);
        assert_eq!(s.ctr(Ctr::ExecAttempts), 2);
        assert_eq!(db.active_txns(), 0);
        assert_eq!(db.lock_manager().resource_count(), 0);
        db.validate().unwrap();
    }
}
