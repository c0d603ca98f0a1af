//! Lock-wait timeouts end-to-end: a wait that outlasts
//! `DglConfig::lock.wait_timeout` surfaces as the distinct
//! [`TxnError::Timeout`] (not `Deadlock`), and the abort-retry executor
//! turns transient timeouts into eventual commits once the blocker
//! releases its locks.

mod common;

use std::time::{Duration, Instant};

use common::r;
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, ObjectId, RetryPolicy, TransactionalRTree, TxnError,
    TxnExecutor,
};
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::{Ctr, Hist};
use dgl_rtree::RTreeConfig;

/// A protocol whose lock waits give up after `ms` milliseconds.
fn db_with_timeout(ms: u64) -> DglRTree {
    DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(ms),
            ..Default::default()
        },
        ..Default::default()
    })
}

/// A blocked reader times out with `Timeout` — a *retryable* error
/// distinct from `Deadlock` (no cycle exists here; nobody should be
/// picked as a deadlock victim for merely waiting too long).
#[test]
fn blocked_wait_times_out_with_distinct_error() {
    let db = db_with_timeout(80);
    let oid = ObjectId(1);
    let rect = r([0.3, 0.3], [0.35, 0.35]);

    // t1 inserts and stays open: it holds commit-duration X locks on the
    // object name and its leaf granule.
    let t1 = db.begin();
    db.insert(t1, oid, rect).expect("insert");

    // t2's point read needs S on the same granule → waits → times out.
    let t2 = db.begin();
    let start = Instant::now();
    let err = db.read_single(t2, oid, rect).expect_err("must time out");
    let waited = start.elapsed();

    assert_eq!(err, TxnError::Timeout, "timeout, not deadlock");
    assert!(err.is_retryable(), "timeouts are worth retrying");
    assert!(
        waited < Duration::from_secs(5),
        "the configured 80 ms backstop applied, not the 10 s default \
         (waited {waited:?})"
    );
    // The timed-out transaction was rolled back by the protocol.
    assert_eq!(db.active_txns(), 1, "only t1 remains");

    db.commit(t1).expect("commit");
    db.validate().expect("clean tree");
}

/// The executor converts transient timeouts into a commit: a blocker
/// holds the locks for a few attempts' worth of backoff, then commits;
/// the executor's retry loop then gets through.
#[test]
fn executor_retries_timeouts_until_blocker_releases() {
    let db = db_with_timeout(40);
    let oid = ObjectId(1);
    let rect = r([0.3, 0.3], [0.35, 0.35]);

    let t1 = db.begin();
    db.insert(t1, oid, rect).expect("insert");

    std::thread::scope(|s| {
        s.spawn(|| {
            // Hold the locks long enough for at least one timed-out
            // attempt, then release them by committing.
            std::thread::sleep(Duration::from_millis(120));
            db.commit(t1).expect("blocker commit");
        });

        let before = db.obs().snapshot();
        let exec = TxnExecutor::new(
            &db,
            RetryPolicy {
                max_attempts: 50,
                base_backoff: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                ..RetryPolicy::default()
            },
        );
        let version = exec
            .run(|txn| db.read_single(txn, oid, rect))
            .expect("eventually reads through");
        assert_eq!(version, Some(1), "sees the committed insert");
        let delta = db.obs().snapshot().since(&before);
        assert!(
            delta.ctr(Ctr::ExecRetries) >= 1,
            "at least one attempt timed out"
        );
        assert!(
            delta.hist(Hist::ExecBackoff).sum > 0,
            "backoff was actually slept"
        );
    });

    assert_eq!(db.active_txns(), 0);
    assert_eq!(db.lock_manager().resource_count(), 0);
    db.validate().expect("clean tree");
}
