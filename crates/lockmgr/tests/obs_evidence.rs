//! Observability evidence from the lock manager: duration counters,
//! wait histograms, grant/block events, and the live table snapshot.

use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockManager, LockManagerConfig, LockMode, LockOutcome,
    RequestKind::{Conditional, Unconditional},
    ResourceId, TxnId,
};
use dgl_obs::{Ctr, Event, Hist, Registry, Res};
use dgl_pager::PageId;
use std::sync::Arc;
use std::time::Duration;

fn manager_with_registry() -> (LockManager, Arc<Registry>) {
    let obs = Arc::new(Registry::new());
    obs.set_detail(true);
    let lm = LockManager::with_obs(
        LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        },
        Arc::clone(&obs),
    );
    (lm, obs)
}

#[test]
fn duration_counters_split_short_vs_commit() {
    let (lm, obs) = manager_with_registry();
    let t = TxnId(1);
    let page = ResourceId::Page(PageId(3));
    lm.lock(t, page, LockMode::S, Commit, Conditional);
    lm.lock(t, ResourceId::Object(9), LockMode::X, Commit, Conditional);
    lm.lock(
        t,
        ResourceId::Page(PageId(4)),
        LockMode::SIX,
        Short,
        Conditional,
    );
    assert_eq!(obs.ctr(Ctr::LockReqCommit), 2);
    assert_eq!(obs.ctr(Ctr::LockReqShort), 1);
    lm.release_all(t);
}

#[test]
fn blocked_event_names_the_holder_and_its_mode() {
    let (lm, obs) = manager_with_registry();
    let (searcher, inserter) = (TxnId(1), TxnId(2));
    let granule = ResourceId::Page(PageId(7));

    assert_eq!(
        lm.lock(searcher, granule, LockMode::S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        lm.lock(inserter, granule, LockMode::IX, Commit, Conditional),
        LockOutcome::WouldBlock
    );
    assert_eq!(obs.ctr(Ctr::LockConditionalFail), 1);

    let events = obs.take_events();
    let granted: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, Event::LockGranted { .. }))
        .collect();
    assert_eq!(granted.len(), 1);
    let blocked = events
        .iter()
        .find_map(|e| match e {
            Event::LockBlocked {
                txn,
                res,
                mode,
                holders,
            } => Some((*txn, *res, *mode, holders.clone())),
            _ => None,
        })
        .expect("conditional failure must emit LockBlocked");
    assert_eq!(blocked.0, inserter.0);
    assert_eq!(blocked.1, Res::Page(7));
    assert_eq!(blocked.2, "IX");
    assert_eq!(blocked.3, vec![(searcher.0, "S")]);
    lm.release_all(searcher);
    lm.release_all(inserter);
}

#[test]
fn unconditional_wait_records_histogram_and_wait_end() {
    let (lm, obs) = manager_with_registry();
    let lm = Arc::new(lm);
    let granule = ResourceId::Page(PageId(5));
    let (holder, waiter) = (TxnId(1), TxnId(2));
    assert_eq!(
        lm.lock(holder, granule, LockMode::X, Commit, Conditional),
        LockOutcome::Granted
    );
    let waited = {
        let lm2 = Arc::clone(&lm);
        let handle = std::thread::spawn(move || {
            lm2.lock(waiter, granule, LockMode::S, Commit, Unconditional)
        });
        // Give the waiter time to enqueue, then release.
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(holder);
        handle.join().unwrap()
    };
    assert_eq!(waited, LockOutcome::Granted);

    let wait = obs.hist(Hist::LockWait);
    assert_eq!(wait.count, 1);
    assert!(
        wait.sum >= 1_000_000,
        "waited at least 1ms, got {}",
        wait.sum
    );

    let events = obs.take_events();
    let end = events
        .iter()
        .find_map(|e| match e {
            Event::LockWaitEnd {
                txn,
                granted,
                wait_nanos,
                ..
            } => Some((*txn, *granted, *wait_nanos)),
            _ => None,
        })
        .expect("wait must emit LockWaitEnd");
    assert_eq!(end.0, waiter.0);
    assert!(end.1, "wait resolved by grant");
    assert_eq!(end.2, wait.sum);
    // The queued request also emitted block evidence naming the X holder.
    assert!(events.iter().any(|e| matches!(
        e,
        Event::LockBlocked { txn, holders, .. } if *txn == waiter.0 && holders == &vec![(holder.0, "X")]
    )));
    lm.release_all(waiter);
}

#[test]
fn table_snapshot_shows_grants_and_waiters() {
    let (lm, _obs) = manager_with_registry();
    let lm = Arc::new(lm);
    let granule = ResourceId::Page(PageId(2));
    lm.lock(TxnId(1), granule, LockMode::S, Commit, Conditional);
    lm.lock(
        TxnId(1),
        ResourceId::Object(4),
        LockMode::X,
        Short,
        Conditional,
    );

    let lm2 = Arc::clone(&lm);
    let handle =
        std::thread::spawn(move || lm2.lock(TxnId(2), granule, LockMode::X, Commit, Unconditional));
    // Wait until the X request is queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let table = lm.table_snapshot();
        if let Some(entry) = table.iter().find(|e| e.res == granule) {
            if !entry.waiters.is_empty() {
                assert_eq!(entry.grants.len(), 1);
                assert_eq!(entry.grants[0].txn, TxnId(1));
                assert_eq!(entry.grants[0].mode, LockMode::S);
                assert_eq!(entry.grants[0].commit_mode, Some(LockMode::S));
                assert_eq!(entry.grants[0].short_mode, None);
                assert_eq!(entry.waiters[0].txn, TxnId(2));
                assert_eq!(entry.waiters[0].mode, LockMode::X);
                assert!(!entry.waiters[0].conversion);
                // Snapshot is sorted by resource; the object lock is there too.
                assert!(table.iter().any(|e| e.res == ResourceId::Object(4)));
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "waiter never appeared in table snapshot"
        );
        std::thread::yield_now();
    }
    lm.release_all(TxnId(1));
    handle.join().unwrap();
    lm.release_all(TxnId(2));
}
