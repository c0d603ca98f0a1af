//! Multi-threaded behaviour: unconditional waits, FIFO fairness,
//! wakeup on release/downgrade, deadlock detection, timeout backstop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockManager, LockManagerConfig, LockMode, LockOutcome,
    RequestKind::Unconditional,
    ResourceId, TxnId, WaitDomain,
};
use dgl_obs::{Ctr, Event, Registry};
use dgl_pager::PageId;

use LockMode::*;

fn mgr_with_timeout(ms: u64) -> Arc<LockManager> {
    Arc::new(LockManager::new(LockManagerConfig {
        wait_timeout: Duration::from_millis(ms),
        ..Default::default()
    }))
}

fn page(n: u64) -> ResourceId {
    ResourceId::Page(PageId(n))
}

#[test]
fn unconditional_wait_is_granted_on_release() {
    let m = mgr_with_timeout(5_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    let got_it = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let flag = Arc::clone(&got_it);
        let h = s.spawn(move |_| {
            let out = m2.lock(TxnId(2), page(1), S, Commit, Unconditional);
            flag.store(true, Ordering::SeqCst);
            out
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!got_it.load(Ordering::SeqCst), "T2 must be blocked");
        m.release_all(TxnId(1));
        assert_eq!(h.join().unwrap(), LockOutcome::Granted);
    })
    .unwrap();
    assert_eq!(m.held(TxnId(2), page(1)), Some(S));
}

#[test]
fn short_lock_downgrade_wakes_waiter() {
    // The protocol's key wakeup path: an inserter's short SIX on an external
    // granule decays at operation end, unblocking a waiting searcher.
    let m = mgr_with_timeout(5_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), IX, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(1), page(1), SIX, Short, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h = s.spawn(move |_| m2.lock(TxnId(2), page(1), IX, Commit, Unconditional));
        std::thread::sleep(Duration::from_millis(50));
        // Only the short slot is released; the commit IX stays, which is
        // compatible with the waiter's IX.
        m.release_short(TxnId(1));
        assert_eq!(h.join().unwrap(), LockOutcome::Granted);
    })
    .unwrap();
}

#[test]
fn fifo_queue_prevents_reader_starvation_of_writer() {
    // T1 holds S. T2 queues for X. T3's S request must queue behind T2
    // rather than overtaking (fairness), so after T1 releases, T2 gets X.
    let m = mgr_with_timeout(5_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), S, Commit, Unconditional),
        LockOutcome::Granted
    );
    let order = Arc::new(AtomicU64::new(0));
    crossbeam::scope(|s| {
        let (m2, ord2) = (Arc::clone(&m), Arc::clone(&order));
        let writer = s.spawn(move |_| {
            let out = m2.lock(TxnId(2), page(1), X, Commit, Unconditional);
            ord2.compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst)
                .ok();
            out
        });
        std::thread::sleep(Duration::from_millis(50));
        let (m3, ord3) = (Arc::clone(&m), Arc::clone(&order));
        let reader = s.spawn(move |_| {
            let out = m3.lock(TxnId(3), page(1), S, Commit, Unconditional);
            ord3.compare_exchange(0, 3, Ordering::SeqCst, Ordering::SeqCst)
                .ok();
            out
        });
        std::thread::sleep(Duration::from_millis(50));
        m.release_all(TxnId(1));
        assert_eq!(writer.join().unwrap(), LockOutcome::Granted);
        // Writer must have been first.
        assert_eq!(
            order.load(Ordering::SeqCst),
            2,
            "X waiter granted before late S"
        );
        m.release_all(TxnId(2));
        assert_eq!(reader.join().unwrap(), LockOutcome::Granted);
    })
    .unwrap();
}

#[test]
fn two_txn_deadlock_is_detected_and_victim_aborts() {
    let m = mgr_with_timeout(10_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(2), page(2), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h1 = s.spawn(move |_| m2.lock(TxnId(1), page(2), X, Commit, Unconditional));
        std::thread::sleep(Duration::from_millis(80));
        // T2 closing the cycle must be told to abort.
        let out = m.lock(TxnId(2), page(1), X, Commit, Unconditional);
        assert_eq!(out, LockOutcome::Deadlock);
        m.release_all(TxnId(2));
        assert_eq!(h1.join().unwrap(), LockOutcome::Granted);
    })
    .unwrap();
    assert_eq!(m.obs().ctr(Ctr::LockDeadlocks), 1);
}

/// The victim is *not* the transaction that closed the cycle: T1 (older)
/// holds A, T2 (younger) holds B and waits for A, then T1's request for B
/// closes the cycle and wounds T2. One `Deadlock` outcome is returned, so
/// the counter must read exactly one (the canceller used to bump it too).
#[test]
fn deadlock_wounding_another_waiter_is_counted_once() {
    let m = mgr_with_timeout(10_000);
    let (a, b) = (page(1), page(2));
    assert_eq!(
        m.lock(TxnId(1), a, X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(2), b, X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let victim = s.spawn(move |_| {
            let out = m2.lock(TxnId(2), a, X, Commit, Unconditional);
            m2.release_all(TxnId(2));
            out
        });
        while m.waiter_count() == 0 {
            std::thread::yield_now();
        }
        // T1 closes the cycle; the younger T2 is wounded and T1 is
        // granted once T2's rollback releases B.
        let closer = m.lock(TxnId(1), b, X, Commit, Unconditional);
        let outcomes = [victim.join().unwrap(), closer];
        assert_eq!(outcomes, [LockOutcome::Deadlock, LockOutcome::Granted]);
    })
    .unwrap();
    assert_eq!(m.obs().ctr(Ctr::LockDeadlocks), 1);
    m.release_all(TxnId(1));
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn conversion_deadlock_detected() {
    // Both hold S; both convert to X — the classic conversion deadlock.
    let m = mgr_with_timeout(10_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), S, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(2), page(1), S, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h1 = s.spawn(move |_| m2.lock(TxnId(1), page(1), X, Commit, Unconditional));
        std::thread::sleep(Duration::from_millis(80));
        let out = m.lock(TxnId(2), page(1), X, Commit, Unconditional);
        assert_eq!(out, LockOutcome::Deadlock);
        m.release_all(TxnId(2));
        assert_eq!(h1.join().unwrap(), LockOutcome::Granted);
        assert_eq!(m.held(TxnId(1), page(1)), Some(X));
    })
    .unwrap();
}

#[test]
fn timeout_backstop_fires_when_holder_never_releases() {
    let m = mgr_with_timeout(150);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    let out = m.lock(TxnId(2), page(1), S, Commit, Unconditional);
    assert_eq!(out, LockOutcome::Timeout);
    assert_eq!(m.obs().ctr(Ctr::LockTimeouts), 1);
    // The queue must be clean: releasing T1 leaves an empty table.
    m.release_all(TxnId(1));
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn many_threads_mutual_exclusion_under_x_locks() {
    // N threads increment a plain counter under an X lock; the end value
    // proves mutual exclusion.
    let m = mgr_with_timeout(30_000);
    let counter = Arc::new(AtomicU64::new(0));
    let unsynced = Arc::new(std::sync::Mutex::new(0u64));
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 200;
    crossbeam::scope(|s| {
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            let counter = Arc::clone(&counter);
            let unsynced = Arc::clone(&unsynced);
            s.spawn(move |_| {
                for r in 0..ROUNDS {
                    let txn = TxnId(1 + t * ROUNDS + r);
                    assert_eq!(
                        m.lock(txn, page(1), X, Commit, Unconditional),
                        LockOutcome::Granted
                    );
                    {
                        let mut g = unsynced.lock().unwrap();
                        *g += 1;
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    m.release_all(txn);
                }
            });
        }
    })
    .unwrap();
    assert_eq!(counter.load(Ordering::SeqCst), THREADS * ROUNDS);
    assert_eq!(*unsynced.lock().unwrap(), THREADS * ROUNDS);
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn readers_proceed_concurrently_writers_serialize() {
    let m = mgr_with_timeout(30_000);
    let concurrent_readers = Arc::new(AtomicU64::new(0));
    let max_concurrent = Arc::new(AtomicU64::new(0));
    crossbeam::scope(|s| {
        for t in 0..6 {
            let m = Arc::clone(&m);
            let cur = Arc::clone(&concurrent_readers);
            let max = Arc::clone(&max_concurrent);
            s.spawn(move |_| {
                let txn = TxnId(100 + t);
                assert_eq!(
                    m.lock(txn, page(1), S, Commit, Unconditional),
                    LockOutcome::Granted
                );
                let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                max.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                cur.fetch_sub(1, Ordering::SeqCst);
                m.release_all(txn);
            });
        }
    })
    .unwrap();
    assert!(
        max_concurrent.load(Ordering::SeqCst) >= 2,
        "shared locks should actually overlap"
    );
}

#[test]
fn deadlock_victim_can_retry_and_succeed() {
    let m = mgr_with_timeout(10_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(2), page(2), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h1 = s.spawn(move |_| {
            let out = m2.lock(TxnId(1), page(2), X, Commit, Unconditional);
            m2.release_all(TxnId(1));
            out
        });
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(
            m.lock(TxnId(2), page(1), X, Commit, Unconditional),
            LockOutcome::Deadlock
        );
        // Victim aborts (releases everything), then retries as a new txn.
        m.release_all(TxnId(2));
        assert_eq!(h1.join().unwrap(), LockOutcome::Granted);
        let retry = TxnId(3);
        assert_eq!(
            m.lock(retry, page(1), X, Commit, Unconditional),
            LockOutcome::Granted
        );
        assert_eq!(
            m.lock(retry, page(2), X, Commit, Unconditional),
            LockOutcome::Granted
        );
        m.release_all(retry);
    })
    .unwrap();
}

#[test]
fn youngest_transaction_is_chosen_as_victim() {
    // T1 (old) and T9 (young) deadlock; T1 closes the cycle but the
    // youngest member T9 must be sacrificed, so T1's request succeeds.
    let m = mgr_with_timeout(10_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(9), page(2), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        // Young txn blocks first on page 1.
        let h9 = s.spawn(move |_| m2.lock(TxnId(9), page(1), X, Commit, Unconditional));
        std::thread::sleep(Duration::from_millis(80));
        // Old txn closes the cycle — young one must die, old one blocks
        // until the victim's locks are released.
        let m3 = Arc::clone(&m);
        let h1 = s.spawn(move |_| m3.lock(TxnId(1), page(2), X, Commit, Unconditional));
        // The victim observes Deadlock and aborts (releasing its locks).
        assert_eq!(h9.join().unwrap(), LockOutcome::Deadlock);
        m.release_all(TxnId(9));
        assert_eq!(
            h1.join().unwrap(),
            LockOutcome::Granted,
            "survivor proceeds"
        );
        m.release_all(TxnId(1));
    })
    .unwrap();
}

#[test]
fn wait_edges_expose_each_waiter_and_whom_it_waits_behind() {
    let m = mgr_with_timeout(10_000);
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert!(m.wait_edges().is_empty(), "no waiters, no edges");
    assert_eq!(m.waiter_count(), 0);
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h2 = s.spawn(move |_| m2.lock(TxnId(2), page(1), S, Commit, Unconditional));
        // T7 queues only once T2 has: the release/join sequence below
        // assumes that FIFO order.
        while m.waiter_count() < 1 {
            std::thread::yield_now();
        }
        let m7 = Arc::clone(&m);
        let h7 = s.spawn(move |_| m7.lock(TxnId(7), page(1), X, Commit, Unconditional));
        while m.waiter_count() < 2 {
            std::thread::yield_now();
        }
        let edges = m.wait_edges();
        // Both waiters block on the holder; T7, queued second, also
        // blocks on T2 ahead of it (FIFO).
        let on_holder: Vec<_> = edges.iter().filter(|e| e.holder == TxnId(1)).collect();
        assert_eq!(on_holder.len(), 2, "both waiters edge to the X holder");
        let behind: Vec<_> = edges.iter().filter(|e| e.holder == TxnId(2)).collect();
        assert_eq!(behind.len(), 1, "one FIFO edge");
        assert_eq!(behind[0].waiter, TxnId(7));
        assert_eq!(edges.len(), 3);
        assert!(edges.iter().all(|e| e.res == page(1)));
        m.release_all(TxnId(1));
        assert_eq!(h2.join().unwrap(), LockOutcome::Granted);
        m.release_all(TxnId(2));
        assert_eq!(h7.join().unwrap(), LockOutcome::Granted);
        m.release_all(TxnId(7));
    })
    .unwrap();
    assert!(m.wait_edges().is_empty());
}

#[test]
fn short_lock_granted_by_anothers_release_is_dropped_at_own_operation_end() {
    // The grant is recorded by the *releasing* thread (T1's release_all
    // hands T2 its short SIX); it must still land on T2's short list, or
    // T2's end of operation would leave it behind.
    let m = mgr_with_timeout(5_000);
    assert_eq!(
        m.lock(TxnId(2), page(9), IX, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(1), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h = s.spawn(move |_| m2.lock(TxnId(2), page(1), SIX, Short, Unconditional));
        while m.waiter_count() == 0 {
            std::thread::yield_now();
        }
        m.release_all(TxnId(1));
        assert_eq!(h.join().unwrap(), LockOutcome::Granted);
    })
    .unwrap();
    assert_eq!(m.waiter_count(), 0);
    assert_eq!(m.held(TxnId(2), page(1)), Some(SIX));
    assert_eq!(m.locks_held(TxnId(2)), 2);
    let before = m.obs().ctr(Ctr::LockReleaseVisits);
    m.release_short(TxnId(2));
    assert_eq!(m.obs().ctr(Ctr::LockReleaseVisits), before + 1);
    assert_eq!(m.held(TxnId(2), page(1)), None, "short grant dropped");
    assert_eq!(m.held(TxnId(2), page(9)), Some(IX), "commit grant kept");
    m.release_all(TxnId(2));
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn system_transactions_are_spared() {
    // T2 is a system txn (young id 9 would normally die); victim selection
    // must pick the non-system member even though it is older.
    let m = mgr_with_timeout(10_000);
    m.set_system(TxnId(9));
    assert_eq!(
        m.lock(TxnId(3), page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(TxnId(9), page(2), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    crossbeam::scope(|s| {
        let m2 = Arc::clone(&m);
        let h3 = s.spawn(move |_| m2.lock(TxnId(3), page(2), X, Commit, Unconditional));
        std::thread::sleep(Duration::from_millis(80));
        // System txn closes the cycle; the ordinary txn T3 must be the
        // victim even though the system txn is younger.
        let m4 = Arc::clone(&m);
        let h9 = s.spawn(move |_| m4.lock(TxnId(9), page(1), X, Commit, Unconditional));
        assert_eq!(
            h3.join().unwrap(),
            LockOutcome::Deadlock,
            "ordinary txn dies"
        );
        m.release_all(TxnId(3));
        assert_eq!(
            h9.join().unwrap(),
            LockOutcome::Granted,
            "system txn survives"
        );
        m.release_all(TxnId(9));
        m.clear_system(TxnId(9));
    })
    .unwrap();
}

/// Two lock tables, each with `page(1)` X-held: by T1 in `a`, by T2 in
/// `b`. T2 parks behind T1 in `a`, then T1 asks for `b`'s page — the
/// crossing that closes a cycle with one edge in each table. T1 asks only
/// once T2 has reported its own stall: the one sign a waiter gives *after*
/// its block-time search, so the cycle is T1's to find. Returns (T1's
/// outcome, T2's outcome); each side releases everywhere once it has its
/// answer, as a rollback would.
fn crossing_over_two_tables(
    a: &Arc<LockManager>,
    b: &Arc<LockManager>,
) -> (LockOutcome, LockOutcome) {
    let (t1, t2) = (TxnId(1), TxnId(2));
    assert_eq!(
        a.lock(t1, page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    assert_eq!(
        b.lock(t2, page(1), X, Commit, Unconditional),
        LockOutcome::Granted
    );
    let release = |t| {
        a.release_all(t);
        b.release_all(t);
    };
    std::thread::scope(|s| {
        let h2 = s.spawn(move || {
            let out = a.lock(t2, page(1), X, Commit, Unconditional);
            release(t2);
            out
        });
        while a.obs().ctr(Ctr::WatchdogStalls) < 1 {
            std::thread::yield_now();
        }
        // Each table holds one edge of the cycle; neither holds a cycle.
        assert_eq!(a.wait_edges().len(), 1);
        assert!(b.wait_edges().is_empty());
        let out1 = b.lock(t1, page(1), X, Commit, Unconditional);
        release(t1);
        (out1, h2.join().expect("T2 thread"))
    })
}

#[test]
fn two_managers_in_one_domain_refuse_a_cycle_neither_sees_alone() {
    let domain = WaitDomain::new(1);
    let member = || {
        let obs = Arc::new(Registry::new());
        obs.set_detail(true);
        LockManager::join(LockManagerConfig::default(), obs, &domain)
    };
    let (a, b) = (member(), member());
    // The older T1 closes the cycle in `b`; the victim is the younger T2,
    // parked in the *peer* table — its wait there is cancelled remotely
    // and T1 goes on to be granted.
    let (out1, out2) = crossing_over_two_tables(&a, &b);
    assert_eq!(out2, LockOutcome::Deadlock, "younger loses, at block time");
    assert_eq!(out1, LockOutcome::Granted, "older proceeds");
    assert_eq!(a.obs().ctr(Ctr::LockDeadlocks), 1, "counted by the victim");
    assert_eq!(b.obs().ctr(Ctr::LockDeadlocks), 0);
    for m in [&a, &b] {
        assert_eq!(m.obs().ctr(Ctr::LockTimeouts), 0);
        assert_eq!(m.resource_count(), 0);
    }
    // The closing request leaves the evidence: victim and members in wait
    // order, requester first.
    let victims: Vec<_> = (b.obs().take_events().into_iter())
        .filter(|e| matches!(e, Event::DeadlockVictim { .. }))
        .collect();
    assert_eq!(
        victims,
        [Event::DeadlockVictim {
            txn: 2,
            cycle: vec![1, 2]
        }]
    );
}

#[test]
fn managers_in_separate_domains_do_not_see_each_other() {
    // The same crossing over two stand-alone managers: no request ever
    // sees a cycle, and only the backstop (of `a`, where T2 waits) breaks
    // it.
    let (a, b) = (mgr_with_timeout(100), mgr_with_timeout(10_000));
    let (out1, out2) = crossing_over_two_tables(&a, &b);
    assert_eq!(out2, LockOutcome::Timeout);
    assert_eq!(out1, LockOutcome::Granted);
    for m in [&a, &b] {
        assert_eq!(m.obs().ctr(Ctr::LockDeadlocks), 0);
    }
}
