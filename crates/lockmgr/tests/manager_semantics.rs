//! Single-threaded semantics of the lock manager: grants, re-grants,
//! durations, conversions, conditional requests, release behaviour.

use std::time::Duration;

use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockManager, LockManagerConfig, LockMode, LockOutcome,
    RequestKind::Conditional,
    ResourceId, TxnId,
};
use dgl_obs::{Ctr, Hist};
use dgl_pager::PageId;

fn mgr() -> LockManager {
    LockManager::new(LockManagerConfig {
        wait_timeout: Duration::from_millis(200),
    })
}

fn page(n: u64) -> ResourceId {
    ResourceId::Page(PageId(n))
}

const T1: TxnId = TxnId(1);
const T2: TxnId = TxnId(2);
const T3: TxnId = TxnId(3);

use LockMode::*;

#[test]
fn compatible_modes_coexist() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T2, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T3, page(1), IS, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.holders(page(1)).len(), 3);
}

#[test]
fn incompatible_conditional_fails_without_queueing() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T2, page(1), IX, Commit, Conditional),
        LockOutcome::WouldBlock
    );
    assert_eq!(
        m.lock(T2, page(1), X, Commit, Conditional),
        LockOutcome::WouldBlock
    );
    // T2 holds nothing.
    assert_eq!(m.held(T2, page(1)), None);
    assert_eq!(m.obs().ctr(Ctr::LockConditionalFail), 2);
    assert_eq!(m.obs().hist(Hist::LockWait).count, 0);
}

#[test]
fn regrant_same_mode_is_idempotent() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.held(T1, page(1)), Some(IX));
    assert_eq!(m.locks_held(T1), 1);
}

#[test]
fn self_conversion_ix_plus_s_yields_six() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.held(T1, page(1)), Some(SIX), "IX + S converts to SIX");
    assert_eq!(m.obs().ctr(Ctr::LockConversions), 1);
}

#[test]
fn conversion_blocked_by_other_holder() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T2, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    // T1 wants X: incompatible with T2's S.
    assert_eq!(
        m.lock(T1, page(1), X, Commit, Conditional),
        LockOutcome::WouldBlock
    );
    assert_eq!(
        m.held(T1, page(1)),
        Some(S),
        "failed conversion leaves old mode"
    );
}

#[test]
fn weaker_rerequest_does_not_downgrade() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), X, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.held(T1, page(1)), Some(X));
}

#[test]
fn short_duration_released_at_operation_end() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), SIX, Short, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(2), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    m.release_short(T1);
    assert_eq!(m.held(T1, page(1)), None, "short-only lock gone");
    assert_eq!(m.held(T1, page(2)), Some(IX), "commit lock survives");
}

#[test]
fn short_release_downgrades_mixed_grant() {
    // The paper's inserter pattern: commit IX on the target granule plus a
    // short SIX slot (e.g. it both grew the granule and held it). After the
    // operation the SIX decays to the commit IX.
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(1), SIX, Short, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.held(T1, page(1)), Some(SIX));
    // While T1 effectively holds SIX, T2's IX must fail...
    assert_eq!(
        m.lock(T2, page(1), IX, Commit, Conditional),
        LockOutcome::WouldBlock
    );
    m.release_short(T1);
    assert_eq!(m.held(T1, page(1)), Some(IX));
    // ...and succeed after the downgrade (IX ~ IX).
    assert_eq!(
        m.lock(T2, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
}

#[test]
fn release_all_clears_everything_and_empties_table() {
    let m = mgr();
    for i in 0..10 {
        assert_eq!(
            m.lock(T1, page(i), IX, Commit, Conditional),
            LockOutcome::Granted
        );
        assert_eq!(
            m.lock(T1, ResourceId::Object(i), X, Commit, Conditional),
            LockOutcome::Granted
        );
    }
    assert_eq!(m.locks_held(T1), 20);
    m.release_all(T1);
    assert_eq!(m.locks_held(T1), 0);
    assert_eq!(m.resource_count(), 0, "lock table must not leak entries");
}

#[test]
fn release_short_is_noop_for_commit_only_grants() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), S, Commit, Conditional),
        LockOutcome::Granted
    );
    m.release_short(T1);
    assert_eq!(m.held(T1, page(1)), Some(S));
}

#[test]
fn duration_upgrade_short_then_commit_survives_op_end() {
    // Same mode requested first short then commit: the commit slot must
    // keep the lock alive past release_short.
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), IX, Short, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T1, page(1), IX, Commit, Conditional),
        LockOutcome::Granted
    );
    m.release_short(T1);
    assert_eq!(m.held(T1, page(1)), Some(IX));
}

#[test]
fn distinct_resource_kinds_do_not_collide() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(7), X, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T2, ResourceId::Object(7), X, Commit, Conditional),
        LockOutcome::Granted,
        "object 7 is a different resource from page 7"
    );
    assert_eq!(
        m.lock(T3, ResourceId::Tree, X, Commit, Conditional),
        LockOutcome::Granted
    );
}

#[test]
fn six_admits_only_is() {
    let m = mgr();
    assert_eq!(
        m.lock(T1, page(1), SIX, Commit, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(
        m.lock(T2, page(1), IS, Commit, Conditional),
        LockOutcome::Granted
    );
    for mode in [IX, S, SIX, X] {
        assert_eq!(
            m.lock(T3, page(1), mode, Commit, Conditional),
            LockOutcome::WouldBlock,
            "{mode} must conflict with SIX"
        );
    }
}

#[test]
fn registry_counts_requests_and_conditional_failures() {
    let m = mgr();
    m.lock(T1, page(1), S, Commit, Conditional);
    m.lock(T2, page(1), S, Short, Conditional);
    m.lock(T3, page(1), X, Commit, Conditional); // fails
    let s = m.obs().snapshot();
    assert_eq!(s.ctr(Ctr::LockReqCommit), 2);
    assert_eq!(s.ctr(Ctr::LockReqShort), 1);
    assert_eq!(s.ctr(Ctr::LockConditionalFail), 1);
    assert_eq!(s.hist(Hist::LockWait).count, 0);
}

#[test]
fn end_of_operation_visits_only_short_locks() {
    // The end of an operation costs what that operation locked, not what
    // the transaction holds: 200 commit locks are never looked at.
    let m = mgr();
    for i in 0..200 {
        assert_eq!(
            m.lock(T1, ResourceId::Object(i), X, Commit, Conditional),
            LockOutcome::Granted
        );
    }
    let visits = || m.obs().ctr(Ctr::LockReleaseVisits);
    assert_eq!(
        m.lock(T1, page(1), SIX, Short, Conditional),
        LockOutcome::Granted
    );
    assert_eq!(m.locks_held(T1), 201);
    m.release_short(T1);
    assert_eq!(visits(), 1, "one short lock, one table visit");
    assert_eq!(m.held(T1, page(1)), None, "the short-only grant is gone");
    m.release_short(T1);
    assert_eq!(visits(), 1, "nothing short left: no visit at all");
    // A point read inside a long transaction: a commit-only re-request.
    assert_eq!(
        m.lock(T1, ResourceId::Object(7), S, Commit, Conditional),
        LockOutcome::Granted
    );
    m.release_short(T1);
    assert_eq!(visits(), 1, "commit locks are not the operation's to drop");
    assert_eq!(m.locks_held(T1), 200);
    m.release_all(T1);
    assert_eq!(visits(), 201, "commit visits each held lock exactly once");
    assert_eq!(m.locks_held(T1), 0);
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn locks_held_counts_a_resource_with_both_slots_once() {
    let m = mgr();
    m.lock(T1, page(1), IX, Commit, Conditional);
    m.lock(T1, page(1), SIX, Short, Conditional);
    m.lock(T1, page(2), S, Short, Conditional);
    assert_eq!(m.locks_held(T1), 2, "distinct resources, not list entries");
    m.release_short(T1);
    assert_eq!(m.locks_held(T1), 1);
    m.release_all(T1);
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn a_batch_stops_at_the_first_conflict_and_keeps_what_it_got() {
    // The same requests, once as one `try_lock_all` and once as single
    // conditional calls stopping at the first refusal, on two managers
    // where T2 holds S on page 3.
    let reqs = [
        (page(1), IX, Commit),
        (page(2), S, Commit),
        (page(2), SIX, Short), // a second slot on a held resource
        (page(3), IX, Short),  // refused: T2 holds S
        (page(4), X, Commit),  // never requested
    ];
    let (batch, single) = (mgr(), mgr());
    for m in [&batch, &single] {
        assert_eq!(
            m.lock(T2, page(3), S, Commit, Conditional),
            LockOutcome::Granted
        );
    }
    assert_eq!(batch.try_lock_all(T1, reqs), Err((page(3), IX, Short)));
    for (res, mode, dur) in reqs {
        if single.lock(T1, res, mode, dur, Conditional) != LockOutcome::Granted {
            break;
        }
    }
    for m in [&batch, &single] {
        assert_eq!(m.held(T1, page(1)), Some(IX));
        assert_eq!(m.held(T1, page(2)), Some(SIX));
        assert_eq!(m.held_commit(T1, page(2)), Some(S));
        assert_eq!(m.held(T1, page(3)), None);
        assert_eq!(m.held(T1, page(4)), None);
        assert_eq!(m.locks_held(T1), 2);
        assert_eq!(m.obs().ctr(Ctr::LockReqCommit), 3, "T2's S, page 1, page 2");
        assert_eq!(m.obs().ctr(Ctr::LockReqShort), 2);
        assert_eq!(m.obs().ctr(Ctr::LockConditionalFail), 1);
    }
    // The record lists agree too: the end of the operation drops exactly
    // the short slot, the end of the transaction everything.
    for m in [&batch, &single] {
        m.release_short(T1);
        assert_eq!(m.held(T1, page(2)), Some(S));
        assert_eq!(m.obs().ctr(Ctr::LockReleaseVisits), 1);
        m.release_all(T1);
        assert_eq!(m.obs().ctr(Ctr::LockReleaseVisits), 3);
        assert_eq!(m.locks_held(T1), 0);
        m.release_all(T2);
        assert_eq!(m.resource_count(), 0);
    }
}

#[test]
fn a_batch_longer_than_its_listing_buffer_lists_every_grant() {
    let m = mgr();
    let reqs = (0..100).map(|i| (ResourceId::Object(i), X, Commit));
    assert_eq!(
        m.try_lock_all(T1, reqs.chain([(page(1), S, Short)])),
        Ok(())
    );
    assert_eq!(m.locks_held(T1), 101);
    m.release_short(T1);
    assert_eq!(m.locks_held(T1), 100);
    m.release_all(T1);
    assert_eq!(m.resource_count(), 0);
}

#[test]
fn every_release_order_of_up_to_three_holders_empties_the_table() {
    // One, two and three holders of one resource — the inline first grant
    // and the spilled ones — released in every order, with a conversion
    // and a short slot mixed in, must leave nothing behind.
    let orders: [&[TxnId]; 9] = [
        &[T1],
        &[T1, T2],
        &[T2, T1],
        &[T1, T2, T3],
        &[T1, T3, T2],
        &[T2, T1, T3],
        &[T2, T3, T1],
        &[T3, T1, T2],
        &[T3, T2, T1],
    ];
    for order in orders {
        let m = mgr();
        let mut holders = order.to_vec();
        holders.sort();
        for &t in &holders {
            assert_eq!(
                m.lock(t, page(1), IS, Commit, Conditional),
                LockOutcome::Granted
            );
            assert_eq!(
                m.lock(t, page(1), S, Short, Conditional),
                LockOutcome::Granted
            );
        }
        let mut expect: Vec<_> = holders.iter().map(|&t| (t, S)).collect();
        for &t in order {
            let mut got = m.holders(page(1));
            got.sort();
            assert_eq!(got, expect, "before releasing {t} in {order:?}");
            m.release_short(t);
            assert_eq!(m.held(t, page(1)), Some(IS), "{t} keeps its commit IS");
            m.release_all(t);
            expect.retain(|(h, _)| *h != t);
            assert_eq!(m.held(t, page(1)), None);
        }
        assert_eq!(m.resource_count(), 0, "order {order:?}");
        assert!(m.table_snapshot().is_empty());
    }
}
