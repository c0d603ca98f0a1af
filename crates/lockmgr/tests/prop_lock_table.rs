//! Property-based tests: random single-threaded request/release sequences
//! against a naive oracle of held modes, checking the two invariants a
//! lock table must never lose: (1) a granted set never contains two
//! incompatible locks of different transactions, (2) grants/releases
//! agree with a per-(txn, resource, duration) mode-supremum oracle.

use std::collections::HashMap;

use dgl_lockmgr::{
    LockDuration, LockManager, LockManagerConfig, LockMode, LockOutcome, RequestKind, ResourceId,
    TxnId,
};
use dgl_obs::Ctr;
use dgl_pager::PageId;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Action {
    Lock(u8, u8, LockMode, LockDuration),
    ReleaseShort(u8),
    ReleaseAll(u8),
}

fn arb_mode() -> impl Strategy<Value = LockMode> {
    prop::sample::select(LockMode::ALL.to_vec())
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        6 => (0..4u8, 0..6u8, arb_mode(), prop::bool::ANY).prop_map(|(t, r, m, c)| {
            Action::Lock(t, r, m, if c { LockDuration::Commit } else { LockDuration::Short })
        }),
        1 => (0..4u8).prop_map(Action::ReleaseShort),
        1 => (0..4u8).prop_map(Action::ReleaseAll),
    ]
}

/// Oracle entry: per (txn, resource), the commit- and short-slot modes.
#[derive(Debug, Default, Clone, Copy)]
struct Held {
    commit: Option<LockMode>,
    short: Option<LockMode>,
}

impl Held {
    fn mode(&self) -> Option<LockMode> {
        match (self.commit, self.short) {
            (Some(c), Some(s)) => Some(c.supremum(s)),
            (c, None) => c,
            (None, s) => s,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lock_table_matches_oracle(actions in prop::collection::vec(arb_action(), 1..60)) {
        let lm = LockManager::new(LockManagerConfig::default());
        let mut oracle: HashMap<(u8, u8), Held> = HashMap::new();

        for action in actions {
            match action {
                Action::Lock(t, r, mode, dur) => {
                    let txn = TxnId(u64::from(t) + 1);
                    let res = ResourceId::Page(PageId(u64::from(r)));
                    // Oracle grant decision: new total mode must be
                    // compatible with every other txn's held mode.
                    let me = oracle.get(&(t, r)).copied().unwrap_or_default();
                    let want = me.mode().map_or(mode, |m| m.supremum(mode));
                    let ok = oracle
                        .iter()
                        .filter(|((ot, or), h)| *ot != t && *or == r && h.mode().is_some())
                        .all(|(_, h)| want.compatible(h.mode().expect("filtered")));
                    let outcome = lm.lock(txn, res, mode, dur, RequestKind::Conditional);
                    // (No waiters exist in single-threaded runs, so FIFO
                    // fairness never blocks a compatible request.)
                    prop_assert_eq!(
                        outcome == LockOutcome::Granted,
                        ok,
                        "lock({:?},{:?},{:?},{:?}): got {:?}, oracle says {}",
                        t, r, mode, dur, outcome, ok
                    );
                    if ok {
                        let h = oracle.entry((t, r)).or_default();
                        match dur {
                            LockDuration::Commit => {
                                h.commit = Some(h.commit.map_or(mode, |m| m.supremum(mode)));
                            }
                            LockDuration::Short => {
                                h.short = Some(h.short.map_or(mode, |m| m.supremum(mode)));
                            }
                        }
                    }
                }
                Action::ReleaseShort(t) => {
                    let txn = TxnId(u64::from(t) + 1);
                    lm.release_short(txn);
                    // The short list named every short slot.
                    for entry in lm.table_snapshot() {
                        for g in entry.grants.iter().filter(|g| g.txn == txn) {
                            prop_assert_eq!(
                                g.short_mode, None,
                                "{} keeps a short slot on {} after release_short", txn, entry.res
                            );
                        }
                    }
                    for ((ot, _), h) in oracle.iter_mut() {
                        if *ot == t {
                            h.short = None;
                        }
                    }
                    oracle.retain(|_, h| h.mode().is_some());
                }
                Action::ReleaseAll(t) => {
                    lm.release_all(TxnId(u64::from(t) + 1));
                    oracle.retain(|(ot, _), _| *ot != t);
                }
            }
            // Cross-check every held mode against the oracle.
            for t in 0..4u8 {
                for r in 0..6u8 {
                    let got = lm.held(
                        TxnId(u64::from(t) + 1),
                        ResourceId::Page(PageId(u64::from(r))),
                    );
                    let want = oracle.get(&(t, r)).and_then(Held::mode);
                    prop_assert_eq!(got, want, "held({}, {})", t, r);
                }
            }
            // The per-transaction record agrees with the table: a
            // transaction's lists name exactly the resources it has a
            // grant on, each counted once.
            let table = lm.table_snapshot();
            for t in 0..4u8 {
                let txn = TxnId(u64::from(t) + 1);
                let granted = table
                    .iter()
                    .filter(|e| e.grants.iter().any(|g| g.txn == txn))
                    .count();
                prop_assert_eq!(lm.locks_held(txn), granted, "locks_held({})", txn);
            }
            // Global invariant: no two incompatible grants.
            for r in 0..6u8 {
                let res = ResourceId::Page(PageId(u64::from(r)));
                let holders = lm.holders(res);
                for (i, (ta, ma)) in holders.iter().enumerate() {
                    for (tb, mb) in holders.iter().skip(i + 1) {
                        prop_assert!(
                            ta == tb || ma.compatible(*mb),
                            "incompatible grants on {:?}: {} {} vs {} {}",
                            res, ta, ma, tb, mb
                        );
                    }
                }
            }
        }
        // Cleanup leaves an empty table.
        for t in 0..4u8 {
            lm.release_all(TxnId(u64::from(t) + 1));
        }
        prop_assert_eq!(lm.resource_count(), 0);
        prop_assert!(lm.table_snapshot().is_empty());
    }

    #[test]
    fn a_batch_leaves_what_single_calls_leave(steps in prop::collection::vec(arb_step(), 1..40)) {
        // Two managers see the same history; one takes each lock set with
        // one `try_lock_all`, the other with one conditional `lock` per
        // request, stopping at the first refusal. Verdicts, the table and
        // every transaction's record must stay identical.
        let (batch, single) = (
            LockManager::new(LockManagerConfig::default()),
            LockManager::new(LockManagerConfig::default()),
        );
        for step in steps {
            match step {
                Step::Set(t, reqs) => {
                    let txn = TxnId(u64::from(t) + 1);
                    let reqs: Vec<_> = reqs
                        .into_iter()
                        .map(|(r, mode, dur)| (ResourceId::Page(PageId(u64::from(r))), mode, dur))
                        .collect();
                    let got = batch.try_lock_all(txn, reqs.iter().copied());
                    let want = reqs
                        .iter()
                        .copied()
                        .find(|&(res, mode, dur)| {
                            single.lock(txn, res, mode, dur, RequestKind::Conditional)
                                != LockOutcome::Granted
                        })
                        .map_or(Ok(()), Err);
                    prop_assert_eq!(got, want, "{} requesting {:?}", txn, reqs);
                }
                Step::Release(t, all) => {
                    for m in [&batch, &single] {
                        let txn = TxnId(u64::from(t) + 1);
                        if all {
                            m.release_all(txn);
                        } else {
                            m.release_short(txn);
                        }
                    }
                }
            }
            prop_assert_eq!(table(&batch), table(&single));
            for t in 1..=4 {
                prop_assert_eq!(batch.locks_held(TxnId(t)), single.locks_held(TxnId(t)));
            }
            for ctr in [Ctr::LockReqCommit, Ctr::LockReqShort, Ctr::LockConditionalFail, Ctr::LockReleaseVisits] {
                prop_assert_eq!(batch.obs().ctr(ctr), single.obs().ctr(ctr), "{:?}", ctr);
            }
        }
        for t in 1..=4 {
            batch.release_all(TxnId(t));
        }
        prop_assert_eq!(batch.resource_count(), 0);
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// One operation's lock set, in request order.
    Set(u8, Vec<(u8, LockMode, LockDuration)>),
    /// End of operation (`false`) or of transaction (`true`).
    Release(u8, bool),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let req = (0..6u8, arb_mode(), prop::bool::ANY).prop_map(|(r, m, c)| {
        (
            r,
            m,
            if c {
                LockDuration::Commit
            } else {
                LockDuration::Short
            },
        )
    });
    prop_oneof![
        4 => (0..4u8, prop::collection::vec(req, 1..24)).prop_map(|(t, reqs)| Step::Set(t, reqs)),
        1 => (0..4u8, prop::bool::ANY).prop_map(|(t, all)| Step::Release(t, all)),
    ]
}

/// Every grant, by resource in holder order, as comparable tuples.
type Table = Vec<(ResourceId, Vec<(TxnId, Option<LockMode>, Option<LockMode>)>)>;

fn table(lm: &LockManager) -> Table {
    lm.table_snapshot()
        .into_iter()
        .map(|e| {
            let grants = e
                .grants
                .iter()
                .map(|g| (g.txn, g.commit_mode, g.short_mode));
            (e.res, grants.collect())
        })
        .collect()
}
