//! Randomized multi-threaded stress: every sound protocol must keep
//! scans repeatable, survive deadlock aborts cleanly, and end in a
//! consistent state that matches a per-thread ledger of committed work.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use common::{dgl, ids, lock_config};
use dgl_core::baseline::{PredicateConfig, PredicateRTree, TreeLockRTree};
use dgl_core::{InsertPolicy, ObjectId, Rect2, TransactionalRTree, TxnError};
use dgl_obs::{Ctr, Hist};
use dgl_rtree::RTreeConfig;

/// Deterministic xorshift per thread.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn rect(&mut self, max_extent: f64) -> Rect2 {
        let x = self.f64() * (1.0 - max_extent);
        let y = self.f64() * (1.0 - max_extent);
        let w = self.f64() * max_extent;
        let h = self.f64() * max_extent;
        Rect2::new([x, y], [x + w, y + h])
    }
}

/// Runs the stress workload; panics on any isolation violation.
fn stress(db: Arc<dyn TransactionalRTree>, threads: u64, txns_per_thread: u64) {
    let final_sets: Vec<BTreeMap<u64, Rect2>> = crossbeam::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move |_| {
                let mut rng = Rng(0x1234_5678 ^ ((tid + 1) * 0x9E37_79B9));
                // Thread-private oid space prevents duplicate-oid races.
                let base = tid * 1_000_000;
                let mut next_oid = base;
                // Ledger of this thread's committed objects.
                let mut mine: BTreeMap<u64, Rect2> = BTreeMap::new();
                let mut committed = 0u64;
                let mut aborted = 0u64;
                while committed < txns_per_thread {
                    let txn = db.begin();
                    // Staged changes, applied to the ledger only on commit.
                    let mut staged_inserts: Vec<(u64, Rect2)> = Vec::new();
                    let mut staged_deletes: Vec<u64> = Vec::new();
                    let mut failed = false;
                    let ops = 1 + rng.next() % 4;
                    'ops: for _ in 0..ops {
                        match rng.next() % 10 {
                            // Repeatable-read probe: scan twice around a
                            // random other op of our own that does NOT
                            // touch the scanned region.
                            0..=2 => {
                                let q = rng.rect(0.15);
                                let first = match db.read_scan(txn, q) {
                                    Ok(h) => ids(&h),
                                    Err(_) => {
                                        failed = true;
                                        break 'ops;
                                    }
                                };
                                std::thread::yield_now();
                                match db.read_scan(txn, q) {
                                    Ok(h) => {
                                        assert_eq!(
                                            ids(&h),
                                            first,
                                            "{}: scan not repeatable",
                                            db.name()
                                        );
                                    }
                                    Err(_) => {
                                        failed = true;
                                        break 'ops;
                                    }
                                }
                            }
                            3..=6 => {
                                let oid = next_oid;
                                next_oid += 1;
                                let rect = rng.rect(0.03);
                                match db.insert(txn, ObjectId(oid), rect) {
                                    Ok(()) => staged_inserts.push((oid, rect)),
                                    Err(TxnError::DuplicateObject) => {}
                                    Err(_) => {
                                        failed = true;
                                        break 'ops;
                                    }
                                }
                            }
                            7..=8 => {
                                // Delete one of our own committed objects.
                                if let Some((&oid, &rect)) = mine.iter().next() {
                                    match db.delete(txn, ObjectId(oid), rect) {
                                        Ok(true) => staged_deletes.push(oid),
                                        Ok(false) => {}
                                        Err(_) => {
                                            failed = true;
                                            break 'ops;
                                        }
                                    }
                                }
                            }
                            _ => {
                                // Update one of our own objects.
                                if let Some((&oid, &rect)) = mine.iter().last() {
                                    if db.update_single(txn, ObjectId(oid), rect).is_err() {
                                        failed = true;
                                        break 'ops;
                                    }
                                }
                            }
                        }
                    }
                    if failed {
                        // Deadlock/timeout: transaction already rolled
                        // back; nothing lands in the ledger.
                        aborted += 1;
                        continue;
                    }
                    // Randomly abort 1 in 8 transactions ourselves.
                    if rng.next().is_multiple_of(8) {
                        db.abort(txn).expect("abort active txn");
                        aborted += 1;
                        continue;
                    }
                    match db.commit(txn) {
                        Ok(()) => {
                            for (oid, rect) in staged_inserts {
                                mine.insert(oid, rect);
                            }
                            for oid in staged_deletes {
                                mine.remove(&oid);
                            }
                            committed += 1;
                        }
                        Err(e) => panic!("{}: commit failed: {e}", db.name()),
                    }
                }
                let _ = aborted;
                mine
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    // Quiescent checks: tree invariants, then exact content vs ledgers.
    db.validate()
        .unwrap_or_else(|e| panic!("{}: post-stress validation: {e}", db.name()));
    let mut expected: Vec<u64> = final_sets.iter().flat_map(|m| m.keys().copied()).collect();
    expected.sort_unstable();
    let t = db.begin();
    let got = ids(&db.read_scan(t, Rect2::unit()).unwrap());
    db.commit(t).unwrap();
    assert_eq!(
        got,
        expected,
        "{}: final contents disagree with committed ledgers",
        db.name()
    );
}

#[test]
fn stress_dgl_modified_policy() {
    stress(Arc::new(dgl(6, InsertPolicy::Modified)), 6, 60);
}

#[test]
fn stress_dgl_base_policy() {
    stress(Arc::new(dgl(6, InsertPolicy::Base)), 6, 60);
}

#[test]
fn stress_dgl_small_fanout_deep_tree() {
    // Fanout 3 maximizes splits, condensation cascades and root shrinks
    // under concurrency.
    stress(Arc::new(dgl(3, InsertPolicy::Modified)), 4, 50);
}

#[test]
fn stress_tree_lock() {
    stress(
        Arc::new(TreeLockRTree::new(
            RTreeConfig::with_fanout(6),
            Rect2::unit(),
            lock_config(20_000),
        )),
        6,
        40,
    );
}

#[test]
fn stress_predicate_locking() {
    stress(
        Arc::new(PredicateRTree::new(PredicateConfig {
            rtree: RTreeConfig::with_fanout(6),
            world: Rect2::unit(),
            lock: lock_config(20_000),
        })),
        6,
        40,
    );
}

#[test]
fn stress_dgl_coarse_external_granule() {
    // The rejected single-external-granule design must remain correct
    // (it is strictly coarser), just slower.
    use dgl_core::DglConfig;
    let db = dgl_core::DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        lock: lock_config(20_000),
        coarse_external_granule: true,
        ..Default::default()
    });
    stress(Arc::new(db), 4, 40);
}

/// High-thread write-heavy contention: after quiesce the invariants must
/// hold AND the optimistic validation path must actually have fired —
/// `plan_validation_failures` non-zero proves the version check is
/// load-bearing, not dead code.
#[test]
fn high_thread_contention_exercises_replan_counters() {
    let db = dgl(4, InsertPolicy::Modified);
    let threads = 8u64;
    // Writers race on a dense shared region so plan windows overlap; a
    // couple of rounds is plenty, but cap generously for slow machines.
    for round in 0..10u64 {
        crossbeam::scope(|s| {
            for tid in 0..threads {
                let db = &db;
                s.spawn(move |_| {
                    let mut rng = Rng(0xBEEF ^ ((round * threads + tid + 1) * 0x9E37_79B9));
                    let base = (round * threads + tid) * 100_000;
                    let mut owned: Vec<(u64, Rect2)> = Vec::new();
                    for i in 0..120u64 {
                        let txn = db.begin();
                        let ok = match rng.next() % 10 {
                            0..=6 => {
                                let oid = base + i;
                                let rect = rng.rect(0.02);
                                match db.insert(txn, ObjectId(oid), rect) {
                                    Ok(()) => {
                                        owned.push((oid, rect));
                                        true
                                    }
                                    Err(TxnError::DuplicateObject) => true,
                                    Err(_) => false,
                                }
                            }
                            7..=8 => match owned.pop() {
                                Some((oid, rect)) => db.delete(txn, ObjectId(oid), rect).is_ok(),
                                None => true,
                            },
                            _ => db.read_scan(txn, rng.rect(0.1)).is_ok(),
                        };
                        if ok {
                            db.commit(txn).expect("commit active txn");
                        }
                        // Failed ops already rolled the transaction back.
                    }
                });
            }
        })
        .unwrap();
        if db.obs().ctr(Ctr::PlanValidationFailures) > 0 {
            break;
        }
    }
    db.validate().expect("post-stress invariants");
    let s = db.obs().snapshot();
    assert!(
        s.ctr(Ctr::PlanValidationFailures) > 0,
        "contended optimistic writers never failed validation: \
         the version check looks like dead code"
    );
    let holds = s.hist(Hist::LatchHold);
    assert!(holds.count > 0, "apply steps record exclusive holds");
    assert!(holds.sum > 0, "exclusive holds record their duration");
}

/// Reader/writer parallelism regression: a writer parked on a lock wait
/// must hold NO tree latch, so concurrent scans of unrelated regions keep
/// completing while it is blocked.
#[test]
fn scans_progress_while_writer_blocked_on_lock() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let db = dgl(4, InsertPolicy::Modified);

    // Two well-separated clusters so corner-A scans and the corner-B
    // holder touch disjoint leaf granules.
    let setup = db.begin();
    for i in 0..15u64 {
        let o = 0.012 * i as f64;
        db.insert(setup, ObjectId(i), common::r([o, o], [o + 0.01, o + 0.01]))
            .unwrap();
    }
    for i in 0..15u64 {
        let o = 0.7 + 0.012 * i as f64;
        db.insert(
            setup,
            ObjectId(100 + i),
            common::r([o, o], [o + 0.01, o + 0.01]),
        )
        .unwrap();
    }
    db.commit(setup).unwrap();

    // Holder pins a commit-duration X on object 100 (plus IX on its leaf).
    let holder = db.begin();
    let hb = common::r([0.7, 0.7], [0.71, 0.71]);
    assert!(db.update_single(holder, ObjectId(100), hb).unwrap());

    let writer_started = AtomicBool::new(false);
    let writer_done = AtomicBool::new(false);
    crossbeam::scope(|s| {
        let writer = s.spawn(|_| {
            let txn = db.begin();
            writer_started.store(true, Ordering::SeqCst);
            // Same oid: blocks on the name X lock until the holder
            // commits, then reports the duplicate.
            let res = db.insert(txn, ObjectId(100), hb);
            writer_done.store(true, Ordering::SeqCst);
            assert!(matches!(res, Err(TxnError::DuplicateObject)));
            db.abort(txn).unwrap();
        });

        while !writer_started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            !writer_done.load(Ordering::SeqCst),
            "writer should be parked on the holder's object lock"
        );

        // Scans over corner A must complete while the writer is parked.
        // (If the writer still held any tree latch, these would stall
        // until the lock timeout and fail.)
        for _ in 0..10 {
            let t = db.begin();
            let hits = db
                .read_scan(t, common::r([0.0, 0.0], [0.3, 0.3]))
                .expect("scan must not block on the parked writer");
            assert_eq!(hits.len(), 15);
            db.commit(t).unwrap();
        }
        assert!(
            !writer_done.load(Ordering::SeqCst),
            "writer must still be blocked after the scans"
        );

        db.commit(holder).unwrap();
        writer.join().unwrap();
    })
    .unwrap();
    db.validate().expect("post-test invariants");
}
