//! Deterministic cross-shard deadlock resolution.
//!
//! A cycle whose edges live on two different shards is in neither shard's
//! lock table: shard A sees T1 → T2, shard B sees T2 → T1. It is an
//! ordinary cycle all the same, because a global transaction wears one
//! `TxnId` on every shard it touches and the shards' lock managers share
//! a wait-for domain: the request that would close the cycle searches the
//! union of the members' wait edges and the youngest non-system member
//! gets a `TxnError::Deadlock` verdict — inside the closing `lock()` call,
//! on whichever shard it is parked.
//!
//! These tests build crossing-lock-order deadlocks over the public API
//! and assert the contract — exactly one `Deadlock` victim, zero `Timeout`
//! aborts, the younger transaction loses, the survivor commits — for the
//! requester-is-victim and the victim-parked-on-a-peer paths, a 3-cycle, a
//! cycle inside one shard and a cycle through a system operation. Around
//! it: a long wait with no cycle is reported by its waiter, once, and
//! nobody is aborted; and the one thing that is not a lock — the
//! system-operation gate — is something no reader can wait on.
//!
//! Schedules are ordered by polling the shard's `waiter_count()`, never by
//! sleeping, and run under a hard deadline that prints the merged lock
//! table instead of hanging.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{wait_until, within_deadline};
use dgl_core::{
    DglConfig, DglRTree, Rect2, ShardedDglRTree, ShardingConfig, TransactionalRTree, TxnError,
    TxnId,
};
use dgl_faults::FaultSpec;
use dgl_obs::{Ctr, Event, RegistrySnapshot};
use dgl_rtree::{ObjectId, RTreeConfig};

/// Small rectangle centered on (cx, cy) — routes by its center cell.
fn around(cx: f64, cy: f64) -> Rect2 {
    Rect2::new([cx - 0.01, cy - 0.01], [cx + 0.01, cy + 0.01])
}

/// Four shards over the unit world: a 2×2 grid, cell (1,0) → shard 1,
/// cell (0,1) → shard 2, cell (1,1) → shard 3. Region A lives on shard 1,
/// B on shard 2, C on shard 3, and no scan below touches another region's
/// cell (the overflow shard 0 is consulted by every scan, but stays empty
/// and S-locked — no conflict).
fn sharded(config: DglConfig) -> Arc<ShardedDglRTree> {
    Arc::new(ShardedDglRTree::new(
        config,
        ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        },
    ))
}

/// A region: its shard and the center of its seed object.
type Region = (usize, (f64, f64));
const REGION_A: Region = (1, (0.75, 0.25));
const REGION_B: Region = (2, (0.25, 0.75));
const REGION_C: Region = (3, (0.75, 0.75));

fn rect_of((_, (cx, cy)): Region) -> Rect2 {
    around(cx, cy)
}

/// Commits one seed object (oid = shard) per region, so that scans of a
/// region hold real granule locks.
fn seed(db: &ShardedDglRTree, regions: &[Region]) {
    let setup = db.begin();
    for &region in regions {
        db.insert(setup, ObjectId(region.0 as u64), rect_of(region))
            .unwrap();
    }
    db.commit(setup).unwrap();
}

/// Begins a transaction that scans `region`: commit-duration S granule
/// locks on the region's shard.
fn scanner_of(db: &ShardedDglRTree, region: Region) -> TxnId {
    let t = db.begin();
    assert_eq!(db.read_scan(t, rect_of(region)).unwrap().len(), 1);
    t
}

/// Blocks until `n` requests are parked in `shard`'s lock table.
fn parked(db: &ShardedDglRTree, shard: usize, n: usize) {
    wait_until(|| db.shard_handles()[shard].lock_manager().waiter_count() == n);
}

/// Runs `schedule` against `db` under the hard deadline, printing the
/// merged lock table if it wedges.
fn scheduled<T: Send + 'static>(
    db: &Arc<ShardedDglRTree>,
    schedule: impl FnOnce(&ShardedDglRTree) -> T + Send + 'static,
) -> T {
    let (dumped, driven) = (Arc::clone(db), Arc::clone(db));
    within_deadline(
        move || dumped.merged_locktable_dump(),
        move || schedule(&driven),
    )
}

type Verdict = Result<(), TxnError>;

/// `first` inserts object 103 into region `into_first` on a thread of its
/// own; once it is parked there, `second` inserts object 104 into
/// `into_second` here — so the second request closes whatever cycle the
/// two lock orders form. Returns (first's verdict, second's verdict).
fn crossing_inserts(
    db: &ShardedDglRTree,
    (first, into_first): (TxnId, Region),
    (second, into_second): (TxnId, Region),
) -> (Verdict, Verdict) {
    std::thread::scope(|s| {
        let h = s.spawn(move || db.insert(first, ObjectId(103), rect_of(into_first)));
        parked(db, into_first.0, 1);
        let r = db.insert(second, ObjectId(104), rect_of(into_second));
        (h.join().expect("first inserter"), r)
    })
}

/// The contract of every 2-cycle below: `t2` (younger) lost with a
/// deadlock verdict, `t1` survived and commits, and the whole episode
/// cost one deadlock verdict and no timeout.
fn assert_younger_lost(
    db: &ShardedDglRTree,
    (t1, r1): (TxnId, Verdict),
    (t2, r2): (TxnId, Verdict),
) {
    assert!(t2 > t1, "global ids are begin-ordered");
    assert_eq!(r2, Err(TxnError::Deadlock), "younger transaction loses");
    assert_eq!(r1, Ok(()), "older transaction survives");
    // Survivor commits; the victim's session is already gone (the router
    // tears it down on the deadlock verdict).
    db.commit(t1).unwrap();
    assert_eq!(db.abort(t2), Err(TxnError::NotActive));

    let obs = db.obs_snapshot();
    assert_eq!(obs.ctr(Ctr::LockDeadlocks), 1, "exactly one verdict");
    assert_eq!(obs.ctr(Ctr::LockTimeouts), 0, "zero timeout verdicts");
    db.validate().unwrap();
}

#[test]
fn cross_shard_cycle_wounds_one_victim_with_deadlock_not_timeout() {
    let db = sharded(DglConfig::default());
    let started = Instant::now();
    scheduled(&db, |db| {
        seed(db, &[REGION_A, REGION_B]);
        let t1 = scanner_of(db, REGION_A);
        let t2 = scanner_of(db, REGION_B);
        // Crossing inserts: T1 into B (parks behind T2's S on shard 2),
        // then T2 into A (behind T1's S on shard 1). Classic distributed
        // deadlock — no single lock table ever holds the cycle. The
        // younger T2 closes it and is refused by its own request.
        let (r1, r2) = crossing_inserts(db, (t1, REGION_B), (t2, REGION_A));
        assert_younger_lost(db, (t1, r1), (t2, r2));

        // The survivor's insert is visible; the victim's never landed.
        let check = db.begin();
        let hits = db.read_scan(check, Rect2::unit()).unwrap();
        let oids: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
        assert!(oids.contains(&103), "survivor's insert committed");
        assert!(!oids.contains(&104), "victim's insert rolled back");
        db.commit(check).unwrap();
    });
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the verdict is the closing request's, not the 10 s backstop's"
    );
}

#[test]
fn cycle_closed_by_the_older_transaction_cancels_the_victim_on_its_peer_shard() {
    let db = sharded(DglConfig::default());
    db.shard_handles()[2].obs().set_detail(true);
    scheduled(&db, |db| {
        seed(db, &[REGION_A, REGION_B]);
        let t1 = scanner_of(db, REGION_A);
        let t2 = scanner_of(db, REGION_B);
        // The same cycle, the other way round: the younger T2 parks first
        // (on shard 1), the older T1 closes the cycle on shard 2. The
        // victim is not the requester: T2's wait is cancelled in shard
        // 1's table by shard 2's lock manager, and T1's request — once
        // T2's rollback has released region B — is granted.
        let (r2, r1) = std::thread::scope(|s| {
            let h2 = s.spawn(move || db.insert(t2, ObjectId(103), rect_of(REGION_A)));
            // Not just queued but past its own block-time search and
            // asleep: the stall report is the one sign a waiter gives
            // after it, so the cycle is T1's to find.
            wait_until(|| db.shard_handles()[1].obs().ctr(Ctr::WatchdogStalls) == 1);
            let r1 = db.insert(t1, ObjectId(104), rect_of(REGION_B));
            (h2.join().expect("T2"), r1)
        });
        assert_younger_lost(db, (t1, r1), (t2, r2));

        // The closing request's shard holds the evidence.
        let victims: Vec<Event> = (db.shard_handles()[2].obs().take_events().into_iter())
            .filter(|e| matches!(e, Event::DeadlockVictim { .. }))
            .collect();
        assert_eq!(
            victims,
            [Event::DeadlockVictim {
                txn: t2.0,
                cycle: vec![t1.0, t2.0]
            }]
        );
    });
}

#[test]
fn three_cycle_over_three_shards_costs_one_victim() {
    let db = sharded(DglConfig::default());
    scheduled(&db, |db| {
        seed(db, &[REGION_A, REGION_B, REGION_C]);
        let t1 = scanner_of(db, REGION_A);
        let t2 = scanner_of(db, REGION_B);
        let t3 = scanner_of(db, REGION_C);
        // T2 → T3 on shard 3, T3 → T1 on shard 1, then T1 → T2 on shard 2
        // closes the ring. The youngest, T3, parked two shards away from
        // the closing request, is the one victim; T2 then proceeds and
        // commits, which lets T1 through.
        let (r1, r2, r3) = std::thread::scope(|s| {
            let h2 = s.spawn(move || {
                let r = db.insert(t2, ObjectId(102), rect_of(REGION_C));
                r.and_then(|()| db.commit(t2))
            });
            parked(db, 3, 1);
            let h3 = s.spawn(move || db.insert(t3, ObjectId(103), rect_of(REGION_A)));
            parked(db, 1, 1);
            let r1 = db.insert(t1, ObjectId(101), rect_of(REGION_B));
            (r1, h2.join().expect("T2"), h3.join().expect("T3"))
        });
        assert_eq!(r3, Err(TxnError::Deadlock), "youngest member loses");
        assert_eq!((r1, r2), (Ok(()), Ok(())), "everyone else proceeds");
        db.commit(t1).unwrap();

        let obs = db.obs_snapshot();
        assert_eq!(obs.ctr(Ctr::LockDeadlocks), 1, "one cycle, one victim");
        assert_eq!(obs.ctr(Ctr::LockTimeouts), 0);
        db.validate().unwrap();
    });
}

#[test]
fn cycle_through_a_system_operation_spares_it() {
    // Shard 1 gets a height-2 tree: two diagonal clusters in its cell, the
    // space between them belonging to ext(root).
    let db = sharded(DglConfig {
        rtree: RTreeConfig::with_fanout(4),
        ..DglConfig::default()
    });
    let cluster = |i: u64, (x, y): (f64, f64)| {
        let o = 0.012 * i as f64;
        Rect2::new([x + o, y + o], [x + o + 0.02, y + o + 0.02])
    };
    // The top corner of the upper cluster: removing it shrinks its leaf
    // granule, which changes ext(root).
    let corner = (ObjectId(19), cluster(4, (0.85, 0.35)));
    scheduled(&db, move |db| {
        seed(db, &[REGION_B]);
        let setup = db.begin();
        for i in 0..5 {
            db.insert(setup, ObjectId(10 + i), cluster(i, (0.55, 0.05)))
                .unwrap();
            db.insert(setup, ObjectId(15 + i), cluster(i, (0.85, 0.35)))
                .unwrap();
        }
        db.commit(setup).unwrap();
        let shard = &db.shard_handles()[1];
        assert!(
            shard.with_tree(|t| t.height()) >= 2,
            "need a real ext(root)"
        );

        // V (older) holds region B. U (younger) scans the empty middle of
        // shard 1: commit S on ext(root) alone.
        let v = scanner_of(db, REGION_B);
        let u = db.begin();
        assert!(db.read_scan(u, around(0.75, 0.25)).unwrap().is_empty());
        let d = db.begin();
        assert!(db.delete(d, corner.0, corner.1).unwrap());

        let (rd, rv, ru) = std::thread::scope(|s| {
            // D commits on a thread of its own: `commit` releases D's
            // locks, then runs the corner's physical removal inline. The
            // system operation takes a short IX on the corner's leaf
            // granule, then parks behind U for the short SIX on
            // ext(root). system → U.
            let hd = s.spawn(move || db.commit(d));
            parked(db, 1, 1);
            // V scans across the outer edge of the corner object: S on
            // its leaf granule (the system operation holds IX there) and
            // on ext(root) (queued behind the system operation's SIX).
            // Whichever it asks for first, V → system.
            let hv = s.spawn(move || db.read_scan(v, Rect2::new([0.91, 0.41], [0.93, 0.43])));
            parked(db, 1, 2);
            // U inserts into region B behind V's S: U → V closes the
            // cycle system → U → V → system. The system operation cannot
            // be rolled back; of the two user members the younger, U,
            // loses — which releases ext(root), lets the system operation
            // finish, and with it V's scan.
            let ru = db.insert(u, ObjectId(104), rect_of(REGION_B));
            (hd.join().expect("D"), hv.join().expect("V"), ru)
        });
        assert!(u > v);
        assert_eq!(ru, Err(TxnError::Deadlock), "the younger user member");
        assert!(rv.expect("V's scan completes").is_empty(), "corner is gone");
        assert_eq!(rd, Ok(()), "D's commit returns once its deletion ran");
        db.commit(v).unwrap();
        db.quiesce().unwrap();

        let obs = db.obs_snapshot();
        assert_eq!(obs.ctr(Ctr::MaintCompleted), 1, "the system operation ran");
        assert_eq!(obs.ctr(Ctr::LockDeadlocks), 1);
        assert_eq!(obs.ctr(Ctr::LockTimeouts), 0);
        db.validate().unwrap();
    });
}

#[test]
fn single_shard_cycle_is_claimed_by_the_lock_manager_alone() {
    // A cycle wholly inside one shard's lock table is the same cycle to
    // the same code: one verdict.
    let db = sharded(DglConfig::default());
    scheduled(&db, |db| {
        seed(db, &[REGION_A]);
        // Both scan region A (compatible S locks on shard 1's granules),
        // then both insert into it: each IX waits behind the other's S.
        let t1 = scanner_of(db, REGION_A);
        let t2 = scanner_of(db, REGION_A);
        let (r1, r2) = crossing_inserts(db, (t1, REGION_A), (t2, REGION_A));
        assert_younger_lost(db, (t1, r1), (t2, r2));
    });
}

/// T1 pins `region` with commit-duration S locks and sits on them while
/// T2's insert waits — past the stall threshold, with no cycle anywhere.
/// The waiter reports itself: once, however long the wait goes on, and
/// nobody is aborted.
fn stalled_wait_is_flagged_once<D: TransactionalRTree + Sync>(
    db: &D,
    region: Rect2,
    obs: impl Fn() -> RegistrySnapshot,
    events: impl Fn() -> Vec<Event>,
) {
    let t1 = db.begin();
    db.read_scan(t1, region).unwrap();
    let t2 = db.begin();
    std::thread::scope(|s| {
        let h2 = s.spawn(move || db.insert(t2, ObjectId(2), region));
        wait_until(|| obs().ctr(Ctr::WatchdogStalls) == 1);
        // Twice the threshold again: a second flag would have come by now.
        std::thread::sleep(2 * dgl_lockmgr::STALL_THRESHOLD);
        db.commit(t1).expect("holder commits normally");
        h2.join()
            .expect("T2 thread")
            .expect("stalled waiter proceeds once the holder commits");
    });
    db.commit(t2).unwrap();

    let obs = obs();
    assert_eq!(obs.ctr(Ctr::WatchdogStalls), 1, "flagged, and only once");
    assert_eq!(obs.ctr(Ctr::LockDeadlocks), 0, "no cycle, no victim");
    assert_eq!(obs.ctr(Ctr::LockTimeouts), 0, "report-only: nobody aborted");
    let stalls: Vec<(u64, u64)> = (events().into_iter())
        .filter_map(|e| match e {
            Event::WatchdogStall {
                txn, wait_nanos, ..
            } => Some((txn, wait_nanos)),
            _ => None,
        })
        .collect();
    assert_eq!(stalls.len(), 1);
    assert_eq!(stalls[0].0, t2.0, "the waiter names itself");
    assert!(stalls[0].1 >= dgl_lockmgr::STALL_THRESHOLD.as_nanos() as u64);
    db.validate().unwrap();
}

#[test]
fn watchdog_flags_a_long_stall_without_aborting_anyone() {
    // A single tree: no thread but the waiter's own.
    let db = Arc::new(DglRTree::new(DglConfig::default()));
    db.obs().set_detail(true);
    let (dumped, driven) = (Arc::clone(&db), Arc::clone(&db));
    within_deadline(
        move || dumped.merged_locktable_dump(),
        move || {
            let setup = driven.begin();
            let region = rect_of(REGION_A);
            driven.insert(setup, ObjectId(1), region).unwrap();
            driven.commit(setup).unwrap();
            stalled_wait_is_flagged_once(
                &*driven,
                region,
                || driven.obs().snapshot(),
                || driven.obs().take_events(),
            );
        },
    );

    // The router: the wait is on shard 1, the reading is the merged one.
    let db = sharded(DglConfig::default());
    db.shard_handles()[1].obs().set_detail(true);
    scheduled(&db, |db| {
        seed(db, &[REGION_A]);
        stalled_wait_is_flagged_once(
            db,
            rect_of(REGION_A),
            || db.obs_snapshot(),
            || db.shard_handles()[1].obs().take_events(),
        );
    });
}

#[test]
fn commit_time_maintenance_cannot_close_a_cross_shard_cycle() {
    // Regression: the sharded router used to run each participant's
    // commit *finish* (lock release + inline deferred deletions) shard
    // by shard. A deletion dispatched on shard A while the sibling
    // participant on shard B still held its commit-duration locks could
    // wait behind scanners whose own globals were blocked on shard B —
    // a cycle routed through the committing call itself, which no
    // wait-for graph shows (no edge exists for "global G is currently
    // executing system transaction T"). The fix releases every
    // participant's locks before dispatching any maintenance, so the
    // cycle can no longer form. This contended balanced mix wedged
    // reliably under the old ordering (progress only via 10 s wait
    // timeouts); under the fix it completes quickly with zero timeout
    // verdicts — genuine cross-shard cycles are refused as deadlocks.
    let db = std::sync::Arc::new(ShardedDglRTree::new(
        DglConfig::default(),
        ShardingConfig {
            shards: 2,
            max_object_extent: 0.05,
        },
    ));
    let mix = dgl_workload::OpMix::balanced();

    // Preload committed objects so scans hold real granule locks and
    // deletes find victims (mirrors the throughput bench's setup).
    let mut stream = dgl_workload::OpStream::new(mix, 10_000, 42);
    let exec = dgl_core::TxnExecutor::new(db.as_ref(), dgl_core::RetryPolicy::default());
    let mut loaded = 0u64;
    while loaded < 1_500 {
        let mut batch = Vec::new();
        while (batch.len() as u64) < 100 {
            if let dgl_workload::Op::Insert(oid, rect) = stream.next_op() {
                batch.push((oid, rect));
            }
        }
        exec.run(|txn| {
            for &(oid, rect) in &batch {
                db.insert(txn, oid, rect)?;
            }
            Ok(())
        })
        .expect("preload batch");
        for &(oid, rect) in &batch {
            stream.committed(&dgl_workload::Op::Insert(oid, rect));
        }
        loaded += batch.len() as u64;
    }

    let started = Instant::now();
    for pass in 0..2u64 {
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let db = std::sync::Arc::clone(&db);
                s.spawn(move || {
                    let mut stream =
                        dgl_workload::OpStream::new(mix, pass * 100_000 + 8_000 + tid, 42);
                    let report = dgl_workload::drive(
                        db.as_ref(),
                        &mut stream,
                        &dgl_workload::DriveConfig {
                            txns: 250,
                            ops_per_txn: 2,
                            ..dgl_workload::DriveConfig::default()
                        },
                    );
                    assert_eq!(report.fatal, 0, "no unexpected errors");
                });
            }
        });
    }
    let elapsed = started.elapsed();

    let obs = db.obs_snapshot();
    assert_eq!(
        obs.ctr(Ctr::LockTimeouts),
        0,
        "progress must never depend on the 10 s wait-timeout backstop"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "contended mix must not wedge (took {elapsed:?})"
    );
    db.validate().unwrap();
}

#[test]
fn snapshot_scan_completes_while_a_checkpoint_holds_the_gate() {
    // A checkpoint holds the system-operation gate across its snapshot
    // write. The gate is private to system operations and checkpoints: a
    // snapshot scan — here from a thread whose transaction holds granule
    // locks — acquires only the tree latch, so it returns while the
    // checkpoint is still asleep with the gate held. (The fault registry
    // is process-global; no other test of this file reaches this site.)
    let dir = std::env::temp_dir().join(format!("dgl-gate-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = DglRTree::open(&dir, DglConfig::default()).expect("open");
    let setup = db.begin();
    db.insert(setup, ObjectId(1), rect_of(REGION_A)).unwrap();
    db.commit(setup).unwrap();

    // The checkpoint sleeps between its cut and its snapshot write, gate
    // held.
    let _slow = dgl_faults::register(
        "wal/checkpoint",
        FaultSpec::delay(Duration::from_millis(300)).nth(1),
    );
    // A writer: it holds commit-duration granule locks from here on.
    let txn = db.begin();
    db.insert(txn, ObjectId(2), rect_of(REGION_B)).unwrap();
    let ckpt_done = AtomicBool::new(false);
    let hits = std::thread::scope(|s| {
        let ckpt = s.spawn(|| {
            let r = db.checkpoint();
            ckpt_done.store(true, Ordering::SeqCst);
            r
        });
        while dgl_faults::site_stats("wal/checkpoint").map_or(0, |(_, fires)| fires) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let hits = db.begin_snapshot().read_scan(Rect2::unit());
        assert!(
            !ckpt_done.load(Ordering::SeqCst),
            "the scan must return while the checkpoint still holds the gate"
        );
        ckpt.join().expect("checkpoint thread").expect("checkpoint");
        hits
    });
    assert_eq!(hits.len(), 1, "the committed prefix at the snapshot");
    db.commit(txn).unwrap();

    let obs = db.obs();
    assert_eq!(obs.ctr(Ctr::LockDeadlocks), 0);
    assert_eq!(
        obs.ctr(Ctr::LockTimeouts),
        0,
        "nobody waited, nobody aborted"
    );
    db.validate().unwrap();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
