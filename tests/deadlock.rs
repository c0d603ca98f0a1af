//! Deterministic cross-shard deadlock resolution.
//!
//! A cycle whose edges live on two different shards is invisible to
//! each shard's own lock-manager detector: shard A sees T1 → T2, shard
//! B sees T2 → T1, neither sees a cycle. The historical remedy — a
//! tight per-shard wait timeout — resolved the cycle by aborting
//! *somebody* with `TxnError::Timeout`, and aborted plenty of innocent
//! waiters along the way. The router's global detector unions the
//! per-shard wait-for graphs (collapsing a global transaction's
//! participants into one node) and wounds exactly one victim with a
//! proper `TxnError::Deadlock` verdict.
//!
//! These tests build the classic crossing-lock-order deadlock over the
//! public API and assert the contract: exactly one `Deadlock` victim,
//! zero `Timeout` aborts, survivor commits — and pin the rest of the
//! cycle-breaking policy around it: a cycle inside one shard is its lock
//! manager's alone, the wait timeout backs the detector thread up, and
//! the watchdog reports long lock waits without aborting anyone, and the
//! one thing that is not a lock — the system-operation gate — is something
//! no reader can wait on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dgl_core::{
    DglConfig, DglRTree, Rect2, ShardedDglRTree, ShardingConfig, TransactionalRTree, TxnError,
};
use dgl_faults::FaultSpec;
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::Ctr;
use dgl_rtree::ObjectId;

/// The fault registry is process-global and two tests here arm it (one
/// switches every detector pass off): the tests of this file run one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// Small rectangle centered on (cx, cy) — routes by its center cell.
fn around(cx: f64, cy: f64) -> Rect2 {
    Rect2::new([cx - 0.01, cy - 0.01], [cx + 0.01, cy + 0.01])
}

/// Four shards over the unit world: a 2×2 grid, cell (1,0) → shard 1,
/// cell (0,1) → shard 2. Region A lives on shard 1, region B on shard
/// 2, and neither scan below touches the other's cell (the overflow
/// shard 0 is consulted by both scans, but stays empty and S-locked —
/// no conflict).
fn sharded() -> ShardedDglRTree {
    ShardedDglRTree::new(
        DglConfig::default(),
        ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        },
    )
}

const REGION_A: (f64, f64) = (0.75, 0.25); // shard 1
const REGION_B: (f64, f64) = (0.25, 0.75); // shard 2

type Verdict = Result<(), TxnError>;

/// T1 inserts object 3 into region `into1` on a thread of its own; once it
/// has had time to park, T2 inserts object 4 into `into2` here — so the
/// two lock orders genuinely cross.
fn crossing_inserts(
    db: &ShardedDglRTree,
    (t1, into1): (dgl_core::TxnId, (f64, f64)),
    (t2, into2): (dgl_core::TxnId, (f64, f64)),
) -> (Verdict, Verdict) {
    std::thread::scope(|s| {
        let h1 = s.spawn(move || db.insert(t1, ObjectId(3), around(into1.0, into1.1)));
        std::thread::sleep(Duration::from_millis(20));
        let r2 = db.insert(t2, ObjectId(4), around(into2.0, into2.1));
        (h1.join().expect("T1 thread"), r2)
    })
}

#[test]
fn cross_shard_cycle_wounds_one_victim_with_deadlock_not_timeout() {
    let _serial = serial();
    let db = sharded();

    // Committed seed objects so the scans hold real granule locks.
    let setup = db.begin();
    db.insert(setup, ObjectId(1), around(REGION_A.0, REGION_A.1))
        .unwrap();
    db.insert(setup, ObjectId(2), around(REGION_B.0, REGION_B.1))
        .unwrap();
    db.commit(setup).unwrap();

    // T1 scans region A (commit-duration S granule locks on shard 1),
    // T2 scans region B (same on shard 2).
    let t1 = db.begin();
    let t2 = db.begin();
    assert!(t2.0 > t1.0, "global ids are begin-ordered");
    let hits = db.read_scan(t1, around(REGION_A.0, REGION_A.1)).unwrap();
    assert_eq!(hits.len(), 1);
    let hits = db.read_scan(t2, around(REGION_B.0, REGION_B.1)).unwrap();
    assert_eq!(hits.len(), 1);

    // Crossing inserts: T1 into B (blocks behind T2's S on shard 2),
    // T2 into A (blocks behind T1's S on shard 1). Classic distributed
    // deadlock — no single shard ever sees the cycle.
    let started = Instant::now();
    let (r1, r2) = crossing_inserts(&db, (t1, REGION_B), (t2, REGION_A));
    let elapsed = started.elapsed();

    // Exactly one victim, wounded with Deadlock — and fast: the
    // detector pass cadence is milliseconds, not a timeout backstop.
    let deadlocks = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(TxnError::Deadlock)))
        .count();
    assert_eq!(deadlocks, 1, "exactly one victim: r1={r1:?} r2={r2:?}");
    assert!(
        !matches!(r1, Err(TxnError::Timeout)) && !matches!(r2, Err(TxnError::Timeout)),
        "no spurious timeout aborts: r1={r1:?} r2={r2:?}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "wound must beat the 10 s lock-wait backstop (took {elapsed:?})"
    );
    // Victim selection is deterministic: the youngest global loses.
    assert!(r1.is_ok(), "older transaction survives");
    assert_eq!(r2, Err(TxnError::Deadlock), "younger transaction wounded");

    // Survivor commits; the victim's session is already gone (the
    // router tears it down on the deadlock verdict).
    db.commit(t1).unwrap();
    assert_eq!(db.abort(t2), Err(TxnError::NotActive));

    let obs = db.obs_snapshot();
    assert_eq!(obs.ctr(Ctr::GlobalDeadlocks), 1, "one wound recorded");
    assert_eq!(obs.ctr(Ctr::LockTimeouts), 0, "zero timeout verdicts");

    // The survivor's insert is visible; the victim's never landed.
    let check = db.begin();
    let hits = db.read_scan(check, Rect2::unit()).unwrap();
    let oids: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
    assert!(oids.contains(&3), "survivor's insert committed");
    assert!(!oids.contains(&4), "victim's insert rolled back");
    db.commit(check).unwrap();
    db.validate().unwrap();
}

#[test]
fn watchdog_flags_a_long_stall_without_aborting_anyone() {
    // A slow-but-innocent wait (no cycle) used to be converted into a
    // spurious `Timeout` abort by the old tight cross-shard wait
    // timeout. The watchdog's contract is report-only: counter, event,
    // merged lock-table dump — and the waiter keeps waiting.
    let _serial = serial();
    let dump_path = match std::env::var("DGL_WATCHDOG_DUMP") {
        Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => {
            let p = std::env::temp_dir().join(format!("dgl-watchdog-{}.txt", std::process::id()));
            let _ = std::fs::remove_file(&p);
            std::env::set_var("DGL_WATCHDOG_DUMP", &p);
            p
        }
    };

    let db = sharded();
    let setup = db.begin();
    db.insert(setup, ObjectId(1), around(REGION_A.0, REGION_A.1))
        .unwrap();
    db.commit(setup).unwrap();

    // T1 pins region A with commit-duration S locks, then sits on them
    // well past the 50ms stall threshold while T2's insert waits.
    let t1 = db.begin();
    db.read_scan(t1, around(REGION_A.0, REGION_A.1)).unwrap();
    let t2 = db.begin();
    let (r1, r2) = std::thread::scope(|s| {
        let db2 = &db;
        let h2 = s.spawn(move || db2.insert(t2, ObjectId(2), around(REGION_A.0, REGION_A.1)));
        std::thread::sleep(Duration::from_millis(200));
        let r1 = db.commit(t1);
        (r1, h2.join().expect("T2 thread"))
    });
    r1.expect("holder commits normally");
    r2.expect("stalled waiter proceeds once the holder commits");
    db.commit(t2).unwrap();

    let obs = db.obs_snapshot();
    assert!(
        obs.ctr(Ctr::WatchdogStalls) >= 1,
        "the 200ms wait must have been flagged"
    );
    assert_eq!(obs.ctr(Ctr::GlobalDeadlocks), 0, "no cycle, no victim");
    assert_eq!(obs.ctr(Ctr::LockTimeouts), 0, "report-only: nobody aborted");

    let dump = std::fs::read_to_string(&dump_path).expect("watchdog dump file written");
    assert!(
        dump.contains("=== watchdog stall"),
        "dump carries the stall header:\n{dump}"
    );
    assert!(
        dump.contains("waiting["),
        "dump carries the merged lock table:\n{dump}"
    );
    db.validate().unwrap();
}

#[test]
fn commit_time_maintenance_cannot_close_a_cross_shard_cycle() {
    // Regression: the sharded router used to run each participant's
    // commit *finish* (lock release + inline deferred deletions) shard
    // by shard. A deletion dispatched on shard A while the sibling
    // participant on shard B still held its commit-duration locks could
    // wait behind scanners whose own globals were blocked on shard B —
    // a cycle routed through the committing call itself, invisible to
    // the detector (no wait-for edge exists for "global G is currently
    // executing system transaction T"). The fix releases every
    // participant's locks before dispatching any maintenance, so the
    // cycle can no longer form. This contended balanced mix wedged
    // reliably under the old ordering (progress only via 10 s wait
    // timeouts); under the fix it completes quickly with zero timeout
    // verdicts — genuine cross-shard cycles are wounded as deadlocks.
    let _serial = serial();
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
fn single_shard_cycle_is_claimed_by_the_lock_manager_alone() {
    // The ownership rule: a cycle wholly inside one shard's lock table is
    // refused by that shard's lock manager at block time; the detector
    // thread sees the same edges and must not claim a second victim.
    let _serial = serial();
    let db = sharded();
    let setup = db.begin();
    db.insert(setup, ObjectId(1), around(REGION_A.0, REGION_A.1))
        .unwrap();
    db.commit(setup).unwrap();

    // Both scan region A (compatible S locks on shard 1's granules), then
    // both insert into it: each IX waits behind the other's S.
    let t1 = db.begin();
    let t2 = db.begin();
    db.read_scan(t1, around(REGION_A.0, REGION_A.1)).unwrap();
    db.read_scan(t2, around(REGION_A.0, REGION_A.1)).unwrap();
    let (r1, r2) = crossing_inserts(&db, (t1, REGION_A), (t2, REGION_A));

    let deadlocks = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(TxnError::Deadlock)))
        .count();
    assert_eq!(deadlocks, 1, "exactly one victim: r1={r1:?} r2={r2:?}");
    for (t, r) in [(t1, r1), (t2, r2)] {
        if r.is_ok() {
            db.commit(t).expect("survivor commits");
        }
    }
    // Let the thread run a few passes over whatever it snapshotted.
    std::thread::sleep(Duration::from_millis(20));
    let obs = db.obs_snapshot();
    assert_eq!(obs.ctr(Ctr::LockDeadlocks), 1, "the shard's verdict");
    assert_eq!(obs.ctr(Ctr::GlobalDeadlocks), 0, "not the thread's cycle");
    assert_eq!(obs.ctr(Ctr::LockTimeouts), 0);
    db.validate().unwrap();
}

#[test]
fn snapshot_scan_completes_while_a_checkpoint_holds_the_gate() {
    // A checkpoint holds the system-operation gate across its snapshot
    // write. The gate is private to system operations and checkpoints: a
    // snapshot scan — here from a thread whose transaction holds granule
    // locks — acquires only the tree latch, so it returns while the
    // checkpoint is still asleep with the gate held.
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("dgl-gate-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = DglRTree::open(&dir, DglConfig::default()).expect("open");
    let setup = db.begin();
    db.insert(setup, ObjectId(1), around(REGION_A.0, REGION_A.1))
        .unwrap();
    db.commit(setup).unwrap();

    // The checkpoint sleeps between its cut and its snapshot write, gate
    // held.
    let _slow = dgl_faults::register(
        "wal/checkpoint",
        FaultSpec::delay(Duration::from_millis(300)).nth(1),
    );
    // A writer: it holds commit-duration granule locks from here on.
    let txn = db.begin();
    db.insert(txn, ObjectId(2), around(REGION_B.0, REGION_B.1))
        .unwrap();
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

#[test]
fn detector_disabled_falls_back_to_the_wait_timeout() {
    // The one backstop backs up the one detector: with every detector pass
    // skipped (the `deadlock/detector-stall` failpoint in its error form)
    // the cross-shard cycle is only broken by the lock-wait timeout. Use a
    // short timeout so the test stays fast.
    let _serial = serial();
    let _off = dgl_faults::register("deadlock/detector-stall", FaultSpec::error());
    let db = ShardedDglRTree::new(
        DglConfig {
            lock: LockManagerConfig {
                wait_timeout: Duration::from_millis(100),
                ..LockManagerConfig::default()
            },
            ..DglConfig::default()
        },
        ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        },
    );

    let setup = db.begin();
    db.insert(setup, ObjectId(1), around(REGION_A.0, REGION_A.1))
        .unwrap();
    db.insert(setup, ObjectId(2), around(REGION_B.0, REGION_B.1))
        .unwrap();
    db.commit(setup).unwrap();

    let t1 = db.begin();
    let t2 = db.begin();
    db.read_scan(t1, around(REGION_A.0, REGION_A.1)).unwrap();
    db.read_scan(t2, around(REGION_B.0, REGION_B.1)).unwrap();

    let (r1, r2) = crossing_inserts(&db, (t1, REGION_B), (t2, REGION_A));

    // At least one side must have been timed out (both may be — that is
    // exactly the spurious-double-abort risk the detector removes).
    assert!(
        dgl_faults::site_stats("deadlock/detector-stall").is_some_and(|(_, fires)| fires > 0),
        "the detector thread ran, and skipped its passes"
    );
    assert!(
        matches!(r1, Err(TxnError::Timeout)) || matches!(r2, Err(TxnError::Timeout)),
        "timeout fallback must break the cycle: r1={r1:?} r2={r2:?}"
    );
    for (t, r) in [(t1, r1), (t2, r2)] {
        if r.is_ok() {
            db.commit(t).unwrap();
        }
    }
    db.validate().unwrap();
}
