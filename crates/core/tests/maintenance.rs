//! Background maintenance (§3.7 off the commit path): crash recovery
//! through `from_snapshot`, observable deferral of physical deletions,
//! `quiesce` draining under concurrent load, and phantom protection /
//! Table 3 conformance with the worker enabled.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{
    dgl_background, grants, ids, lock_config, r, traced, wait_until, within_deadline, RectGen,
};
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, MaintenanceConfig, MaintenanceMode, ObjectId, Rect2,
    TransactionalRTree, TxnError, TxnId,
};
use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockManagerConfig,
    LockMode::{IX, SIX, X},
};
use dgl_obs::Ctr;
use dgl_rtree::image;
use dgl_rtree::{RTree2, RTreeConfig};

/// Long enough for a thread to reach its blocking lock request.
const SETTLE: Duration = Duration::from_millis(60);

fn snapshot_config(mode: MaintenanceMode) -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        lock: lock_config(5_000),
        maintenance: MaintenanceConfig {
            mode,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A crash image: objects committed, some deletions committed (tombstones
/// set) but never physically applied, round-tripped through the
/// tree image. Recovery must finish those deletions before the
/// first user transaction — in both maintenance modes.
#[test]
fn recovery_applies_pending_deletions_before_first_txn() {
    for mode in [MaintenanceMode::Inline, MaintenanceMode::Background] {
        let mut tree = RTree2::new(RTreeConfig::with_fanout(6), Rect2::unit());
        let mut rects = Vec::new();
        for i in 0..40u64 {
            let x = 0.02 * i as f64;
            let rect = r([x, x * 0.5], [x + 0.015, x * 0.5 + 0.015]);
            tree.insert(ObjectId(i), rect);
            rects.push((ObjectId(i), rect));
        }
        let doomed = [3u64, 11, 19, 27, 35];
        for &i in &doomed {
            let (oid, rect) = rects[i as usize];
            assert!(tree.set_tombstone(oid, rect, 99), "tombstone target exists");
        }
        let restored = image::decode(&image::encode(&tree)).expect("image decodes");

        let db =
            DglRTree::from_snapshot(restored, snapshot_config(mode)).expect("snapshot recovers");
        // `from_snapshot` drains the maintenance queue before returning,
        // so the tombstoned entries are already physically gone.
        assert_eq!(db.len(), 35, "{mode:?}: pending deletions applied");
        let s = db.obs().snapshot();
        assert_eq!(
            (s.ctr(Ctr::MaintEnqueued), s.ctr(Ctr::MaintCompleted)),
            (5, 5),
            "{mode:?}: every tombstone fed the maintenance queue"
        );
        db.validate().unwrap_or_else(|e| panic!("{mode:?}: {e}"));

        let txn = db.begin();
        let seen = ids(&db.read_scan(txn, Rect2::unit()).unwrap());
        for &i in &doomed {
            assert!(!seen.contains(&i), "{mode:?}: {i} still visible");
        }
        // The freed ids are insertable again — recovery also released the
        // payload-table reservations.
        assert_eq!(
            db.insert(txn, ObjectId(11), r([0.5, 0.1], [0.52, 0.12])),
            Ok(()),
            "{mode:?}"
        );
        db.commit(txn).unwrap();
    }
}

/// A snapshot with tombstones *plus* fresh deferred deletions queued
/// right after `from_snapshot` returns: the queue is non-empty again
/// and an explicit `quiesce()` must drain it cleanly — the recovery
/// path and the steady-state path share one worker and one backlog
/// accounting.
#[test]
fn from_snapshot_then_new_deferrals_drain_through_quiesce() {
    let mut tree = RTree2::new(RTreeConfig::with_fanout(6), Rect2::unit());
    let mut rects = Vec::new();
    for i in 0..30u64 {
        let x = 0.025 * i as f64;
        let rect = r([x, x * 0.6], [x + 0.02, x * 0.6 + 0.02]);
        tree.insert(ObjectId(i), rect);
        rects.push((ObjectId(i), rect));
    }
    for &i in &[2u64, 9, 16] {
        let (oid, rect) = rects[i as usize];
        assert!(tree.set_tombstone(oid, rect, 7), "tombstone target exists");
    }
    let restored = image::decode(&image::encode(&tree)).expect("image decodes");
    let db = DglRTree::from_snapshot(restored, snapshot_config(MaintenanceMode::Background))
        .expect("snapshot recovers");
    assert_eq!(db.len(), 27, "snapshot tombstones drained at construction");

    // Refill the deferred queue through the normal path.
    for &i in &[5u64, 12, 19, 26] {
        let (oid, rect) = rects[i as usize];
        let txn = db.begin();
        assert_eq!(db.delete(txn, oid, rect), Ok(true));
        db.commit(txn).unwrap();
    }
    db.quiesce().expect("quiesce drains the refilled queue");
    let s = db.obs().snapshot();
    assert_eq!(db.maintenance_backlog(), 0);
    assert_eq!(
        (s.ctr(Ctr::MaintEnqueued), s.ctr(Ctr::MaintCompleted)),
        (7, 7),
        "3 snapshot tombstones + 4 fresh deletes, all completed"
    );
    assert_eq!(db.len(), 23);
    db.validate().unwrap();
}

/// A scan of the empty middle between [`two_corner_clusters`]: commit S
/// on ext(root) only.
const EMPTY_MIDDLE: Rect2 = Rect2 {
    lo: [0.45, 0.45],
    hi: [0.55, 0.55],
};

/// Two corner clusters -> a height-2 tree whose empty middle belongs to
/// ext(root). Returns the victim: the extreme corner of the top-right
/// cluster, so its removal shrinks its leaf granule and changes ext(root).
fn two_corner_clusters(db: &DglRTree) -> (ObjectId, Rect2) {
    let t = db.begin();
    for i in 0..5u64 {
        let o = 0.012 * i as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.05 + o, 0.05 + o], [0.07 + o, 0.07 + o]),
        )
        .unwrap();
    }
    for i in 5..10u64 {
        let o = 0.012 * (i - 5) as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.85 + o, 0.85 + o], [0.87 + o, 0.87 + o]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();
    assert!(db.with_tree(|t| t.height()) >= 2, "need a real ext(root)");
    (ObjectId(9), r([0.898, 0.898], [0.918, 0.918]))
}

/// In background mode `commit` must NOT execute the physical deletion
/// inline. A scanner parked on ext(root) blocks the system operation (its
/// BR adjustment needs short SIX there) without blocking the logical
/// delete, making the deferral window observable and deterministic: after
/// the deleting transaction commits, the tombstone is still physically
/// present, the backlog is nonzero, and the id is still reserved. Once
/// the scanner commits, `quiesce` completes the deletion.
#[test]
fn background_commit_defers_physical_deletion() {
    let db = dgl_background(4, InsertPolicy::Modified);
    let (victim, vrect) = two_corner_clusters(&db);

    // Scanner on the empty middle: commit S on ext(root) only.
    let scanner = db.begin();
    assert!(db.read_scan(scanner, EMPTY_MIDDLE).unwrap().is_empty());

    let t2 = db.begin();
    assert!(db.delete(t2, victim, vrect).unwrap());
    db.commit(t2).unwrap(); // enqueues; must not block on the scanner

    std::thread::sleep(SETTLE);
    assert_eq!(
        db.maintenance_backlog(),
        1,
        "physical deletion pending behind the scanner"
    );
    assert_eq!(db.len(), 10, "tombstone still physically present");
    let probe = db.begin();
    assert_eq!(
        db.insert(probe, victim, vrect),
        Err(TxnError::DuplicateObject),
        "id stays reserved while the deletion is pending"
    );
    db.abort(probe).unwrap();

    db.commit(scanner).unwrap();
    db.quiesce().expect("quiesce");
    let s = db.obs().snapshot();
    assert_eq!(
        (s.ctr(Ctr::MaintEnqueued), s.ctr(Ctr::MaintCompleted)),
        (1, 1)
    );
    assert_eq!(db.len(), 9, "deletion applied after quiesce");
    db.validate().unwrap();
    let t3 = db.begin();
    assert_eq!(
        db.insert(t3, victim, vrect),
        Ok(()),
        "id free once the deletion is applied"
    );
    db.commit(t3).unwrap();
}

/// The one-driver wedge (ROADMAP 0(a)): a delete is committed; the
/// worker's system operation takes the gate and queues its SIX on
/// ext(root) behind the driver's open scanner; the driver reads through a
/// snapshot. When snapshot reads took the gate shared, a snapshot scan
/// parked behind the worker, which was waiting for the driver's own
/// lock — one thread, asleep for good, outside every lock table. Same
/// shape as [`background_commit_defers_physical_deletion`], so the order
/// is given by the lock conflict itself, not by a delay.
#[test]
fn snapshot_reads_by_a_lock_holder_cannot_wedge_behind_the_worker() {
    let db = Arc::new(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(4),
        maintenance: MaintenanceConfig {
            mode: MaintenanceMode::Background,
            ..Default::default()
        },
        ..Default::default()
    }));
    let (victim, vrect) = two_corner_clusters(&db);
    let dump = {
        let db = Arc::clone(&db);
        move || db.merged_locktable_dump()
    };
    let driver = Arc::clone(&db);
    within_deadline(dump, move || {
        let db = driver;
        let scanner = db.begin();
        assert!(db.read_scan(scanner, EMPTY_MIDDLE).unwrap().is_empty());
        let t2 = db.begin();
        assert!(db.delete(t2, victim, vrect).unwrap());
        db.commit(t2).unwrap();
        // The worker holds the gate and waits for the scanner's lock.
        wait_until(|| db.lock_manager().waiter_count() == 1);
        assert_eq!(
            db.begin_snapshot().read_single(victim),
            None,
            "the delete is committed and stamped"
        );
        assert_eq!(db.begin_snapshot().read_single(ObjectId(0)), Some(1));
        assert_eq!(
            ids(&db.begin_snapshot().read_scan(Rect2::unit())),
            (0..9).collect::<Vec<u64>>()
        );
        db.commit(scanner).unwrap();
        db.quiesce().expect("quiesce");
    });
    assert_eq!(db.obs().ctr(Ctr::LockTimeouts), 0);
    assert_eq!(db.len(), 9, "deletion applied after quiesce");
    db.validate().unwrap();
}

/// Transaction ids are sequential and shared with the worker's *system*
/// transactions, so a caller can guess (or typo) the id of a live system
/// operation. Every user-facing call on such an id must report
/// `NotActive` — before the guard, `abort` on the worker's id rolled the
/// system transaction back underneath it, panicking the worker and
/// wedging `quiesce` forever.
#[test]
fn user_operations_cannot_touch_system_transactions() {
    // Same blocked-deletion setup as above: a scanner on ext(root) keeps
    // the worker's system transaction alive (blocked, but begun).
    let db = dgl_background(4, InsertPolicy::Modified);
    let t = db.begin();
    for i in 0..5u64 {
        let o = 0.012 * i as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.05 + o, 0.05 + o], [0.07 + o, 0.07 + o]),
        )
        .unwrap();
    }
    for i in 5..10u64 {
        let o = 0.012 * (i - 5) as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.85 + o, 0.85 + o], [0.87 + o, 0.87 + o]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();
    let scanner = db.begin();
    assert!(db
        .read_scan(scanner, r([0.45, 0.45], [0.55, 0.55]))
        .unwrap()
        .is_empty());
    let t2 = db.begin();
    assert!(db
        .delete(t2, ObjectId(9), r([0.898, 0.898], [0.918, 0.918]))
        .unwrap());
    db.commit(t2).unwrap();
    std::thread::sleep(SETTLE);
    assert_eq!(db.maintenance_backlog(), 1);

    // Probe every plausible id with user-facing calls. Finished user
    // transactions and the live system transaction alike must answer
    // `NotActive` — none may be drivable from here.
    for id in 1..=16 {
        let txn = TxnId(id);
        if txn == scanner {
            continue;
        }
        assert_eq!(db.abort(txn), Err(TxnError::NotActive), "abort T{id}");
        assert!(
            matches!(db.read_scan(txn, Rect2::unit()), Err(TxnError::NotActive)),
            "read_scan T{id}"
        );
    }

    // The worker survived the probing: the deletion still completes.
    db.commit(scanner).unwrap();
    db.quiesce().expect("quiesce");
    let s = db.obs().snapshot();
    assert_eq!(
        (s.ctr(Ctr::MaintEnqueued), s.ctr(Ctr::MaintCompleted)),
        (1, 1)
    );
    assert_eq!(db.len(), 9);
    db.validate().unwrap();
}

/// `quiesce` drains the queue while writers keep refilling it: after the
/// workload ends and a final quiesce, nothing is pending, the ledger
/// matches, and the tree validates.
#[test]
fn quiesce_drains_background_queue_under_load() {
    const THREADS: u64 = 4;
    const OBJECTS: u64 = 30;
    let db = dgl_background(6, InsertPolicy::Modified);
    crossbeam::scope(|s| {
        for tid in 0..THREADS {
            let db = &db;
            s.spawn(move |_| {
                let mut gen = RectGen::new(0xC0FFEE ^ (tid + 1));
                let base = tid * 1_000_000;
                for i in 0..OBJECTS {
                    let oid = ObjectId(base + i);
                    let rect = gen.rect(0.03);
                    // Retry loop: a Deadlock/Timeout error means the txn
                    // was rolled back — start a fresh one.
                    loop {
                        let t = db.begin();
                        match db.insert(t, oid, rect) {
                            Ok(()) => {
                                db.commit(t).unwrap();
                                break;
                            }
                            Err(e) => assert!(
                                matches!(e, TxnError::Deadlock | TxnError::Timeout),
                                "unexpected insert error: {e:?}"
                            ),
                        }
                    }
                    // Delete every other object right back, feeding the
                    // maintenance queue continuously.
                    if i % 2 == 1 {
                        loop {
                            let t = db.begin();
                            match db.delete(t, oid, rect) {
                                Ok(existed) => {
                                    assert!(existed, "just committed it");
                                    db.commit(t).unwrap();
                                    break;
                                }
                                Err(e) => assert!(
                                    matches!(e, TxnError::Deadlock | TxnError::Timeout),
                                    "unexpected delete error: {e:?}"
                                ),
                            }
                        }
                    }
                }
            });
        }
        // Interleave quiesce calls with the writers.
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(5));
            db.quiesce().expect("quiesce");
        }
    })
    .unwrap();

    db.quiesce().expect("quiesce");
    let s = db.obs().snapshot();
    assert_eq!(
        s.ctr(Ctr::MaintEnqueued),
        s.ctr(Ctr::MaintCompleted),
        "queue fully drained"
    );
    assert_eq!(db.maintenance_backlog(), 0);
    assert_eq!(s.ctr(Ctr::MaintEnqueued), THREADS * OBJECTS / 2);
    assert_eq!(db.len() as u64, THREADS * OBJECTS / 2);
    db.validate().unwrap();
}

/// Insert-phantom protection is unchanged by the background schedule: a
/// scan blocks conflicting inserts until the scanner commits.
#[test]
fn background_mode_blocks_insert_phantoms() {
    let db = dgl_background(4, InsertPolicy::Modified);
    let region = r([0.4, 0.4], [0.6, 0.6]);
    let t = db.begin();
    for i in 0..6u64 {
        let o = 0.015 * i as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.45 + o, 0.45 + o], [0.47 + o, 0.47 + o]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();

    let scanner = db.begin();
    let first = ids(&db.read_scan(scanner, region).unwrap());
    let decided = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let flag = Arc::clone(&decided);
        let db2 = &db;
        let contender = s.spawn(move |_| {
            let t = db2.begin();
            let res = db2.insert(t, ObjectId(100), r([0.5, 0.5], [0.51, 0.51]));
            flag.store(true, Ordering::SeqCst);
            db2.commit(t).unwrap();
            res
        });
        std::thread::sleep(SETTLE);
        assert!(
            !decided.load(Ordering::SeqCst),
            "insert into a scanned region must wait for the scanner"
        );
        assert_eq!(
            ids(&db.read_scan(scanner, region).unwrap()),
            first,
            "scan repeatable while the insert waits"
        );
        db.commit(scanner).unwrap();
        assert_eq!(contender.join().unwrap(), Ok(()));
    })
    .unwrap();

    let t = db.begin();
    assert!(ids(&db.read_scan(t, region).unwrap()).contains(&100));
    db.commit(t).unwrap();
    db.validate().unwrap();
}

/// Delete-phantom protection likewise: a logical delete of a scanned
/// object waits for the scanner, and the eventual physical removal on the
/// worker never surfaces to a later scan.
#[test]
fn background_mode_blocks_delete_phantoms() {
    let db = dgl_background(4, InsertPolicy::Modified);
    let region = r([0.4, 0.4], [0.6, 0.6]);
    let vrect = r([0.5, 0.5], [0.52, 0.52]);
    let t = db.begin();
    db.insert(t, ObjectId(1), vrect).unwrap();
    db.insert(t, ObjectId(2), r([0.42, 0.42], [0.44, 0.44]))
        .unwrap();
    db.commit(t).unwrap();

    let scanner = db.begin();
    let first = ids(&db.read_scan(scanner, region).unwrap());
    assert_eq!(first, vec![1, 2]);
    let decided = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let flag = Arc::clone(&decided);
        let db2 = &db;
        let contender = s.spawn(move |_| {
            let t = db2.begin();
            let res = db2.delete(t, ObjectId(1), vrect);
            flag.store(true, Ordering::SeqCst);
            db2.commit(t).unwrap();
            res
        });
        std::thread::sleep(SETTLE);
        assert!(
            !decided.load(Ordering::SeqCst),
            "delete of a scanned object must wait for the scanner"
        );
        assert_eq!(
            ids(&db.read_scan(scanner, region).unwrap()),
            first,
            "scan repeatable while the delete waits"
        );
        db.commit(scanner).unwrap();
        assert_eq!(contender.join().unwrap(), Ok(true));
    })
    .unwrap();

    db.quiesce().expect("quiesce");
    let t = db.begin();
    assert_eq!(ids(&db.read_scan(t, region).unwrap()), vec![2]);
    db.commit(t).unwrap();
    assert_eq!(db.len(), 1);
    db.validate().unwrap();
}

/// Table 3 conformance with the background schedule: the logical delete
/// takes exactly commit IX on the granule + commit X on the object, and
/// the system operation (now on the worker thread) takes only short
/// IX/SIX granule locks — same discipline as inline mode.
#[test]
fn background_deferred_delete_takes_short_granule_locks() {
    let db = traced(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(8),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
            ..Default::default()
        },
        maintenance: MaintenanceConfig {
            mode: MaintenanceMode::Background,
            ..Default::default()
        },
        ..Default::default()
    }));
    let rect = r([0.2, 0.2], [0.25, 0.25]);
    let t = db.begin();
    db.insert(t, ObjectId(1), rect).unwrap();
    db.insert(t, ObjectId(2), r([0.22, 0.22], [0.27, 0.27]))
        .unwrap();
    db.commit(t).unwrap();
    db.quiesce().expect("quiesce");
    let _ = db.obs().take_events();

    let t = db.begin();
    assert!(db.delete(t, ObjectId(1), rect).unwrap());
    assert_eq!(
        grants(&db),
        vec![(false, X, Commit), (true, IX, Commit)],
        "logical delete: exactly commit IX on g + commit X on object"
    );
    db.commit(t).unwrap();
    db.quiesce().expect("quiesce"); // the system operation ran on the worker
    let deferred = grants(&db);
    assert!(!deferred.is_empty(), "system operation left a lock trace");
    assert!(
        deferred.iter().all(|(p, _, d)| *p && *d == Short),
        "deferred delete takes only short granule locks: {deferred:?}"
    );
    assert!(
        deferred.iter().all(|(_, m, _)| *m == IX || *m == SIX),
        "deferred delete modes are IX / SIX: {deferred:?}"
    );
}
