//! Deferred physical deletions (§3.7), run by the committing thread:
//! crash recovery through `from_snapshot` finishes a snapshot's pending
//! deletions before the first user transaction, and a live system
//! operation — parked behind a scanner inside some `commit` — can be
//! neither driven nor aborted through the user-facing API.

mod common;

use std::sync::Arc;

use common::{ids, lock_config, r, wait_until, within_deadline};
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, ObjectId, Rect2, TransactionalRTree, TxnError, TxnId,
};
use dgl_obs::Ctr;
use dgl_rtree::image;
use dgl_rtree::{RTree2, RTreeConfig};

fn snapshot_config() -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        lock: lock_config(5_000),
        ..Default::default()
    }
}

/// A crash image: objects committed, some deletions committed (tombstones
/// set) but never physically applied, round-tripped through the
/// tree image. Recovery must finish those deletions before the
/// first user transaction.
#[test]
fn recovery_applies_pending_deletions_before_first_txn() {
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

    let db = DglRTree::from_snapshot(restored, snapshot_config()).expect("snapshot recovers");
    // `from_snapshot` runs the pending deletions before returning, so the
    // tombstoned entries are already physically gone.
    assert_eq!(db.len(), 35, "pending deletions applied");
    assert_eq!(
        db.obs().ctr(Ctr::MaintCompleted),
        5,
        "every tombstone ran as a system operation"
    );
    db.validate().unwrap();

    let txn = db.begin();
    let seen = ids(&db.read_scan(txn, Rect2::unit()).unwrap());
    for &i in &doomed {
        assert!(!seen.contains(&i), "{i} still visible");
    }
    // The freed ids are insertable again — recovery also released the
    // payload-table reservations.
    assert_eq!(
        db.insert(txn, ObjectId(11), r([0.5, 0.1], [0.52, 0.12])),
        Ok(())
    );
    db.commit(txn).unwrap();
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

/// Transaction ids are sequential and shared with *system* transactions,
/// so a caller can guess (or typo) the id of a live system operation.
/// Every user-facing call on such an id must report `NotActive` —
/// aborting one would roll a committed deletion back underneath the
/// commit running it.
///
/// The live system id comes from a committing thread: its deferred
/// deletion needs short SIX on ext(root) to shrink the corner's granule,
/// and parks behind the scanner this thread holds there. While it is
/// parked, the tombstone is still in the tree and the victim's id stays
/// reserved.
#[test]
fn user_operations_cannot_touch_system_transactions() {
    let db = Arc::new(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(4),
        lock: lock_config(5_000),
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
        std::thread::scope(|s| {
            let committer = s.spawn(|| db.commit(t2));
            // T2's locks are released; its system operation is begun and
            // parked behind the scanner.
            wait_until(|| db.lock_manager().waiter_count() == 1);
            assert_eq!(db.len(), 10, "tombstone still physically present");
            let probe = db.begin();
            assert_eq!(
                db.insert(probe, victim, vrect),
                Err(TxnError::DuplicateObject),
                "id stays reserved while the deletion is pending"
            );
            db.abort(probe).unwrap();

            // Probe every plausible id with user-facing calls. Finished
            // user transactions and the live system transaction alike
            // must answer `NotActive` — none may be drivable from here.
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

            // The system operation survived the probing: the deletion
            // completes once the scanner lets go.
            db.commit(scanner).unwrap();
            assert_eq!(committer.join().expect("committer"), Ok(()));
        });
    });
    assert_eq!(db.obs().ctr(Ctr::MaintCompleted), 1);
    assert_eq!(db.obs().ctr(Ctr::LockTimeouts), 0);
    assert_eq!(db.len(), 9);
    db.validate().unwrap();
}
