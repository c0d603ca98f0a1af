//! Single-transaction semantics, identical across every sound protocol:
//! CRUD, commit/abort visibility, deferred deletion, duplicate ids.

mod common;

use common::{ids, r, sound_protocols, RectGen};
use dgl_core::{ObjectId, Rect2, TransactionalRTree, TxnError};

fn for_each_protocol(f: impl Fn(&dyn TransactionalRTree)) {
    for p in sound_protocols(4) {
        f(p.as_ref());
    }
}

#[test]
fn insert_commit_read_back() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        // Visible to the inserting transaction itself.
        let hits = db.read_scan(t, Rect2::unit()).unwrap();
        assert_eq!(ids(&hits), vec![1], "{}: own insert visible", db.name());
        db.commit(t).unwrap();
        let t2 = db.begin();
        let hits = db.read_scan(t2, Rect2::unit()).unwrap();
        assert_eq!(
            ids(&hits),
            vec![1],
            "{}: committed insert visible",
            db.name()
        );
        assert_eq!(
            db.read_single(t2, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
                .unwrap(),
            Some(1),
            "{}: initial version is 1",
            db.name()
        );
        db.commit(t2).unwrap();
        db.validate().unwrap();
    });
}

#[test]
fn abort_undoes_insert() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        db.abort(t).unwrap();
        let t2 = db.begin();
        assert!(
            db.read_scan(t2, Rect2::unit()).unwrap().is_empty(),
            "{}: aborted insert must vanish",
            db.name()
        );
        assert_eq!(db.len(), 0, "{}", db.name());
        db.commit(t2).unwrap();
        db.validate().unwrap();
    });
}

#[test]
fn delete_commit_removes_object() {
    for_each_protocol(|db| {
        let rect = r([0.3, 0.3], [0.4, 0.4]);
        let t = db.begin();
        db.insert(t, ObjectId(7), rect).unwrap();
        db.commit(t).unwrap();

        let t = db.begin();
        assert!(db.delete(t, ObjectId(7), rect).unwrap(), "{}", db.name());
        // Deleter no longer sees it.
        assert!(
            db.read_scan(t, Rect2::unit()).unwrap().is_empty(),
            "{}: own delete visible to self",
            db.name()
        );
        assert_eq!(db.read_single(t, ObjectId(7), rect).unwrap(), None);
        db.commit(t).unwrap();

        let t = db.begin();
        assert!(db.read_scan(t, Rect2::unit()).unwrap().is_empty());
        db.commit(t).unwrap();
        assert_eq!(
            db.len(),
            0,
            "{}: physically removed after commit",
            db.name()
        );
        // The commit freed the id: no reservation outlives its deleter.
        let t = db.begin();
        db.insert(t, ObjectId(7), rect)
            .unwrap_or_else(|e| panic!("{}: re-insert after commit: {e}", db.name()));
        db.commit(t).unwrap();
        db.validate().unwrap();
    });
}

#[test]
fn abort_undoes_delete() {
    for_each_protocol(|db| {
        let rect = r([0.3, 0.3], [0.4, 0.4]);
        let t = db.begin();
        db.insert(t, ObjectId(7), rect).unwrap();
        db.commit(t).unwrap();

        let t = db.begin();
        assert!(db.delete(t, ObjectId(7), rect).unwrap());
        db.abort(t).unwrap();

        let t = db.begin();
        let hits = db.read_scan(t, Rect2::unit()).unwrap();
        assert_eq!(
            ids(&hits),
            vec![7],
            "{}: aborted delete restored",
            db.name()
        );
        assert_eq!(db.read_single(t, ObjectId(7), rect).unwrap(), Some(1));
        db.commit(t).unwrap();
        db.validate().unwrap();
    });
}

#[test]
fn delete_absent_returns_false() {
    for_each_protocol(|db| {
        let t = db.begin();
        assert!(!db
            .delete(t, ObjectId(9), r([0.5, 0.5], [0.6, 0.6]))
            .unwrap());
        db.commit(t).unwrap();
    });
}

#[test]
fn duplicate_insert_rejected() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        let err = db.insert(t, ObjectId(1), r([0.5, 0.5], [0.6, 0.6]));
        assert_eq!(err, Err(TxnError::DuplicateObject), "{}", db.name());
        db.commit(t).unwrap();
        // Also across transactions.
        let t = db.begin();
        let err = db.insert(t, ObjectId(1), r([0.7, 0.7], [0.8, 0.8]));
        assert_eq!(err, Err(TxnError::DuplicateObject), "{}", db.name());
        db.commit(t).unwrap();
    });
}

#[test]
fn updates_bump_versions_and_abort_restores() {
    for_each_protocol(|db| {
        let rect = r([0.2, 0.2], [0.3, 0.3]);
        let t = db.begin();
        db.insert(t, ObjectId(1), rect).unwrap();
        db.commit(t).unwrap();

        let t = db.begin();
        assert!(db.update_single(t, ObjectId(1), rect).unwrap());
        assert_eq!(db.read_single(t, ObjectId(1), rect).unwrap(), Some(2));
        db.commit(t).unwrap();

        let t = db.begin();
        assert!(db.update_single(t, ObjectId(1), rect).unwrap());
        db.abort(t).unwrap();

        let t = db.begin();
        assert_eq!(
            db.read_single(t, ObjectId(1), rect).unwrap(),
            Some(2),
            "{}: aborted update rolled back",
            db.name()
        );
        db.commit(t).unwrap();
    });
}

#[test]
fn update_scan_bumps_exactly_the_matching_objects() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        db.insert(t, ObjectId(2), r([0.15, 0.15], [0.25, 0.25]))
            .unwrap();
        db.insert(t, ObjectId(3), r([0.8, 0.8], [0.9, 0.9]))
            .unwrap();
        db.commit(t).unwrap();

        let t = db.begin();
        let hits = db.update_scan(t, r([0.0, 0.0], [0.3, 0.3])).unwrap();
        assert_eq!(ids(&hits), vec![1, 2], "{}", db.name());
        assert!(hits.iter().all(|h| h.version == 2));
        db.commit(t).unwrap();

        let t = db.begin();
        assert_eq!(
            db.read_single(t, ObjectId(3), r([0.8, 0.8], [0.9, 0.9]))
                .unwrap(),
            Some(1),
            "{}: non-matching object untouched",
            db.name()
        );
        db.commit(t).unwrap();
    });
}

#[test]
fn update_absent_object_returns_false() {
    for_each_protocol(|db| {
        let t = db.begin();
        assert!(!db
            .update_single(t, ObjectId(42), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap());
        db.commit(t).unwrap();
    });
}

#[test]
fn operations_on_finished_txn_fail() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.commit(t).unwrap();
        assert_eq!(
            db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2])),
            Err(TxnError::NotActive),
            "{}",
            db.name()
        );
        assert_eq!(db.commit(t), Err(TxnError::NotActive));
        assert_eq!(db.abort(t), Err(TxnError::NotActive));
    });
}

#[test]
fn bulk_workload_keeps_every_protocol_consistent() {
    for_each_protocol(|db| {
        let mut gen = RectGen::new(99);
        let mut live: Vec<(u64, Rect2)> = Vec::new();
        // Insert 200 objects across several transactions.
        for batch in 0..10 {
            let t = db.begin();
            for i in 0..20 {
                let oid = batch * 20 + i;
                let rect = gen.rect(0.05);
                db.insert(t, ObjectId(oid), rect).unwrap();
                live.push((oid, rect));
            }
            db.commit(t).unwrap();
        }
        // Delete half, each delete in its own transaction (exercising
        // deferred deletion and condensation under the protocol).
        let mut removed = Vec::new();
        for chunk in live.chunks(2) {
            let (oid, rect) = chunk[0];
            let t = db.begin();
            assert!(db.delete(t, ObjectId(oid), rect).unwrap());
            db.commit(t).unwrap();
            removed.push(oid);
        }
        assert_eq!(db.len(), 100, "{}", db.name());
        db.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", db.name()));
        // Survivors all present, removed all gone.
        let t = db.begin();
        let hits = db.read_scan(t, Rect2::unit()).unwrap();
        let got = ids(&hits);
        let want: Vec<u64> = live
            .iter()
            .map(|(o, _)| *o)
            .filter(|o| !removed.contains(o))
            .collect();
        let mut want = want;
        want.sort_unstable();
        assert_eq!(got, want, "{}", db.name());
        db.commit(t).unwrap();
    });
}

#[test]
fn scan_in_empty_space_returns_empty() {
    for_each_protocol(|db| {
        let t = db.begin();
        db.insert(t, ObjectId(1), r([0.1, 0.1], [0.2, 0.2]))
            .unwrap();
        db.commit(t).unwrap();
        let t = db.begin();
        assert!(db
            .read_scan(t, r([0.7, 0.7], [0.8, 0.8]))
            .unwrap()
            .is_empty());
        db.commit(t).unwrap();
    });
}

#[test]
fn interleaved_insert_delete_same_txn() {
    for_each_protocol(|db| {
        let rect = r([0.4, 0.4], [0.5, 0.5]);
        let t = db.begin();
        db.insert(t, ObjectId(5), rect).unwrap();
        assert!(db.delete(t, ObjectId(5), rect).unwrap(), "{}", db.name());
        assert!(db.read_scan(t, Rect2::unit()).unwrap().is_empty());
        db.commit(t).unwrap();
        assert_eq!(db.len(), 0, "{}", db.name());
        let t = db.begin();
        db.insert(t, ObjectId(5), rect)
            .unwrap_or_else(|e| panic!("{}: re-insert after commit: {e}", db.name()));
        db.commit(t).unwrap();
        assert_eq!(db.len(), 1, "{}", db.name());
        db.validate().unwrap();
    });
}

/// Compile-time pin of the configuration surface: `DglConfig` has six
/// fields, `LockManagerConfig` one and `RTreeConfig` two. A new field
/// breaks this pattern, so a mode cannot arrive unseen — say in the PR
/// what it forks and what deletes it again.
#[test]
fn config_field_sets_are_pinned() {
    let dgl_core::DglConfig {
        rtree,
        world: _,
        policy: _,
        lock,
        checkpoint_threshold: _,
        coarse_external_granule: _,
    } = dgl_core::DglConfig::default();
    let dgl_lockmgr::LockManagerConfig { wait_timeout: _ } = lock;
    let dgl_rtree::RTreeConfig {
        max_entries: _,
        min_entries: _,
    } = rtree;
}
