//! Executable replays of the paper's figures.
//!
//! Figures 1–3 of the paper are worked examples of how granule dynamics
//! would cause phantoms under naive policies. Each test reconstructs the
//! figure's situation on a live index (reading the actual leaf granule
//! BRs to position the rectangles) and asserts that the implemented
//! protocol produces the blocking the paper's corrected protocol
//! prescribes.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{dgl, ids, r};
use dgl_core::{DglRTree, InsertPolicy, ObjectId, Rect2, TransactionalRTree};

const SETTLE: Duration = Duration::from_millis(80);

/// Builds an index with two well-separated leaf granules and returns
/// their BRs (left cluster first).
fn two_granule_setup(db: &DglRTree) -> (Rect2, Rect2) {
    let t = db.begin();
    let mut oid = 0;
    for i in 0..6 {
        let o = 0.01 * f64::from(i);
        db.insert(
            t,
            ObjectId(oid),
            r([0.05 + o, 0.05 + o], [0.07 + o, 0.07 + o]),
        )
        .unwrap();
        oid += 1;
        db.insert(
            t,
            ObjectId(oid),
            r([0.75 + o, 0.75 + o], [0.77 + o, 0.77 + o]),
        )
        .unwrap();
        oid += 1;
    }
    db.commit(t).unwrap();
    let mut leaves: Vec<Rect2> = db.with_tree(|tree| {
        tree.pages()
            .filter(|(_, n)| n.is_leaf())
            .filter_map(|(_, n)| n.mbr())
            .collect()
    });
    assert!(
        leaves.len() >= 2,
        "setup must create at least two leaf granules"
    );
    leaves.sort_by(|a, b| a.lo[0].total_cmp(&b.lo[0]));
    let left = leaves[0];
    let right = *leaves.last().expect("non-empty");
    assert!(
        !left.intersects(&right),
        "clusters must separate into disjoint granules"
    );
    (left, right)
}

/// Figure 2(a): a granule growing into a scanned region must synchronize
/// with the old searcher. T1 scans R3 ⊂ (left granule); T2 inserts R4
/// spanning from the right granule into R3 — the growth would swallow part
/// of T1's scanned region, so T2 must wait for T1.
#[test]
fn figure_2a_growth_into_scanned_granule_blocks() {
    for policy in [InsertPolicy::Base, InsertPolicy::Modified] {
        let db = Arc::new(dgl(4, policy));
        let (left, right) = two_granule_setup(&db);

        // R3: strictly inside the left granule.
        let r3 = Rect2::new(
            [left.lo[0] + 0.001, left.lo[1] + 0.001],
            [left.hi[0] - 0.001, left.hi[1] - 0.001],
        );
        let t1 = db.begin();
        let before = ids(&db.read_scan(t1, r3).unwrap());

        // R4: from inside the right granule all the way into R3.
        let r4 = Rect2::new(
            [r3.lo[0] + 0.002, r3.lo[1] + 0.002],
            [right.lo[0] + 0.01, right.lo[1] + 0.01],
        );
        let landed = Arc::new(AtomicBool::new(false));
        crossbeam::scope(|s| {
            let db2 = Arc::clone(&db);
            let flag = Arc::clone(&landed);
            let writer = s.spawn(move |_| {
                let t2 = db2.begin();
                db2.insert(t2, ObjectId(1000), r4).unwrap();
                flag.store(true, Ordering::SeqCst);
                db2.commit(t2).unwrap();
            });
            std::thread::sleep(SETTLE);
            assert!(
                !landed.load(Ordering::SeqCst),
                "{policy:?}: Figure 2(a) inserter must wait for the old searcher"
            );
            // Scan unchanged while the inserter waits.
            assert_eq!(ids(&db.read_scan(t1, r3).unwrap()), before);
            db.commit(t1).unwrap();
            writer.join().unwrap();
        })
        .unwrap();
        db.validate().unwrap();
    }
}

/// Figure 2(b): an uncommitted insert must stay protected even after an
/// unrelated insert grows another granule over its region. T1 inserts R3
/// (uncommitted); T2 inserts R4 growing the other granule across R3's
/// region and commits (inserts coexist — IX is compatible with IX); T3
/// then scans the grown region: it must WAIT for T1 (else, if T1 aborted,
/// T3 would have seen R3 "disappear").
#[test]
fn figure_2b_scan_waits_for_uncommitted_insert_under_grown_granule() {
    let db = Arc::new(dgl(4, InsertPolicy::Modified));
    let (left, right) = two_granule_setup(&db);

    // T1 inserts R3 just outside the left granule, growing it slightly.
    let r3 = Rect2::new(
        [left.hi[0] + 0.01, left.lo[1]],
        [left.hi[0] + 0.03, left.lo[1] + 0.02],
    );
    let t1 = db.begin();
    db.insert(t1, ObjectId(2000), r3).unwrap();

    // T2 inserts R4 spanning from the right granule across R3's location;
    // IX-IX compatibility lets the two inserters proceed concurrently —
    // exactly the situation of Figure 2(b).
    let t2 = db.begin();
    let r4 = Rect2::new([r3.lo[0], r3.lo[1]], [right.hi[0], right.hi[1]]);
    db.insert(t2, ObjectId(2001), r4).unwrap();
    db.commit(t2).unwrap();

    // T3 scans a region covering R3's location. The region is now covered
    // by the grown granule, but T3 must still conflict with T1 (via the
    // granule that covers R3) and wait.
    let scanned = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let db2 = Arc::clone(&db);
        let flag = Arc::clone(&scanned);
        let reader = s.spawn(move |_| {
            let t3 = db2.begin();
            let hits = ids(&db2.read_scan(t3, r3).unwrap());
            flag.store(true, Ordering::SeqCst);
            db2.commit(t3).unwrap();
            hits
        });
        std::thread::sleep(SETTLE);
        assert!(
            !scanned.load(Ordering::SeqCst),
            "Figure 2(b): the scan must wait for the uncommitted insert"
        );
        // T1 aborts — its object must never have been scannable.
        db.abort(t1).unwrap();
        let seen = reader.join().unwrap();
        assert!(
            !seen.contains(&2000),
            "Figure 2(b) phantom: scan saw the aborted insert"
        );
        assert!(seen.contains(&2001), "committed R4 is visible");
    })
    .unwrap();
    db.validate().unwrap();
}

/// Figure 3: searchers scanning *uncovered* space hold S locks on external
/// granules; an insert that grows a granule into that space shrinks those
/// external granules and must therefore wait (short SIX vs commit S).
#[test]
fn figure_3_growth_into_external_granule_blocks_on_searcher() {
    let db = Arc::new(dgl(4, InsertPolicy::Modified));
    // One dense corner cluster: most of the world is uncovered space.
    let t = db.begin();
    for i in 0..14u64 {
        let o = 0.005 * i as f64;
        db.insert(
            t,
            ObjectId(i),
            r([0.02 + o, 0.02 + o], [0.04 + o, 0.04 + o]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();

    // A query far from every leaf granule (verified below).
    let q = r([0.6, 0.6], [0.7, 0.7]);
    db.with_tree(|tree| {
        for (_, n) in tree.pages().filter(|(_, n)| n.is_leaf()) {
            if let Some(mbr) = n.mbr() {
                assert!(
                    !mbr.intersects(&q),
                    "setup: query must lie in uncovered space"
                );
            }
        }
    });

    let t1 = db.begin();
    assert!(db.read_scan(t1, q).unwrap().is_empty());

    // Insert into the scanned empty region: every sound protocol must
    // block it; in granular terms the leaf granule grows into external
    // space overlapping Q, which requires a short SIX on the shrinking
    // external granule — conflicting with T1's S.
    let landed = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let db2 = Arc::clone(&db);
        let flag = Arc::clone(&landed);
        let writer = s.spawn(move |_| {
            let t2 = db2.begin();
            db2.insert(t2, ObjectId(3000), r([0.62, 0.62], [0.64, 0.64]))
                .unwrap();
            flag.store(true, Ordering::SeqCst);
            db2.commit(t2).unwrap();
        });
        std::thread::sleep(SETTLE);
        assert!(
            !landed.load(Ordering::SeqCst),
            "Figure 3: growth into scanned external space must wait"
        );
        assert!(
            db.read_scan(t1, q).unwrap().is_empty(),
            "still empty for T1"
        );
        db.commit(t1).unwrap();
        writer.join().unwrap();
    })
    .unwrap();

    let t3 = db.begin();
    assert_eq!(ids(&db.read_scan(t3, q).unwrap()), vec![3000]);
    db.commit(t3).unwrap();
    db.validate().unwrap();
}

/// Figure 1 companion: the rejected single-extra-granule design is what
/// makes *disjoint* operations in uncovered space conflict; the per-node
/// external granules let them proceed. Two scans plus one insert, all in
/// pairwise-disjoint uncovered regions under DIFFERENT subtrees, must not
/// block each other.
#[test]
fn figure_1_disjoint_ops_in_uncovered_space_are_concurrent() {
    let db = Arc::new(dgl(3, InsertPolicy::Modified));
    // Two clusters so the tree has at least two subtrees whose spaces
    // carve the world into separate external granules.
    let t = db.begin();
    let mut oid = 0u64;
    for i in 0..8 {
        let o = 0.008 * f64::from(i);
        db.insert(
            t,
            ObjectId(oid),
            r([0.05 + o, 0.05 + o], [0.06 + o, 0.06 + o]),
        )
        .unwrap();
        oid += 1;
        db.insert(
            t,
            ObjectId(oid),
            r([0.9 + o / 2.0, 0.9], [0.91 + o / 2.0, 0.91]),
        )
        .unwrap();
        oid += 1;
    }
    db.commit(t).unwrap();

    // T1 scans near the left cluster (inside its subtree's space but
    // outside leaf granules when possible).
    let t1 = db.begin();
    let _ = db.read_scan(t1, r([0.05, 0.05], [0.2, 0.2])).unwrap();

    // A disjoint insert near the right cluster must proceed while T1 is
    // live (under the rejected one-big-external-granule design it could
    // deadlock on the single hot granule whenever T1's scan touched
    // uncovered space).
    let landed = Arc::new(AtomicBool::new(false));
    crossbeam::scope(|s| {
        let db2 = Arc::clone(&db);
        let flag = Arc::clone(&landed);
        let writer = s.spawn(move |_| {
            let t2 = db2.begin();
            db2.insert(t2, ObjectId(4000), r([0.905, 0.902], [0.915, 0.908]))
                .unwrap();
            flag.store(true, Ordering::SeqCst);
            db2.commit(t2).unwrap();
        });
        std::thread::sleep(SETTLE);
        assert!(
            landed.load(Ordering::SeqCst),
            "disjoint write must not block on a scan in another subtree"
        );
        writer.join().unwrap();
        db.commit(t1).unwrap();
    })
    .unwrap();
    db.validate().unwrap();
}
