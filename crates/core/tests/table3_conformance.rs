//! Table 3 conformance: each operation of the protocol requests exactly
//! the locks the paper's Table 3 prescribes — verified against the
//! registry's `Event::LockGranted` stream.

mod common;

use std::time::Duration;

use dgl_core::{DglConfig, DglRTree, InsertPolicy, ObjectId, Rect2, TransactionalRTree};
use dgl_lockmgr::{
    LockDuration::{Commit, Short},
    LockManagerConfig,
    LockMode::{IX, S, SIX, X},
};
use dgl_obs::Res;
use dgl_pager::PageId;
use dgl_rtree::RTreeConfig;

use common::{grants, r, take_grants, traced};

fn traced_db(fanout: usize, policy: InsertPolicy) -> DglRTree {
    traced(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(fanout),
        world: Rect2::unit(),
        policy,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        },
        ..Default::default()
    }))
}

fn clear_trace(db: &DglRTree) {
    let _ = db.obs().take_events();
}

#[test]
fn insert_without_granule_change_takes_exactly_ix_g_and_x_object() {
    // Table 3 row "Insert (no split or granule change)":
    //   granule g: IX (commit);  object: X (commit);  nothing else.
    let db = traced_db(8, InsertPolicy::Modified);
    let t = db.begin();
    // Seed a granule whose BR will cover the probe insert.
    db.insert(t, ObjectId(1), r([0.1, 0.1], [0.3, 0.3]))
        .unwrap();
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    db.insert(t, ObjectId(2), r([0.15, 0.15], [0.2, 0.2]))
        .unwrap();
    let got = grants(&db);
    assert_eq!(
        got,
        vec![(false, X, Commit), (true, IX, Commit)],
        "exactly one commit IX granule lock and one commit X object lock"
    );
    db.commit(t).unwrap();
}

#[test]
fn insert_with_granule_change_adds_short_ix_and_short_six() {
    // Table 3 row "Insert (granule change)": overlapping granules and
    // minimal cover get short IX; changed external granules short SIX;
    // plus the commit IX on g and X on the object.
    let db = traced_db(8, InsertPolicy::Modified);
    let t = db.begin();
    // Two separated granules... a single leaf root tree keeps it minimal:
    // fanout 8, a few objects in one corner.
    for i in 0..3u32 {
        let o = 0.02 * f64::from(i);
        db.insert(
            t,
            ObjectId(u64::from(i)),
            r([0.1 + o, 0.1 + o], [0.12 + o, 0.12 + o]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();
    clear_trace(&db);

    // Insert outside the current leaf BR: the granule grows.
    let t = db.begin();
    db.insert(t, ObjectId(50), r([0.5, 0.5], [0.55, 0.55]))
        .unwrap();
    let got = grants(&db);
    // Single-leaf-root tree: the growing granule IS the root leaf; there
    // are no external granules, and the only overlapping granule of the
    // growth region is the root granule itself (excluded as the target).
    // So: commit IX on g + commit X on object.
    assert_eq!(got, vec![(false, X, Commit), (true, IX, Commit)]);
    db.commit(t).unwrap();
    clear_trace(&db);

    // Now force a multi-level tree and a real growth.
    let t = db.begin();
    for i in 10..40u64 {
        let o = 0.004 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1], [0.11 + o, 0.11]))
            .unwrap();
    }
    db.commit(t).unwrap();
    assert!(db.with_tree(|t| t.height()) > 1, "need a real tree");
    clear_trace(&db);

    let t = db.begin();
    // Grow some leaf into open space.
    db.insert(t, ObjectId(99), r([0.9, 0.9], [0.95, 0.95]))
        .unwrap();
    let got = grants(&db);
    // Must contain the commit IX + X pair...
    assert!(got.contains(&(true, IX, Commit)), "commit IX on g: {got:?}");
    assert!(got.contains(&(false, X, Commit)), "commit X on object");
    // ...and at least one short SIX on a changed external granule
    // (the BR adjustment propagates), with ALL short locks being IX or SIX
    // on pages.
    assert!(
        got.iter().any(|(p, m, d)| *p && *m == SIX && *d == Short),
        "short SIX on shrinking external granule: {got:?}"
    );
    for (is_page, mode, dur) in &got {
        if *dur == Short {
            assert!(*is_page, "short locks only on granules: {got:?}");
            assert!(
                *mode == IX || *mode == SIX,
                "short locks are IX (overlap) or SIX (ext): {got:?}"
            );
        }
    }
    db.commit(t).unwrap();
}

#[test]
fn base_policy_insert_locks_all_overlapping_granules() {
    // §3.3 base policy: EVERY insert acquires short IX on all granules
    // overlapping the object — even a fully covered insert.
    let db = traced_db(4, InsertPolicy::Base);
    let t = db.begin();
    for i in 0..12u64 {
        let o = 0.01 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1 + o], [0.2 + o, 0.2 + o]))
            .unwrap();
    }
    db.commit(t).unwrap();
    assert!(db.with_tree(|t| t.height()) > 1);
    clear_trace(&db);

    // This rect is covered by several overlapping leaf granules.
    let t = db.begin();
    db.insert(t, ObjectId(100), r([0.15, 0.15], [0.16, 0.16]))
        .unwrap();
    let got = grants(&db);
    let short_ix_pages = got
        .iter()
        .filter(|(p, m, d)| *p && *m == IX && *d == Short)
        .count();
    assert!(
        short_ix_pages >= 1,
        "base policy must take short IX on overlapping granules: {got:?}"
    );
    db.commit(t).unwrap();
}

#[test]
fn modified_policy_covered_insert_takes_no_extra_locks() {
    // §3.4: an insert that does not change any granule boundary takes no
    // short locks at all under the modified policy.
    let db = traced_db(4, InsertPolicy::Modified);
    let t = db.begin();
    for i in 0..12u64 {
        let o = 0.01 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1 + o], [0.2 + o, 0.2 + o]))
            .unwrap();
    }
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    db.insert(t, ObjectId(100), r([0.15, 0.15], [0.16, 0.16]))
        .unwrap();
    let got = grants(&db);
    assert!(
        got.iter().all(|(_, _, d)| *d == Commit),
        "modified policy, covered insert: no short locks, got {got:?}"
    );
    assert_eq!(
        got.iter().filter(|(p, ..)| *p).count(),
        1,
        "single granule lock"
    );
    db.commit(t).unwrap();
}

#[test]
fn insert_causing_split_takes_short_six_then_commit_ix_on_halves() {
    // Table 3 row "Insert (node split)": before the split a short SIX on
    // g; after it commit IX on g1 and g2.
    let db = traced_db(4, InsertPolicy::Modified);
    let t = db.begin();
    // Fill the root leaf exactly to capacity (fanout 4).
    for i in 0..4u64 {
        let o = 0.05 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1 + o], [0.12 + o, 0.12 + o]))
            .unwrap();
    }
    db.commit(t).unwrap();
    assert_eq!(db.with_tree(|t| t.height()), 1);
    clear_trace(&db);

    let t = db.begin();
    db.insert(t, ObjectId(10), r([0.8, 0.8], [0.85, 0.85]))
        .unwrap();
    assert!(db.with_tree(|t| t.height()) > 1, "split must have happened");
    let got = grants(&db);
    assert!(
        got.contains(&(true, SIX, Short)),
        "short SIX on the splitting granule: {got:?}"
    );
    let commit_ix_pages = got
        .iter()
        .filter(|(p, m, d)| *p && *m == IX && *d == Commit)
        .count();
    assert_eq!(commit_ix_pages, 2, "commit IX on both halves: {got:?}");
    assert!(got.contains(&(false, X, Commit)), "object X");
    db.commit(t).unwrap();
}

#[test]
fn logical_delete_takes_ix_g_and_x_object() {
    // Table 3 row "Delete (logical)".
    let db = traced_db(8, InsertPolicy::Modified);
    let rect = r([0.2, 0.2], [0.25, 0.25]);
    let t = db.begin();
    db.insert(t, ObjectId(1), rect).unwrap();
    db.insert(t, ObjectId(2), r([0.22, 0.22], [0.27, 0.27]))
        .unwrap();
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    assert!(db.delete(t, ObjectId(1), rect).unwrap());
    let got = grants(&db);
    assert_eq!(
        got,
        vec![(false, X, Commit), (true, IX, Commit)],
        "logical delete: exactly commit IX on g + commit X on object"
    );
    // Deferred deletion at commit acquires short granule locks under a
    // system transaction.
    db.commit(t).unwrap();
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

#[test]
fn delete_of_absent_object_scans_shared() {
    // §3.6: deleting a non-existent object takes commit S on all granules
    // overlapping the object, like a ReadScan.
    let db = traced_db(8, InsertPolicy::Modified);
    let t = db.begin();
    db.insert(t, ObjectId(1), r([0.1, 0.1], [0.15, 0.15]))
        .unwrap();
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    assert!(!db
        .delete(t, ObjectId(9), r([0.6, 0.6], [0.65, 0.65]))
        .unwrap());
    let got = grants(&db);
    assert!(!got.is_empty());
    assert!(
        got.iter().all(|(p, m, d)| *p && *m == S && *d == Commit),
        "absent delete: only commit S granule locks, got {got:?}"
    );
    db.commit(t).unwrap();
}

#[test]
fn read_single_takes_only_object_s() {
    // Table 3 row "ReadSingle": S on the object, nothing else.
    let db = traced_db(8, InsertPolicy::Modified);
    let rect = r([0.3, 0.3], [0.35, 0.35]);
    let t = db.begin();
    db.insert(t, ObjectId(1), rect).unwrap();
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    assert_eq!(db.read_single(t, ObjectId(1), rect).unwrap(), Some(1));
    assert_eq!(grants(&db), vec![(false, S, Commit)]);
    db.commit(t).unwrap();
}

#[test]
fn read_scan_takes_commit_s_on_overlapping_granules_only() {
    // Table 3 row "ReadScan": S on overlapping granules; no object locks.
    let db = traced_db(4, InsertPolicy::Modified);
    let t = db.begin();
    for i in 0..20u64 {
        let o = 0.02 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1], [0.12 + o, 0.12]))
            .unwrap();
    }
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    let hits = db.read_scan(t, r([0.1, 0.05], [0.3, 0.3])).unwrap();
    assert!(!hits.is_empty());
    let got = grants(&db);
    assert!(
        got.iter().all(|(p, m, d)| *p && *m == S && *d == Commit),
        "scan: only commit S granule locks, got {got:?}"
    );
    db.commit(t).unwrap();
}

#[test]
fn root_split_inherits_scanner_ext_s_onto_new_granules() {
    // Table 3 inheritance, root-split flavour: a transaction holding a
    // commit S on ext(root) — from its own earlier scan of uncovered
    // space — must inherit that S onto the external granules of BOTH
    // pages a root split creates: the new sibling and the fresh page the
    // old root's content relocates to (the stable root id becomes the new
    // one-level-higher root, which the held S keeps covering). The buggy
    // fallback re-requested ext(root) itself, leaving the relocated half
    // uncovered.
    let db = traced_db(4, InsertPolicy::Modified);
    let t = db.begin();
    for i in 0..10u64 {
        let o = 0.03 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1], [0.12 + o, 0.12]))
            .unwrap();
    }
    db.commit(t).unwrap();
    assert_eq!(db.with_tree(|t| t.height()), 2, "need a two-level tree");

    let t = db.begin();
    // Scan far from all leaf BRs: overlaps only the root's external
    // granule, leaving this transaction a commit S on ext(root).
    let hits = db.read_scan(t, r([0.7, 0.7], [0.9, 0.9])).unwrap();
    assert!(hits.is_empty());

    // Keep inserting into the crowded strip until a leaf split cascades
    // into the root; for the splitting insert, record which pages existed
    // beforehand so the fresh ones are identifiable in the trace.
    let mut split_grants = None;
    for i in 100..160u64 {
        let before: Vec<PageId> = db.with_tree(|tr| tr.pages().map(|(pid, _)| pid).collect());
        clear_trace(&db);
        let o = 0.002 * (i - 100) as f64;
        db.insert(t, ObjectId(i), r([0.2 + o, 0.1], [0.21 + o, 0.11]))
            .unwrap();
        if db.with_tree(|tr| tr.height()) > 2 {
            let fresh_s: Vec<PageId> = take_grants(&db)
                .into_iter()
                .filter_map(|grant| match grant {
                    (Res::Page(p), S, Commit) if !before.contains(&PageId(p)) => Some(PageId(p)),
                    _ => None,
                })
                .collect();
            split_grants = Some(fresh_s);
            break;
        }
    }
    let mut fresh_s = split_grants.expect("an insert must have split the root");
    fresh_s.sort_unstable();
    fresh_s.dedup();
    // The root split creates exactly one new non-leaf sibling plus the
    // relocated old-root half; both external granules inherit the S (and
    // nothing else fresh may be S-locked — the new leaf halves get IX/SIX).
    assert_eq!(
        fresh_s.len(),
        2,
        "commit S must be inherited onto exactly the two new external \
         granules (sibling + relocated root half), got {fresh_s:?}"
    );
    db.commit(t).unwrap();
    db.validate().unwrap();
}

#[test]
fn update_single_takes_ix_g_and_x_object() {
    // Table 3 row "UpdateSingle".
    let db = traced_db(8, InsertPolicy::Modified);
    let rect = r([0.3, 0.3], [0.35, 0.35]);
    let t = db.begin();
    db.insert(t, ObjectId(1), rect).unwrap();
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    assert!(db.update_single(t, ObjectId(1), rect).unwrap());
    assert_eq!(grants(&db), vec![(false, X, Commit), (true, IX, Commit)]);
    db.commit(t).unwrap();
}

#[test]
fn update_scan_takes_six_cover_s_rest_x_objects() {
    // Table 3 row "UpdateScan": SIX on the covering granules, S on the
    // remaining overlapping granules, X on updated objects.
    let db = traced_db(4, InsertPolicy::Modified);
    let t = db.begin();
    for i in 0..20u64 {
        let o = 0.02 * i as f64;
        db.insert(t, ObjectId(i), r([0.1 + o, 0.1], [0.12 + o, 0.12]))
            .unwrap();
    }
    db.commit(t).unwrap();
    clear_trace(&db);

    let t = db.begin();
    let hits = db.update_scan(t, r([0.1, 0.05], [0.3, 0.3])).unwrap();
    assert!(!hits.is_empty());
    let got = grants(&db);
    let object_locks: Vec<_> = got.iter().filter(|(p, ..)| !*p).collect();
    assert_eq!(object_locks.len(), hits.len(), "one X per updated object");
    assert!(object_locks.iter().all(|(_, m, d)| *m == X && *d == Commit));
    let page_locks: Vec<_> = got.iter().filter(|(p, ..)| *p).collect();
    assert!(!page_locks.is_empty());
    assert!(
        page_locks
            .iter()
            .all(|(_, m, d)| (*m == SIX || *m == S) && *d == Commit),
        "granule locks are commit SIX (cover) or S (rest): {got:?}"
    );
    assert!(
        page_locks.iter().any(|(_, m, _)| *m == SIX),
        "at least the covering leaf granules get SIX"
    );
    db.commit(t).unwrap();
}

#[test]
fn end_of_operation_work_does_not_grow_with_the_transaction() {
    // One 1 024-insert transaction: the lock table visits an operation's
    // end makes never exceed the short locks that operation asked for —
    // whatever the transaction has accumulated by then — so loading is
    // linear in operations per transaction.
    use common::RectGen;
    use dgl_obs::Ctr;
    let db = common::dgl(8, InsertPolicy::Modified);
    let reading = || {
        (
            db.obs().ctr(Ctr::LockReqShort),
            db.obs().ctr(Ctr::LockReleaseVisits),
        )
    };
    let mut gen = RectGen::new(17);
    let t = db.begin();
    let mut short_total = 0;
    for i in 0..1_024u64 {
        let rect = gen.rect(0.02);
        let (short, visits) = reading();
        db.insert(t, ObjectId(i), rect).unwrap();
        let (short, visits) = (reading().0 - short, reading().1 - visits);
        assert!(
            visits <= short,
            "insert {i}: {visits} release visits for {short} short requests"
        );
        short_total += short;
        if i % 64 == 0 {
            // A point read takes one commit lock and no short lock: its
            // end of operation touches nothing.
            let visits = reading().1;
            assert_eq!(db.read_single(t, ObjectId(i), rect).unwrap(), Some(1));
            assert_eq!(reading().1, visits, "point read after {i} inserts");
        }
    }
    assert!(
        short_total > 0,
        "splits and granule growth take short locks"
    );
    let held = db.lock_manager().locks_held(t) as u64;
    assert!(held >= 1_024, "an X lock per object, at least");
    let visits = reading().1;
    db.commit(t).unwrap();
    assert_eq!(reading().1 - visits, held, "commit visits each lock once");
    assert_eq!(db.lock_manager().resource_count(), 0);
}

// --- §3.7: the system operation a committed delete runs ----------------

/// Fanout 4, minimum fill 2, forty grid objects: a tree three levels deep
/// whose leaves and level-1 nodes sit at and just above minimum fill, so
/// one physical deletion can eliminate its leaf (and its parent).
fn condensing_db() -> (DglRTree, Vec<(ObjectId, Rect2)>) {
    let db = traced(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(4).with_min_entries(2),
        lock: LockManagerConfig {
            wait_timeout: Duration::from_secs(5),
        },
        ..Default::default()
    }));
    let objects: Vec<(ObjectId, Rect2)> = (0..40u64)
        .map(|i| {
            let (x, y) = (0.02 + 0.06 * (i % 7) as f64, 0.02 + 0.06 * (i / 7) as f64);
            (ObjectId(i), r([x, y], [x + 0.01, y + 0.01]))
        })
        .collect();
    let t = db.begin();
    for &(oid, rect) in &objects {
        db.insert(t, oid, rect).unwrap();
    }
    db.commit(t).unwrap();
    (db, objects)
}

/// The first object whose physical deletion underflows its leaf and —
/// when `index_orphan` — the leaf's parent too, orphaning the parent's
/// other children as index entries. The node above keeps enough entries
/// that the root does not shrink.
fn condensing_victim(
    db: &DglRTree,
    objects: &[(ObjectId, Rect2)],
    index_orphan: bool,
) -> (ObjectId, Rect2) {
    db.with_tree(|t| {
        let min = t.config().min_entries;
        objects.iter().copied().find(|&(oid, rect)| {
            let path = t.find_path(oid, rect).expect("grid object is in the tree");
            let fill: Vec<usize> = path
                .iter()
                .rev()
                .map(|p| t.peek_node(*p).entries.len())
                .collect();
            match (fill.as_slice(), index_orphan) {
                ([leaf, parent, ..], false) => *leaf == min && *parent > min,
                ([leaf, parent, grandparent, ..], true) => {
                    *leaf == min && *parent == min && *grandparent > min
                }
                _ => false,
            }
        })
    })
    .expect("the grid has a leaf at minimum fill under a parent of the wanted fill")
}

/// Logically deletes `victim`, then commits, returning the physical
/// deletion's plan (taken just before the commit runs it) and every lock
/// the commit's system operation was granted.
fn commit_physical_delete(
    db: &DglRTree,
    (oid, rect): (ObjectId, Rect2),
) -> (
    dgl_rtree::DeletePlan<2>,
    Vec<(Res, dgl_lockmgr::LockMode, dgl_lockmgr::LockDuration)>,
) {
    let t = db.begin();
    assert!(db.delete(t, oid, rect).unwrap());
    let plan = db
        .with_tree(|tree| tree.plan_delete(oid, rect))
        .expect("the tombstoned entry is still in the tree");
    clear_trace(db);
    db.commit(t).unwrap();
    let got = take_grants(db);
    db.validate().unwrap();
    (plan, got)
}

fn page_res(p: PageId) -> Res {
    Res::Page(p.0)
}

#[test]
fn deferred_delete_eliminating_its_leaf_takes_short_six_on_leaf_dead_pages_and_shrinking_ext() {
    // Table 3 row "Delete (physical), node elimination" (§3.7): short SIX
    // on the leaf granule (elimination makes even IX holders lose their
    // coverage), on every page the condense pass eliminates, and on every
    // external granule that shrinks as BRs are adjusted.
    let (db, objects) = condensing_db();
    let victim = condensing_victim(&db, &objects, false);
    let (plan, got) = commit_physical_delete(&db, victim);
    assert!(plan.leaf_eliminated, "the fixture eliminates the leaf");
    assert!(
        !plan.changed_ext.is_empty(),
        "BR adjustment reaches an ancestor"
    );
    assert!(
        got.contains(&(page_res(plan.leaf), SIX, Short)),
        "short SIX on the eliminated leaf: {got:?}"
    );
    for p in &plan.eliminated {
        assert!(
            got.contains(&(page_res(*p), SIX, Short)),
            "short SIX on eliminated page {p:?}: {got:?}"
        );
    }
    for p in &plan.changed_ext {
        assert!(
            got.contains(&(page_res(*p), SIX, Short)),
            "short SIX on shrinking ext({p:?}): {got:?}"
        );
    }
    assert!(
        got.iter()
            .all(|(res, m, d)| matches!(res, Res::Page(_)) && matches!(m, IX | SIX) && *d == Short),
        "the system operation takes only short IX/SIX granule locks: {got:?}"
    );
}

#[test]
fn reinserting_an_index_orphan_takes_short_six_on_ext_of_its_target() {
    // Table 3 row "Delete (physical), orphan re-insertion" (§3.7): an
    // index entry re-inserted into node T shrinks ext(T), so it takes a
    // short SIX there. The victim's leaf and its parent both underflow;
    // the parent's other children come back as index entries.
    let (db, objects) = condensing_db();
    let victim = condensing_victim(&db, &objects, true);
    let orphans: Vec<PageId> = db.with_tree(|t| {
        let path = t.find_path(victim.0, victim.1).unwrap();
        let (leaf, parent) = (path[path.len() - 1], path[path.len() - 2]);
        t.peek_node(parent)
            .children()
            .filter(|c| *c != leaf)
            .collect()
    });
    let (plan, got) = commit_physical_delete(&db, victim);
    assert_eq!(plan.eliminated.len(), 2, "leaf and parent are eliminated");
    assert!(!orphans.is_empty(), "the parent had other children");
    for orphan in orphans {
        let target = db.with_tree(|t| {
            t.pages()
                .find(|(_, n)| n.children().any(|c| c == orphan))
                .map(|(pid, _)| pid)
                .expect("the orphaned subtree is linked back in")
        });
        // Index orphans re-enter last (leaf-level orphans first), so the
        // last grant on the target is the re-insertion's own request —
        // not the removal phase's SIX on the same page, which stays held.
        let last = got.iter().rev().find(|(res, ..)| *res == page_res(target));
        assert_eq!(
            last,
            Some(&(page_res(target), SIX, Short)),
            "short SIX on ext({target:?}), where orphan {orphan:?} re-entered: {got:?}"
        );
    }
}
