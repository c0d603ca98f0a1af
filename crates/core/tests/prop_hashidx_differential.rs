//! Property-based differential test for the hash index. One DGL tree is
//! driven through a random serial history of inserts, deletes, updates,
//! aborts, point reads, snapshot point reads and version-GC passes, and
//! every answer the index gives is checked against a reference that finds
//! the object without it:
//!
//! * a `ReadSingle` against the locking `read_scan` of the probed
//!   rectangle in the same transaction, filtered to the probed object and
//!   rectangle;
//! * a `Delete` or `UpdateSingle` (which locate the entry from the slot's
//!   leaf hint) against the same scan, taken just before it;
//! * a `SnapshotRead` against the same snapshot's `read_scan`, filtered
//!   the same way.
//!
//! Both scans reach an object through the tree (a snapshot scan also
//! through the in-flight orphans and the dead list); the index only
//! supplies the version of an object they found. Fanout 4 has a minimum
//! fill of 1, so a condensation orphans nothing and no window hides a
//! committed object from the locking scan. At every quiesce point
//! `validate()` re-checks the index against the tree entry-by-entry (slot
//! count, leaf hint, rect, and `locate_leaf` agreement).
//!
//! A second property checks the index's batched read (`get_each`, which
//! resolves a scan's hits one stripe at a time) against per-key `get`.
//!
//! The offline proptest shim does not replay `.proptest-regressions`
//! files, so interesting histories are additionally pinned as explicit
//! fixed-seed regression tests below.
//!
//! The driver is serial and runs one transaction at a time, and every
//! deferred deletion runs inside the `commit` that released its locks, so
//! no step may lose a deadlock or time out: any error but a duplicate
//! insert fails the history.
//!
//! Each history runs under a hard deadline (`common::within_deadline`): a
//! wedge — like the one ROADMAP item 0(a) chased, a snapshot read parked
//! behind a system operation that waited for the driver's own lock —
//! arrives as a failed test with the wait-for view and the maintenance
//! counters printed, instead of parking until CI kills the job.

mod common;

use std::sync::Arc;

use common::within_deadline;
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, ObjectId, Rect2, TransactionalRTree, TxnError, TxnId,
};
use dgl_obs::Ctr;
use dgl_rtree::RTreeConfig;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u8),
    Delete(u8),
    /// Point read of object `.0` probed with the rectangle of key `.1`
    /// (its own when the two agree).
    ReadSingle(u8, u8),
    UpdateSingle(u8),
    /// Point read at the snapshot held since the previous `SnapshotRead`
    /// (which may predate deletions since moved to the dead list) and at a
    /// fresh one, which is then held in its place.
    SnapshotRead(u8),
    Commit,
    Abort,
    /// Commit, check that no deferred physical deletion was dropped, run
    /// a version-GC pass, and cross-check index against tree.
    QuiesceAndCheck,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0..20u8).prop_map(Step::Insert),
        3 => (0..20u8).prop_map(Step::Delete),
        3 => (0..20u8).prop_map(|k| Step::ReadSingle(k, k)),
        1 => (0..20u8, 0..20u8).prop_map(|(k, at)| Step::ReadSingle(k, at)),
        3 => (0..20u8).prop_map(Step::UpdateSingle),
        2 => (0..20u8).prop_map(Step::SnapshotRead),
        2 => Just(Step::Commit),
        1 => Just(Step::Abort),
        1 => Just(Step::QuiesceAndCheck),
    ]
}

/// Every key always carries the same rectangle, so no per-history rect
/// bookkeeping is needed — delete/read probes always use the true rect.
/// No two keys' rectangles meet, so a scan of one finds no other.
fn rect_for(k: u8) -> Rect2 {
    let x = f64::from(k % 5) * 0.19;
    let y = f64::from(k / 5) * 0.21;
    Rect2::new([x, y], [x + 0.06, y + 0.06])
}

fn db() -> DglRTree {
    DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(4),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        ..Default::default()
    })
}

/// Quiesce, GC, validate — and prove the index really answered: once the
/// history has point-read a live object (`read_live`) it has been
/// consulted.
fn check(db: &DglRTree, read_live: bool, i: usize) -> Result<(), TestCaseError> {
    db.quiesce()
        .map_err(|e| TestCaseError::fail(format!("step {i}: quiesce: {e}")))?;
    db.dispatch_version_gc();
    db.validate()
        .map_err(|e| TestCaseError::fail(format!("step {i}: validate: {e}")))?;
    // With nothing pinned the pass above left no garbage behind.
    let stats = db.mvcc_stats();
    if stats.active_snapshots == 0 {
        prop_assert_eq!(
            stats.live_versions,
            stats.live_chains as u64,
            "step {}: {:?}",
            i,
            stats
        );
    }
    prop_assert!(
        db.obs().snapshot().ctr(Ctr::HashHits) > 0 || !read_live,
        "step {}: point read of a live object never consulted the index",
        i
    );
    Ok(())
}

/// What a wedged tree can say for itself, in registry metric names.
fn wedge_report(db: &DglRTree) -> String {
    let snap = db.obs().snapshot();
    let mut out = String::from("---\n");
    for c in Ctr::ALL {
        if c.name().starts_with("maint_") || matches!(c, Ctr::VersionGcRuns | Ctr::SnapshotBegins) {
            out.push_str(&format!("{}={}\n", c.name(), snap.ctr(c)));
        }
    }
    out.push_str(&db.merged_locktable_dump());
    out
}

/// Runs [`drive`] under the hard deadline; on expiry the tree's
/// [`wedge_report`] is printed with the history.
fn run_differential(steps: &[Step]) -> Result<(), TestCaseError> {
    let db = Arc::new(db());
    let report = {
        let (db, steps) = (Arc::clone(&db), steps.to_vec());
        move || format!("{}\nhistory: {steps:?}", wedge_report(&db))
    };
    let steps = steps.to_vec();
    within_deadline(report, move || drive(&db, &steps))
}

/// The reference answer for `(oid, rect)`: the locking scan of `rect`,
/// filtered to the object and rectangle.
fn scan_key(
    db: &DglRTree,
    txn: TxnId,
    oid: ObjectId,
    rect: Rect2,
) -> Result<Option<u64>, TxnError> {
    Ok(db
        .read_scan(txn, rect)?
        .into_iter()
        .find(|h| h.oid == oid && h.rect == rect)
        .map(|h| h.version))
}

/// Compares one step's answer with its reference. Every error fails the
/// history: a serial driver has nobody to lose a lock to.
fn settle<T: PartialEq + std::fmt::Debug>(
    r: Result<(T, T), TxnError>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let (answer, reference) = r.map_err(|e| TestCaseError::fail(format!("{ctx}: {e}")))?;
    prop_assert_eq!(answer, reference, "{}", ctx);
    Ok(())
}

/// Drives the tree through `steps`, checking every point access against
/// its reference, then cross-checks index against tree at the end.
fn drive(db: &DglRTree, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut t = db.begin();
    let mut read_live = false;
    let mut held = None;
    for (i, step) in steps.iter().enumerate() {
        let ctx = format!("step {i}: {step:?}");
        let key = |k: u8| (ObjectId(u64::from(k)), rect_for(k));
        // Whether the step ended the transaction: the next step then runs
        // in a fresh one.
        let restart = match *step {
            Step::Insert(k) => {
                let (oid, rect) = key(k);
                let r = match db.insert(t, oid, rect) {
                    // A duplicate is an answer, not a lost transaction.
                    Err(TxnError::DuplicateObject) => Ok(()),
                    r => r,
                };
                settle(r.map(|()| ((), ())), &ctx)?;
                false
            }
            Step::Delete(k) => {
                let (oid, rect) = key(k);
                let r = scan_key(db, t, oid, rect)
                    .and_then(|found| Ok((db.delete(t, oid, rect)?, found.is_some())));
                settle(r, &ctx)?;
                false
            }
            Step::ReadSingle(k, at) => {
                let (oid, rect) = (ObjectId(u64::from(k)), rect_for(at));
                let r = db
                    .read_single(t, oid, rect)
                    .and_then(|answer| Ok((answer, scan_key(db, t, oid, rect)?)));
                read_live |= matches!(r, Ok((Some(_), _)));
                settle(r, &ctx)?;
                false
            }
            Step::UpdateSingle(k) => {
                let (oid, rect) = key(k);
                let r = scan_key(db, t, oid, rect)
                    .and_then(|found| Ok((db.update_single(t, oid, rect)?, found.is_some())));
                settle(r, &ctx)?;
                false
            }
            Step::SnapshotRead(k) => {
                // Committed state only, so the answers agree no matter
                // what the open transaction has pending.
                let (oid, rect) = key(k);
                let fresh = db.begin_snapshot();
                for snap in held.iter().chain([&fresh]) {
                    let found: Vec<u64> = snap
                        .read_scan(rect)
                        .into_iter()
                        .filter(|h| h.oid == oid)
                        .map(|h| h.version)
                        .collect();
                    prop_assert!(found.len() <= 1, "{}: {:?} at once", ctx, found);
                    prop_assert_eq!(
                        snap.read_single(oid),
                        found.first().copied(),
                        "{} at ts {}",
                        ctx,
                        snap.ts()
                    );
                }
                held = Some(fresh);
                false
            }
            Step::Commit => {
                db.commit(t).unwrap();
                true
            }
            Step::Abort => true,
            Step::QuiesceAndCheck => {
                db.commit(t).unwrap();
                check(db, read_live, i)?;
                true
            }
        };
        if restart {
            // Whatever is still active rolls back (a committed id answers
            // `NotActive`).
            db.abort(t).ok();
            t = db.begin();
        }
    }
    db.abort(t).ok();
    drop(held);
    check(db, read_live, steps.len())?;
    // The final committed contents, read through the tree, are exactly
    // what the index answers for every key.
    let t = db.begin();
    let mut scanned: Vec<(u64, u64)> = db
        .read_scan(t, Rect2::unit())
        .unwrap()
        .into_iter()
        .map(|h| (h.oid.0, h.version))
        .collect();
    let mut indexed = Vec::new();
    for k in 0..20u8 {
        let (oid, rect) = (ObjectId(u64::from(k)), rect_for(k));
        if let Some(version) = db.read_single(t, oid, rect).unwrap() {
            indexed.push((oid.0, version));
        }
    }
    db.commit(t).unwrap();
    scanned.sort_unstable();
    prop_assert_eq!(indexed, scanned, "final committed state");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hash_index_agrees_with_traversal_on_random_histories(
        steps in prop::collection::vec(arb_step(), 1..80)
    ) {
        run_differential(&steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched read scans resolve their hits with answers exactly
    /// what per-key `get` answers, in item order: duplicates, absent keys,
    /// the empty list and lists past the stack bound included.
    #[test]
    fn get_each_answers_what_get_answers(
        present in prop::collection::vec(0..400u64, 0..300),
        keys in prop::collection::vec(0..400u64, 0..(dgl_hashidx::GET_EACH_STACK + 100)),
    ) {
        let map = dgl_hashidx::StripedMap::new();
        for &k in &present {
            map.insert(k, k ^ 0x5eed);
        }
        let mut items: Vec<(u64, Option<u64>)> = keys.iter().map(|&k| (k, Some(0))).collect();
        map.get_each(&mut items, |it| &it.0, |it, v| it.1 = v.copied());
        let expected: Vec<(u64, Option<u64>)> =
            keys.iter().map(|&k| (k, map.get(&k, |v| *v))).collect();
        prop_assert_eq!(items, expected);
    }
}

/// Fixed seed: insert, delete, then GC with a snapshot-visible chain —
/// exercises the dead-list handoff ordering of the deferred physical
/// deletion (chain cloned to the dead list before the slot is removed):
/// the snapshot taken at the first `SnapshotRead(2)` still sees object 2
/// after its deletion is applied, through the dead list alone.
#[test]
fn fixed_seed_delete_then_gc_keeps_snapshot_answers_aligned() {
    use Step::*;
    let steps = [
        Insert(1),
        Insert(2),
        Insert(3),
        Commit,
        UpdateSingle(2),
        Commit,
        SnapshotRead(2),
        Delete(2),
        QuiesceAndCheck,
        SnapshotRead(2),
        Insert(2),
        QuiesceAndCheck,
        SnapshotRead(2),
    ];
    run_differential(&steps).unwrap();
}

/// Fixed seed: aborted inserts and updates must leave no stray slots
/// behind (rollback removes the slot an insert published and pops the
/// version an update pushed); a live object probed with another key's
/// rectangle is not there.
#[test]
fn fixed_seed_aborts_leave_no_stray_slots() {
    use Step::*;
    let steps = [
        Insert(7),
        Commit,
        Insert(8),
        UpdateSingle(7),
        Abort,
        ReadSingle(7, 7),
        ReadSingle(7, 8),
        ReadSingle(8, 8),
        Insert(8),
        QuiesceAndCheck,
        Delete(7),
        Abort,
        ReadSingle(7, 7),
        QuiesceAndCheck,
    ];
    run_differential(&steps).unwrap();
}

/// Fixed seed (found by the property above): deleting most of a
/// two-level tree shrinks the root, which absorbs the surviving leaf's
/// entries *into the root page* — no split record, no orphans — so the
/// deferred deletion must refresh those objects' leaf hints explicitly.
#[test]
fn fixed_seed_root_shrink_refreshes_leaf_hints() {
    use Step::*;
    let mut steps: Vec<Step> = (0..10u8).map(Insert).collect();
    steps.push(Commit);
    // Delete down to a couple of survivors: condensation collapses the
    // tree back to a single (root) leaf.
    steps.extend((2..10u8).map(Delete));
    steps.push(QuiesceAndCheck);
    steps.push(ReadSingle(0, 0));
    steps.push(ReadSingle(1, 1));
    run_differential(&steps).unwrap();
}

/// Fixed seed: enough churn on one key to split leaves around it — the
/// leaf hints must follow the splits (reindex on insert and on deferred
/// re-insertion of condensation orphans).
#[test]
fn fixed_seed_split_churn_keeps_leaf_hints_fresh() {
    use Step::*;
    let mut steps = Vec::new();
    for k in 0..20u8 {
        steps.push(Insert(k));
    }
    steps.push(Commit);
    for k in (0..20u8).step_by(2) {
        steps.push(Delete(k));
    }
    steps.push(QuiesceAndCheck);
    for k in (0..20u8).step_by(2) {
        steps.push(Insert(k));
        let next = k.wrapping_add(1) % 20;
        steps.push(ReadSingle(next, next));
    }
    steps.push(QuiesceAndCheck);
    run_differential(&steps).unwrap();
}
