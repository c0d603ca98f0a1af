//! Property-based differential test for the hash index: two identical
//! DGL trees — one answering point reads through the striped hash index,
//! one through tree traversal — are driven through the same random
//! serial history of inserts, deletes, updates, aborts, snapshot point
//! reads and version-GC passes. Every operation must return the same
//! answer on both, and at every quiesce point `validate()` re-checks the
//! index against the tree entry-by-entry (slot count, leaf hint, rect,
//! and `locate_leaf` agreement).
//!
//! The offline proptest shim does not replay `.proptest-regressions`
//! files, so interesting histories are additionally pinned as explicit
//! fixed-seed regression tests below.
//!
//! Each history runs under a hard deadline (`common::within_deadline`): a
//! wedge — like the one ROADMAP item 0(a) chased, a snapshot read parked
//! behind a system operation that waited for the driver's own lock —
//! arrives as a failed test with the wait-for view, the maintenance
//! backlog and the maintenance counters printed, instead of parking
//! until CI kills the job.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{wait_until, within_deadline};
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, MaintenanceConfig, MaintenanceMode, ObjectId, Rect2,
    TransactionalRTree, TxnError,
};
use dgl_obs::Ctr;
use dgl_rtree::RTreeConfig;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    Insert(u8),
    Delete(u8),
    ReadSingle(u8),
    UpdateSingle(u8),
    SnapshotRead(u8),
    Commit,
    Abort,
    /// Commit, drain maintenance (deferred physical deletions), run a
    /// version-GC pass, and cross-check index against tree.
    QuiesceAndCheck,
    /// Fixed seeds only: wait until each side's worker is parked in a
    /// lock wait (so its system operation holds the gate).
    AwaitBlockedWorker,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0..20u8).prop_map(Step::Insert),
        3 => (0..20u8).prop_map(Step::Delete),
        3 => (0..20u8).prop_map(Step::ReadSingle),
        3 => (0..20u8).prop_map(Step::UpdateSingle),
        2 => (0..20u8).prop_map(Step::SnapshotRead),
        2 => Just(Step::Commit),
        1 => Just(Step::Abort),
        1 => Just(Step::QuiesceAndCheck),
    ]
}

/// Every key always carries the same rectangle, so no per-history rect
/// bookkeeping is needed — delete/read probes always use the true rect.
fn rect_for(k: u8) -> Rect2 {
    let x = f64::from(k % 5) * 0.19;
    let y = f64::from(k / 5) * 0.21;
    Rect2::new([x, y], [x + 0.06, y + 0.06])
}

fn db(hash_reads: bool) -> DglRTree {
    DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(4),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        maintenance: MaintenanceConfig {
            mode: MaintenanceMode::Background,
            ..Default::default()
        },
        hash_reads,
        ..Default::default()
    })
}

/// Quiesce, GC, validate — and prove the two sides really differ: the
/// hash-on tree has consulted the index once the history has point-read
/// a live object (`read_live`), the hash-off reference never has.
fn check(db: &DglRTree, hash_reads: bool, read_live: bool, i: usize) -> Result<(), TestCaseError> {
    let label = if hash_reads { "hash-on" } else { "hash-off" };
    db.quiesce()
        .map_err(|e| TestCaseError::fail(format!("{label} step {i}: quiesce: {e}")))?;
    db.dispatch_version_gc();
    db.quiesce()
        .map_err(|e| TestCaseError::fail(format!("{label} step {i}: gc quiesce: {e}")))?;
    db.validate()
        .map_err(|e| TestCaseError::fail(format!("{label} step {i}: validate: {e}")))?;
    // With nothing pinned the pass above left no garbage behind.
    let stats = db.mvcc_stats();
    if stats.active_snapshots == 0 {
        prop_assert_eq!(
            stats.live_versions,
            stats.live_chains as u64,
            "{} step {}: {:?}",
            label,
            i,
            stats
        );
    }
    let obs = db.obs().snapshot();
    let (hits, misses) = (obs.ctr(Ctr::HashHits), obs.ctr(Ctr::HashMisses));
    if hash_reads {
        prop_assert!(
            hits > 0 || !read_live,
            "{} step {}: point read of a live object never consulted the index",
            label,
            i
        );
    } else {
        prop_assert_eq!(hits + misses, 0, "{} step {}: index consulted", label, i);
    }
    Ok(())
}

/// What a wedged tree can say for itself, in registry metric names.
fn wedge_report(label: &str, db: &DglRTree) -> String {
    let snap = db.obs().snapshot();
    let mut out = format!(
        "--- {label}: maintenance_backlog={}\n",
        db.maintenance_backlog()
    );
    for c in Ctr::ALL {
        if c.name().starts_with("maint_") || matches!(c, Ctr::VersionGcRuns | Ctr::SnapshotBegins) {
            out.push_str(&format!("{}={}\n", c.name(), snap.ctr(c)));
        }
    }
    out.push_str(&db.merged_locktable_dump());
    out
}

/// Runs [`drive`] under the hard deadline; on expiry both trees'
/// [`wedge_report`]s are printed with the history.
fn run_differential(steps: &[Step]) -> Result<(), TestCaseError> {
    let on = Arc::new(db(true));
    let off = Arc::new(db(false));
    let report = {
        let (on, off, steps) = (Arc::clone(&on), Arc::clone(&off), steps.to_vec());
        move || {
            format!(
                "{}\n{}\nhistory: {steps:?}",
                wedge_report("hash-on", &on),
                wedge_report("hash-off", &off)
            )
        }
    };
    let steps = steps.to_vec();
    within_deadline(report, move || drive(&on, &off, &steps))
}

/// Compares one step's answers. `Ok(true)` means a side lost its
/// transaction — a user transaction may legitimately lose a deadlock (or
/// time out) to a system operation of its own slow worker, on one side
/// only — and both sides must start afresh: the differential is over
/// committed state.
fn settle<T: PartialEq + std::fmt::Debug>(
    a: Result<T, TxnError>,
    b: Result<T, TxnError>,
    ctx: &str,
) -> Result<bool, TestCaseError> {
    let lost = |r: &Result<T, TxnError>| matches!(r, Err(TxnError::Deadlock | TxnError::Timeout));
    if lost(&a) || lost(&b) {
        return Ok(true);
    }
    prop_assert_eq!(a, b, "{}", ctx);
    Ok(false)
}

/// Drives both trees through `steps`, asserting identical answers, then
/// cross-checks index against tree on both at the end.
fn drive(on: &DglRTree, off: &DglRTree, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut t_on = on.begin();
    let mut t_off = off.begin();
    let mut read_live = false;
    for (i, step) in steps.iter().enumerate() {
        let ctx = format!("step {i}: {step:?}");
        let key = |k: u8| (ObjectId(u64::from(k)), rect_for(k));
        // Whether the step ended both transactions (or cost one side its
        // own): the next step then runs in fresh ones.
        let restart = match *step {
            Step::Insert(k) => {
                let (oid, rect) = key(k);
                settle(
                    on.insert(t_on, oid, rect),
                    off.insert(t_off, oid, rect),
                    &ctx,
                )?
            }
            Step::Delete(k) => {
                let (oid, rect) = key(k);
                settle(
                    on.delete(t_on, oid, rect),
                    off.delete(t_off, oid, rect),
                    &ctx,
                )?
            }
            Step::ReadSingle(k) => {
                let (oid, rect) = key(k);
                let a = on.read_single(t_on, oid, rect);
                read_live |= matches!(a, Ok(Some(_)));
                settle(a, off.read_single(t_off, oid, rect), &ctx)?
            }
            Step::UpdateSingle(k) => {
                let (oid, rect) = key(k);
                settle(
                    on.update_single(t_on, oid, rect),
                    off.update_single(t_off, oid, rect),
                    &ctx,
                )?
            }
            Step::SnapshotRead(k) => {
                // Latchless hash point read vs latched reference read,
                // both at "now": committed state only, so the answers
                // agree no matter what the open transactions have pending
                // or what the worker is in the middle of.
                let a = on.begin_snapshot().read_single(ObjectId(u64::from(k)));
                let b = off.begin_snapshot().read_single(ObjectId(u64::from(k)));
                prop_assert_eq!(a, b, "{}", ctx);
                false
            }
            Step::Commit => {
                on.commit(t_on).unwrap();
                off.commit(t_off).unwrap();
                true
            }
            Step::Abort => true,
            Step::AwaitBlockedWorker => {
                for db in [on, off] {
                    wait_until(|| db.lock_manager().waiter_count() == 1);
                }
                false
            }
            Step::QuiesceAndCheck => {
                on.commit(t_on).unwrap();
                off.commit(t_off).unwrap();
                check(on, true, read_live, i)?;
                check(off, false, read_live, i)?;
                true
            }
        };
        if restart {
            // Whatever is still active rolls back (a committed or
            // already-rolled-back id answers `NotActive`).
            on.abort(t_on).ok();
            off.abort(t_off).ok();
            t_on = on.begin();
            t_off = off.begin();
        }
    }
    on.abort(t_on).ok();
    off.abort(t_off).ok();
    check(on, true, read_live, steps.len())?;
    check(off, false, read_live, steps.len())?;
    // Final committed contents agree between the two configurations.
    let t = on.begin();
    let mut a: Vec<(u64, u64)> = on
        .read_scan(t, Rect2::unit())
        .unwrap()
        .into_iter()
        .map(|h| (h.oid.0, h.version))
        .collect();
    on.commit(t).unwrap();
    let t = off.begin();
    let mut b: Vec<(u64, u64)> = off
        .read_scan(t, Rect2::unit())
        .unwrap()
        .into_iter()
        .map(|h| (h.oid.0, h.version))
        .collect();
    off.commit(t).unwrap();
    a.sort_unstable();
    b.sort_unstable();
    prop_assert_eq!(a, b, "final committed state");
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

/// Fixed seed: insert, delete, then GC with a snapshot-visible chain —
/// exercises the dead-list handoff ordering of the deferred physical
/// deletion (chain cloned to the dead list before the slot is removed).
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
/// version an update pushed).
#[test]
fn fixed_seed_aborts_leave_no_stray_slots() {
    use Step::*;
    let steps = [
        Insert(7),
        Commit,
        Insert(8),
        UpdateSingle(7),
        Abort,
        ReadSingle(7),
        ReadSingle(8),
        Insert(8),
        QuiesceAndCheck,
        Delete(7),
        Abort,
        ReadSingle(7),
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
    steps.push(ReadSingle(0));
    steps.push(ReadSingle(1));
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
        steps.push(ReadSingle(k.wrapping_add(1) % 20));
    }
    steps.push(QuiesceAndCheck);
    run_differential(&steps).unwrap();
}

/// Fixed seed (ROADMAP 0(a), ISSUE 20): a delete is committed while the
/// background worker is slow to pick it up; by the time its system
/// operation takes the gate, the driver's open transaction holds S on the
/// granule it needs (a delete of an absent key locks like a scan), so the
/// worker waits, gate held; once it does, the driver reads through a
/// snapshot on both sides. When snapshot reads took the gate shared, the hash-off
/// side parked here behind a worker that was waiting for the driver's own
/// lock — the wedge the deadline above was added to report.
#[test]
fn fixed_seed_slow_worker_cannot_wedge_a_snapshot_read() {
    use Step::*;
    let _slow = dgl_faults::register(
        "maint/deferred",
        dgl_faults::FaultSpec::delay(Duration::from_millis(200)),
    );
    let steps = [
        Insert(1),
        Insert(2),
        Commit,
        Delete(1),
        Commit,
        Delete(7),
        AwaitBlockedWorker,
        SnapshotRead(2),
        SnapshotRead(1),
        ReadSingle(2),
        Commit,
        QuiesceAndCheck,
    ];
    run_differential(&steps).unwrap();
}
