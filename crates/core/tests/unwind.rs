//! Unwind safety: a panic injected anywhere in the write path must leave
//! the index usable — latches released, the panicked transaction rolled
//! back with its locks gone, and the very next transaction succeeding on
//! the same objects. Exercised through the fault-injection failpoints
//! (`dgl/plan`, `dgl/apply`, `dgl/commit`, `maint/deferred`).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use common::{dgl, r};
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, ObjectId, Rect2, RetryPolicy, TransactionalRTree, TxnError,
    TxnExecutor,
};
use dgl_faults::FaultSpec;
use dgl_obs::Ctr;
use dgl_rtree::image;
use dgl_rtree::{RTree2, RTreeConfig};

// The failpoint registry is process-global; tests arming faults must not
// overlap (cargo runs tests in this binary concurrently).
static FAULTS: Mutex<()> = Mutex::new(());

fn lock_faults() -> std::sync::MutexGuard<'static, ()> {
    // A panic is never raised while this guard is held outside
    // `catch_unwind`, but stay usable if a test ever breaks that.
    FAULTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small populated index (no faults armed during setup).
fn populated() -> DglRTree {
    let db = dgl(5, InsertPolicy::Modified);
    let txn = db.begin();
    for i in 0..30u64 {
        let x = 0.03 * i as f64 % 0.9;
        let y = 0.07 * i as f64 % 0.9;
        db.insert(txn, ObjectId(i), r([x, y], [x + 0.02, y + 0.02]))
            .expect("setup insert");
    }
    db.commit(txn).expect("setup commit");
    db
}

/// Asserts the index is fully quiesced and structurally sound: both
/// latches free, no live transactions, an empty lock table, and a clean
/// structural validation.
fn assert_clean(db: &DglRTree) {
    assert_eq!(db.latch_probe(), (true, true), "latches must be free");
    assert_eq!(db.active_txns(), 0, "no live transactions");
    assert_eq!(
        db.lock_manager().resource_count(),
        0,
        "lock table must be empty"
    );
    db.validate().expect("structural validation");
}

/// The tentpole scenario: a panic *between validate and apply* — the
/// exclusive latch is held, locks are granted, nothing is mutated yet.
/// The ApplyGuard must repair-and-release the latch and the unwind guard
/// must roll the transaction back, so a fresh transaction immediately
/// succeeds on the same object id.
#[test]
fn panic_between_validate_and_apply_unwinds_cleanly() {
    // Taken before setup: `populated()` runs the write path, which must
    // not meet a failpoint another test in this binary has armed.
    let _l = lock_faults();
    let db = populated();
    let before = db.obs().snapshot();

    let oid = ObjectId(500);
    let rect = r([0.4, 0.4], [0.45, 0.45]);
    {
        let _g = dgl_faults::register("dgl/apply", FaultSpec::panic().nth(1));
        let txn = db.begin();
        let outcome = catch_unwind(AssertUnwindSafe(|| db.insert(txn, oid, rect)));
        assert!(outcome.is_err(), "the injected panic must propagate");
    }

    assert_clean(&db);
    let delta = db.obs().snapshot().since(&before);
    assert!(
        delta.ctr(Ctr::ApplyUnwinds) >= 1,
        "ApplyGuard saw the unwind"
    );
    assert!(
        delta.ctr(Ctr::UnwindRollbacks) >= 1,
        "txn rolled back on unwind"
    );
    assert_eq!(
        delta.ctr(Ctr::UnwindValidateFailures),
        0,
        "nothing was mutated, so the repair validation passes"
    );

    // A fresh transaction succeeds on the very same object id: the
    // panicked transaction's name lock and granule locks are gone.
    let txn = db.begin();
    db.insert(txn, oid, rect).expect("fresh insert after panic");
    db.commit(txn).expect("fresh commit after panic");
    assert_clean(&db);
}

/// Panic at the top of the plan loop (no latch held, locks possibly
/// retained from earlier operations of the same transaction).
#[test]
fn panic_at_plan_start_unwinds_cleanly() {
    // Taken before setup: `populated()` runs the write path, which must
    // not meet a failpoint another test in this binary has armed.
    let _l = lock_faults();
    let db = populated();

    let oid = ObjectId(501);
    let rect = r([0.5, 0.5], [0.55, 0.55]);
    {
        let txn = db.begin();
        // Give the transaction some earlier work so the unwind has real
        // locks to release. (The scan runs before arming: `read_scan`
        // shares the `dgl/plan` failpoint.)
        db.read_scan(txn, Rect2::unit()).expect("scan");
        let _g = dgl_faults::register("dgl/plan", FaultSpec::panic().nth(1));
        let outcome = catch_unwind(AssertUnwindSafe(|| db.insert(txn, oid, rect)));
        assert!(outcome.is_err());
    }

    assert_clean(&db);
    let txn = db.begin();
    db.insert(txn, oid, rect).expect("insert after plan panic");
    db.commit(txn).expect("commit after plan panic");
    assert_clean(&db);
}

/// Panic inside `commit` (before any commit processing): the unwind
/// guard rolls the transaction back, so its writes never surface.
#[test]
fn panic_in_commit_rolls_back() {
    // Taken before setup: `populated()` runs the write path, which must
    // not meet a failpoint another test in this binary has armed.
    let _l = lock_faults();
    let db = populated();

    let oid = ObjectId(502);
    let rect = r([0.6, 0.6], [0.65, 0.65]);
    {
        let _g = dgl_faults::register("dgl/commit", FaultSpec::panic().nth(1));
        let txn = db.begin();
        db.insert(txn, oid, rect).expect("insert");
        let outcome = catch_unwind(AssertUnwindSafe(|| db.commit(txn)));
        assert!(outcome.is_err());
    }

    assert_clean(&db);
    // The rolled-back insert left no trace: the same id inserts cleanly.
    let txn = db.begin();
    db.insert(txn, oid, rect)
        .expect("insert after commit panic");
    db.commit(txn).expect("commit");
    assert_clean(&db);
}

/// The executor absorbs an injected panic: the first attempt dies at the
/// apply boundary, the retry commits. (Satellite: "a fresh transaction
/// immediately succeeds" — here the executor IS the fresh transaction.)
#[test]
fn executor_retries_through_injected_panic() {
    // Taken before setup: `populated()` runs the write path, which must
    // not meet a failpoint another test in this binary has armed.
    let _l = lock_faults();
    let db = populated();
    let before = db.obs().snapshot();

    let _g = dgl_faults::register("dgl/apply", FaultSpec::panic().nth(1));
    let exec = TxnExecutor::new(&db, RetryPolicy::default());
    let oid = ObjectId(503);
    let rect = r([0.7, 0.7], [0.75, 0.75]);
    exec.run(|txn| db.insert(txn, oid, rect))
        .expect("retry after injected panic commits");

    let delta = db.obs().snapshot().since(&before);
    assert!(delta.ctr(Ctr::ExecPanics) >= 1, "the panic was counted");
    assert!(delta.ctr(Ctr::ExecRetries) >= 1, "and retried");
    assert_clean(&db);
}

/// A deferred physical deletion that panics is retried and eventually
/// completes inside the same `commit`; `quiesce` succeeds and the tree is
/// clean.
#[test]
fn maintenance_panic_is_requeued_then_completes() {
    let _l = lock_faults(); // before the setup writes, see above
    let db = dgl(5, InsertPolicy::Modified);
    let oid = ObjectId(1);
    let rect = r([0.2, 0.2], [0.25, 0.25]);
    let txn = db.begin();
    db.insert(txn, oid, rect).expect("insert");
    db.commit(txn).expect("commit");

    let before = db.obs().snapshot();
    {
        // First two executions of the system operation panic; the third
        // succeeds (still under the MAINT_MAX_ATTEMPTS budget).
        let _g = dgl_faults::register("maint/deferred", FaultSpec::panic().every(1).max_fires(2));
        let txn = db.begin();
        db.delete(txn, oid, rect).expect("delete");
        db.commit(txn).expect("commit runs the deferred deletion");
        db.quiesce().expect("quiesce succeeds after retries");
    }

    let delta = db.obs().snapshot().since(&before);
    assert_eq!(delta.ctr(Ctr::MaintPanics), 2);
    assert_eq!(delta.ctr(Ctr::MaintRequeues), 2);
    assert_eq!(delta.ctr(Ctr::MaintFailed), 0);
    assert_eq!(delta.ctr(Ctr::MaintCompleted), 1);
    assert_eq!(db.len(), 0, "physical deletion eventually applied");
    assert_clean(&db);
}

/// A deferred deletion that panics on *every* attempt exhausts its retry
/// budget; `quiesce` reports the failure instead of pretending the tree
/// is clean.
#[test]
fn maintenance_permafailure_surfaces_through_quiesce() {
    let _l = lock_faults(); // before the setup writes, see above
    let db = dgl(5, InsertPolicy::Modified);
    let oid = ObjectId(1);
    let rect = r([0.2, 0.2], [0.25, 0.25]);
    let txn = db.begin();
    db.insert(txn, oid, rect).expect("insert");
    db.commit(txn).expect("commit");

    let before = db.obs().snapshot();
    {
        let _g = dgl_faults::register("maint/deferred", FaultSpec::panic());
        let txn = db.begin();
        db.delete(txn, oid, rect).expect("delete");
        db.commit(txn).expect("user commit still succeeds");
        assert_eq!(
            db.quiesce(),
            Err(TxnError::MaintenanceFailed),
            "the failure is reported"
        );
    }

    let delta = db.obs().snapshot().since(&before);
    assert_eq!(delta.ctr(Ctr::MaintFailed), 1);
    assert_eq!(
        delta.ctr(Ctr::MaintPanics),
        4,
        "MAINT_MAX_ATTEMPTS executions"
    );
    // The record was dropped; latches, locks and transactions are still
    // clean (validate runs under quiesce, so probe directly).
    assert_eq!(db.latch_probe(), (true, true));
    assert_eq!(db.active_txns(), 0);
    assert_eq!(db.lock_manager().resource_count(), 0);
}

/// A deliberately inconsistent snapshot — tombstoned entries whose
/// pending physical deletions cannot be applied — must make
/// `from_snapshot` return `Err(TxnError::MaintenanceFailed)`, never
/// panic or hang (the satellite bugfix: recovery used to take the
/// process down on the first bad image).
#[test]
fn from_snapshot_with_inconsistent_image_returns_error() {
    // A crash image with committed-but-unapplied deletions.
    let mut tree = RTree2::new(RTreeConfig::with_fanout(6), Rect2::unit());
    let mut rects = Vec::new();
    for i in 0..20u64 {
        let x = 0.04 * i as f64;
        let rect = r([x, x * 0.5], [x + 0.02, x * 0.5 + 0.02]);
        tree.insert(ObjectId(i), rect);
        rects.push((ObjectId(i), rect));
    }
    for &i in &[4u64, 9, 14] {
        let (oid, rect) = rects[i as usize];
        assert!(tree.set_tombstone(oid, rect, 3), "tombstone target exists");
    }
    let restored = image::decode(&image::encode(&tree)).expect("image decodes");

    let _l = lock_faults();
    let _g = dgl_faults::register("maint/deferred", FaultSpec::panic());
    let config = DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        world: Rect2::unit(),
        policy: InsertPolicy::Modified,
        ..Default::default()
    };
    assert_eq!(
        DglRTree::from_snapshot(restored, config).map(|_| ()),
        Err(TxnError::MaintenanceFailed),
        "inconsistent image surfaces as an error, not a panic"
    );
}
