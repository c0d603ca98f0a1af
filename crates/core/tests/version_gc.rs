//! Version GC visits what is dirty, and only that: a pass drains the
//! dirty list the write path feeds, so its cost follows the garbage, not
//! the table (`version_gc_chains_visited` is the count).

use dgl_core::{DglConfig, DglRTree, Rect2, ShardedDglRTree, ShardingConfig, TransactionalRTree};
use dgl_obs::Ctr;
use dgl_rtree::{ObjectId, RTreeConfig};

const OBJECTS: u64 = 5_000;
/// Object ids spread over the table (and, sharded, over the shards).
const DIRTY: [u64; 7] = [3, 611, 1_402, 2_048, 3_333, 4_095, 4_999];

fn config() -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(16),
        ..Default::default()
    }
}

/// Object `i` of a 100-column grid over the unit square.
fn rect_of(i: u64) -> Rect2 {
    let (x, y) = ((i % 100) as f64 * 0.01, (i / 100) as f64 * 0.01);
    Rect2::new([x + 0.001, y + 0.001], [x + 0.004, y + 0.004])
}

fn load(db: &dyn TransactionalRTree) {
    for batch in 0..OBJECTS / 500 {
        let txn = db.begin();
        for i in batch * 500..(batch + 1) * 500 {
            db.insert(txn, ObjectId(i), rect_of(i)).expect("insert");
        }
        db.commit(txn).expect("load commit");
    }
}

fn loaded() -> DglRTree {
    let db = DglRTree::new(config());
    load(&db);
    let stats = db.mvcc_stats();
    assert_eq!(stats.live_chains, OBJECTS as usize);
    assert_eq!(stats.gc_queued, 0, "inserts leave no garbage: {stats:?}");
    db
}

fn update(db: &dyn TransactionalRTree, i: u64) {
    let txn = db.begin();
    assert!(db
        .update_single(txn, ObjectId(i), rect_of(i))
        .expect("update"));
    db.commit(txn).expect("update commit");
}

/// Runs one pass; returns `(chains visited, versions reclaimed)` by it.
fn pass(db: &DglRTree) -> (u64, u64) {
    let before = db.obs().snapshot();
    db.dispatch_version_gc();
    let after = db.obs().snapshot();
    let delta = |c| after.ctr(c) - before.ctr(c);
    assert_eq!(delta(Ctr::VersionGcRuns), 1, "inline pass ran");
    (
        delta(Ctr::VersionGcChainsVisited),
        delta(Ctr::VersionsReclaimed),
    )
}

#[test]
fn a_pass_visits_the_dirty_chains_and_only_those() {
    let db = loaded();
    for i in DIRTY {
        update(&db, i);
    }
    assert_eq!(db.mvcc_stats().gc_queued, DIRTY.len());
    assert_eq!(pass(&db), (7, 7), "of {OBJECTS} chains");
    let stats = db.mvcc_stats();
    assert_eq!(stats.gc_queued, 0, "{stats:?}");
    assert_eq!(stats.live_versions, stats.live_chains as u64, "{stats:?}");
    assert_eq!(pass(&db), (0, 0), "nothing is dirty any more");
    db.validate().expect("validate");
}

#[test]
fn pinned_chains_are_requeued_until_the_pin_drops() {
    let db = loaded();
    let pin = db.begin_snapshot();
    for i in DIRTY {
        update(&db, i);
    }
    assert_eq!(pass(&db), (7, 0), "the pin resolves every old version");
    let stats = db.mvcc_stats();
    assert_eq!(stats.gc_queued, 7, "re-queued: {stats:?}");
    assert_eq!(stats.live_versions, stats.live_chains as u64 + 7);
    db.validate().expect("validate with a pin");
    assert_eq!(pin.read_single(ObjectId(DIRTY[0])), Some(1));
    drop(pin);
    assert_eq!(pass(&db), (7, 7));
    let stats = db.mvcc_stats();
    assert_eq!(stats.gc_queued, 0, "{stats:?}");
    assert_eq!(stats.live_versions, stats.live_chains as u64, "{stats:?}");
}

#[test]
fn a_pending_head_keeps_its_chain_queued() {
    let db = loaded();
    let txn = db.begin();
    assert!(db
        .update_single(txn, ObjectId(9), rect_of(9))
        .expect("update"));
    assert_eq!(pass(&db), (1, 0), "the committed version is the floor");
    assert_eq!(db.mvcc_stats().gc_queued, 1);
    db.commit(txn).expect("commit");
    assert_eq!(pass(&db), (1, 1));
    assert_eq!(db.mvcc_stats().gc_queued, 0);
}

#[test]
fn an_aborted_update_leaves_the_list_after_one_pass() {
    let db = loaded();
    let txn = db.begin();
    assert!(db
        .update_single(txn, ObjectId(42), rect_of(42))
        .expect("update"));
    db.abort(txn).expect("abort");
    let stats = db.mvcc_stats();
    assert_eq!(stats.live_versions, stats.live_chains as u64, "{stats:?}");
    assert_eq!(stats.gc_queued, 1, "listed until a pass looks: {stats:?}");
    assert_eq!(pass(&db), (1, 0));
    assert_eq!(db.mvcc_stats().gc_queued, 0);
    db.validate().expect("validate");
}

#[test]
fn a_physically_removed_object_leaves_the_list_after_one_pass() {
    let db = loaded();
    let txn = db.begin();
    assert!(db
        .update_single(txn, ObjectId(77), rect_of(77))
        .expect("update"));
    assert!(db.delete(txn, ObjectId(77), rect_of(77)).expect("delete"));
    // Inline maintenance: the commit runs the physical removal.
    db.commit(txn).expect("commit");
    let stats = db.mvcc_stats();
    assert_eq!(stats.live_chains, OBJECTS as usize - 1, "{stats:?}");
    assert_eq!(stats.dead_objects, 0, "no snapshot predates the delete");
    assert_eq!(stats.gc_queued, 1, "{stats:?}");
    assert_eq!(pass(&db), (1, 0), "the slot is gone");
    assert_eq!(db.mvcc_stats().gc_queued, 0);
    db.validate().expect("validate");
}

#[test]
fn an_object_written_many_times_is_visited_once() {
    let db = loaded();
    update(&db, 5);
    update(&db, 5);
    assert_eq!(db.mvcc_stats().gc_queued, 1, "only 1 → 2 versions enqueues");
    assert_eq!(pass(&db), (1, 2));

    // update → abort → update lists the object twice; it counts once
    // and the pass looks once.
    let txn = db.begin();
    assert!(db
        .update_single(txn, ObjectId(5), rect_of(5))
        .expect("update"));
    db.abort(txn).expect("abort");
    update(&db, 5);
    assert_eq!(db.mvcc_stats().gc_queued, 1);
    assert_eq!(pass(&db), (1, 1));
    assert_eq!(db.mvcc_stats().gc_queued, 0);
}

#[test]
fn update_scan_feeds_the_list() {
    let db = loaded();
    let txn = db.begin();
    // Cells (10..13) × (20..23) of the grid: nine objects.
    let hits = db
        .update_scan(txn, Rect2::new([0.10, 0.20], [0.13, 0.23]))
        .expect("update scan");
    assert_eq!(hits.len(), 9);
    db.commit(txn).expect("commit");
    assert_eq!(pass(&db), (9, 9));
    assert_eq!(db.mvcc_stats().gc_queued, 0);
}

#[test]
fn sharded_passes_visit_each_shards_own_dirty_chains() {
    let db = ShardedDglRTree::new(config(), ShardingConfig::default());
    load(&db);
    for i in DIRTY {
        update(&db, i);
    }
    let queued: Vec<usize> = db
        .shard_handles()
        .iter()
        .map(|s| s.mvcc_stats().gc_queued)
        .collect();
    assert_eq!(queued.iter().sum::<usize>(), DIRTY.len(), "{queued:?}");
    assert!(
        queued.iter().filter(|q| **q > 0).count() > 1,
        "the dirty objects span shards: {queued:?}"
    );
    for (shard, queued) in db.shard_handles().iter().zip(queued) {
        assert_eq!(pass(shard), (queued as u64, queued as u64));
        let stats = shard.mvcc_stats();
        assert_eq!(stats.gc_queued, 0, "{stats:?}");
        assert_eq!(stats.live_versions, stats.live_chains as u64, "{stats:?}");
        assert_eq!(pass(shard), (0, 0));
    }
    db.validate().expect("validate");
}
