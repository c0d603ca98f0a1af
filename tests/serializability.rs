//! Serializability consequences checked end-to-end.
//!
//! The "observed-count" pattern: every transaction scans a region, records
//! how many objects it saw, and inserts one more object into that region.
//! Under any serializable execution, the i-th transaction to commit saw
//! exactly i objects — so the multiset of observed counts must be exactly
//! {0, 1, 2, …, n−1}, with no duplicates and no gaps. Phantom anomalies
//! produce duplicate counts (two transactions both saw k and both added an
//! object), which this test would catch immediately.

use std::sync::Arc;

use granular_rtree::core::baseline::{PredicateRTree, TreeLockRTree, ZOrderRTree};
use granular_rtree::core::{
    DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree, TxnError,
};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::rtree::{ObjectId, RTreeConfig};

const REGION: Rect2 = Rect2 {
    lo: [0.3, 0.3],
    hi: [0.7, 0.7],
};

fn observed_counts(db: Arc<dyn TransactionalRTree>, threads: u64, per_thread: u64) -> Vec<u64> {
    let counts: Vec<Vec<u64>> = crossbeam::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move |_| {
                let mut seen = Vec::new();
                let mut serial = 0u64;
                while (seen.len() as u64) < per_thread {
                    let txn = db.begin();
                    let count = match db.read_scan(txn, REGION) {
                        Ok(hits) => hits.len() as u64,
                        Err(TxnError::Deadlock | TxnError::Timeout) => continue,
                        Err(e) => panic!("scan: {e}"),
                    };
                    // Insert one object strictly inside the region, at a
                    // position derived from (tid, serial) to stay unique.
                    serial += 1;
                    let oid = ObjectId((tid << 32) | serial);
                    let fx = 0.31 + 0.38 * ((tid as f64 + 0.5) / threads as f64);
                    let fy = 0.31 + 0.38 * ((serial % 97) as f64 / 97.0);
                    let rect = Rect2::new([fx, fy], [fx + 0.001, fy + 0.001]);
                    match db.insert(txn, oid, rect) {
                        Ok(()) => {}
                        Err(TxnError::Deadlock | TxnError::Timeout) => {
                            serial -= 1;
                            continue;
                        }
                        Err(e) => panic!("insert: {e}"),
                    }
                    match db.commit(txn) {
                        Ok(()) => seen.push(count),
                        Err(e) => panic!("commit: {e}"),
                    }
                }
                seen
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();
    let mut all: Vec<u64> = counts.into_iter().flatten().collect();
    all.sort_unstable();
    all
}

fn assert_serializable_counts(db: Arc<dyn TransactionalRTree>) {
    let name = db.name();
    let counts = observed_counts(Arc::clone(&db), 6, 15);
    let expected: Vec<u64> = (0..counts.len() as u64).collect();
    assert_eq!(
        counts, expected,
        "{name}: observed counts must be exactly 0..n (serializable history)"
    );
    db.validate().unwrap();
}

#[test]
fn dgl_modified_policy_is_serializable() {
    assert_serializable_counts(Arc::new(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        policy: InsertPolicy::Modified,
        ..Default::default()
    })));
}

#[test]
fn dgl_base_policy_is_serializable() {
    assert_serializable_counts(Arc::new(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        policy: InsertPolicy::Base,
        ..Default::default()
    })));
}

#[test]
fn dgl_coarse_external_granule_is_serializable() {
    // The rejected single-external-granule design is slower but must stay
    // sound (it is strictly coarser).
    assert_serializable_counts(Arc::new(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        coarse_external_granule: true,
        ..Default::default()
    })));
}

#[test]
fn tree_lock_is_serializable() {
    assert_serializable_counts(Arc::new(TreeLockRTree::new(
        RTreeConfig::with_fanout(6),
        Rect2::unit(),
        LockManagerConfig::default(),
    )));
}

#[test]
fn predicate_locking_is_serializable() {
    assert_serializable_counts(Arc::new(PredicateRTree::new(
        RTreeConfig::with_fanout(6),
        Rect2::unit(),
        LockManagerConfig::default(),
    )));
}

#[test]
fn zorder_key_range_locking_is_serializable() {
    // Sound (if slow): spatial overlap always implies Z-interval overlap.
    assert_serializable_counts(Arc::new(ZOrderRTree::new(
        RTreeConfig::with_fanout(6),
        Rect2::unit(),
        LockManagerConfig::default(),
    )));
}

#[test]
fn sharded_dgl_is_serializable() {
    use granular_rtree::core::{ShardedDglRTree, ShardingConfig};
    // The scan region straddles all four quadrants, so every
    // transaction is a cross-shard scatter-gather read plus a
    // single-shard write — the router must compose the per-shard
    // Table-3 guarantees into one serializable global history.
    assert_serializable_counts(Arc::new(ShardedDglRTree::new(
        DglConfig {
            rtree: RTreeConfig::with_fanout(6),
            policy: InsertPolicy::Modified,
            ..Default::default()
        },
        ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        },
    )));
}
