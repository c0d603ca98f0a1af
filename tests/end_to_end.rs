//! End-to-end integration across crates: workload datasets driven through
//! the full protocol stack, with structural validation and checkpointing
//! of the underlying index.

use granular_rtree::core::{DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree};
use granular_rtree::obs::Ctr;
use granular_rtree::rtree::image;
use granular_rtree::rtree::RTreeConfig;
use granular_rtree::workload::{Dataset, DatasetKind};

#[test]
fn paper_scale_load_stays_consistent() {
    // A slice of the paper's spatial dataset loaded transactionally.
    let dataset = Dataset::generate(DatasetKind::UniformRects { mean_extent: 0.05 }, 3_000, 42);
    let db = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(24),
        policy: InsertPolicy::Modified,
        ..Default::default()
    });
    for chunk in dataset.objects.chunks(100) {
        let t = db.begin();
        for (oid, rect) in chunk {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
    }
    assert_eq!(db.len(), 3_000);
    db.validate().unwrap();

    // Every object answerable by scan, count matches a full-space scan.
    let t = db.begin();
    let all = db.read_scan(t, Rect2::unit()).unwrap();
    assert_eq!(all.len(), 3_000);
    db.commit(t).unwrap();

    // Tree shape sanity: height log-ish in n.
    let height = db.with_tree(|t| t.height());
    assert!((2..=5).contains(&height), "height {height}");
}

#[test]
fn clustered_data_exercises_granule_adaptation() {
    // Clustered insert + delete churn forces granule growth, splits, and
    // condensation — the "dynamically adapt to key distribution" claim.
    let dataset = Dataset::generate(
        DatasetKind::Clustered {
            clusters: 5,
            sigma: 0.02,
        },
        1_500,
        9,
    );
    let db = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(8),
        ..Default::default()
    });
    for chunk in dataset.objects.chunks(50) {
        let t = db.begin();
        for (oid, rect) in chunk {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
    }
    // Delete every other object (transactional, deferred physical delete).
    for chunk in dataset.objects.chunks(50) {
        let t = db.begin();
        for (oid, rect) in chunk.iter().step_by(2) {
            assert!(db.delete(t, *oid, *rect).unwrap());
        }
        db.commit(t).unwrap();
    }
    assert_eq!(db.len(), 750);
    db.validate().unwrap();
    // A decent share of inserts changed granule boundaries at fanout 8.
    let stats = db.obs().snapshot();
    assert!(stats.ctr(Ctr::GranuleChangingInserts) > 0);
    assert_eq!(stats.ctr(Ctr::DeferredDeletes), 750);
}

#[test]
fn index_checkpoints_and_restores_through_the_facade() {
    let dataset = Dataset::generate(DatasetKind::UniformPoints, 800, 3);
    let db = DglRTree::new(DglConfig::default());
    let t = db.begin();
    for (oid, rect) in &dataset.objects {
        db.insert(t, *oid, *rect).unwrap();
    }
    db.commit(t).unwrap();

    // Image the quiescent index; decode; contents identical.
    let bytes = db.with_tree(image::encode);
    let restored: granular_rtree::rtree::RTree2 = image::decode(&bytes).unwrap();
    restored.validate(true).unwrap();
    assert_eq!(restored.len(), 800);
    let expected = db.with_tree(|t| t.all_objects());
    assert_eq!(restored.all_objects(), expected);
}

#[test]
fn point_and_rect_datasets_roundtrip_identically() {
    // Same seed, both dataset kinds, full insert + full delete: the index
    // must return to a single empty root.
    for kind in [
        DatasetKind::UniformPoints,
        DatasetKind::UniformRects { mean_extent: 0.05 },
    ] {
        let dataset = Dataset::generate(kind, 600, 77);
        let db = DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(6),
            ..Default::default()
        });
        let t = db.begin();
        for (oid, rect) in &dataset.objects {
            db.insert(t, *oid, *rect).unwrap();
        }
        db.commit(t).unwrap();
        for chunk in dataset.objects.chunks(40) {
            let t = db.begin();
            for (oid, rect) in chunk {
                assert!(db.delete(t, *oid, *rect).unwrap());
            }
            db.commit(t).unwrap();
        }
        assert_eq!(db.len(), 0, "{kind:?}");
        db.validate().unwrap();
        assert_eq!(
            db.with_tree(|t| t.height()),
            1,
            "{kind:?}: tree must shrink back to a lone leaf"
        );
    }
}

#[test]
fn snapshot_file_roundtrip_through_the_transactional_layer() {
    use granular_rtree::rtree::ObjectId;

    let db = DglRTree::new(DglConfig::default());
    let t = db.begin();
    for i in 0..300u64 {
        let f = (i % 91) as f64 / 100.0;
        let g = (i % 67) as f64 / 100.0;
        db.insert(
            t,
            ObjectId(i),
            Rect2::new([f * 0.9, g * 0.9], [f * 0.9 + 0.01, g * 0.9 + 0.01]),
        )
        .unwrap();
    }
    db.commit(t).unwrap();
    // Leave one committed-but-tombstoned entry behind by snapshotting a
    // tree image that still carries a tombstone (simulating a crash after
    // commit, before the deferred deletion ran).
    let victim = ObjectId(7);
    let victim_rect = Rect2::new(
        [0.07 * 0.9, 0.07 * 0.9],
        [0.07 * 0.9 + 0.01, 0.07 * 0.9 + 0.01],
    );
    let path = std::env::temp_dir().join(format!("dgl-e2e-{}.tree", std::process::id()));
    db.with_tree(|tree| {
        let mut copy: granular_rtree::rtree::RTree2 = image::decode(&image::encode(tree)).unwrap();
        assert!(copy.set_tombstone(victim, victim_rect, 999));
        std::fs::write(&path, image::encode(&copy)).unwrap();
    });

    let tree = image::decode(&std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let restored = DglRTree::from_snapshot(tree, DglConfig::default()).unwrap();
    // Recovery completed the deferred deletion of the tombstoned entry.
    assert_eq!(restored.len(), 299);
    restored.validate().unwrap();
    let t = restored.begin();
    assert!(restored
        .read_single(t, victim, victim_rect)
        .unwrap()
        .is_none());
    // Fully operational.
    restored
        .insert(t, ObjectId(9_000), Rect2::new([0.5, 0.5], [0.51, 0.51]))
        .unwrap();
    assert_eq!(restored.read_scan(t, Rect2::unit()).unwrap().len(), 300);
    restored.commit(t).unwrap();
}
