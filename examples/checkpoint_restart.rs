//! Checkpoint / restart: a durable index comes back from a crash with
//! every page on its original id.
//!
//! Page-id stability matters for this system in particular: the locking
//! protocol names granules by page id ("a logical range can be easily
//! transferred into a sequence of purely physical locks"), so a restart
//! that renumbered pages would silently invalidate the granule scheme.
//!
//! ```sh
//! cargo run --example checkpoint_restart
//! ```

use granular_rtree::core::{DglConfig, DglRTree, Rect2, TransactionalRTree};
use granular_rtree::pager::PageId;
use granular_rtree::rtree::{Node, ObjectId, RTreeConfig};

fn pages(db: &DglRTree) -> Vec<(PageId, Node<2>)> {
    db.with_tree(|t| t.pages().map(|(pid, node)| (pid, node.clone())).collect())
}

fn main() {
    let dir = std::env::temp_dir().join(format!("dgl-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DglConfig {
        rtree: RTreeConfig::with_fanout(8),
        ..Default::default()
    };
    let db = DglRTree::open(&dir, config.clone()).expect("open");

    // Load, then delete a sixth of the objects: condensation frees pages
    // and leaves holes in the page space.
    let mut state = 0xDEADBEEFu64;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let rects: Vec<Rect2> = (0..2_000)
        .map(|_| {
            let (x, y) = (rnd() * 0.95, rnd() * 0.95);
            Rect2::new([x, y], [x + rnd() * 0.04, y + rnd() * 0.04])
        })
        .collect();
    for (chunk, rects) in rects.chunks(100).enumerate() {
        let t = db.begin();
        for (i, rect) in rects.iter().enumerate() {
            let oid = ObjectId((chunk * 100 + i) as u64);
            db.insert(t, oid, *rect).expect("insert");
        }
        db.commit(t).expect("commit");
    }
    let t = db.begin();
    for i in (0..1_000).step_by(3) {
        assert!(db.delete(t, ObjectId(i as u64), rects[i]).expect("delete"));
    }
    db.commit(t).expect("commit");
    db.validate().expect("valid before the crash");

    let before = pages(&db);
    let slots = before.last().expect("a root").0 .0 + 1;
    let holes = slots - before.len() as u64;
    assert!(holes > 0, "the churn left no hole to preserve");
    println!(
        "built index: {} objects, height {}, {} pages over {slots} page ids ({holes} freed)",
        db.len(),
        db.with_tree(|t| t.height()),
        before.len()
    );

    // Checkpoint (snapshot file + log truncation), then die without a
    // clean shutdown: only what reached the disk survives.
    db.checkpoint().expect("checkpoint");
    db.crash_wal();
    drop(db);
    let snapshot_bytes: u64 = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "tree"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .sum();
    println!("checkpoint: {snapshot_bytes} bytes of snapshot on disk; process crashed");

    let db = DglRTree::recover(&dir, config).expect("recover");
    db.validate().expect("valid after recovery");
    let after = pages(&db);
    assert_eq!(after.len(), before.len());
    for ((pid, node), (pid_after, node_after)) in before.iter().zip(&after) {
        assert_eq!(pid, pid_after, "page {pid} renumbered");
        assert_eq!(node, node_after, "page {pid} differs");
    }
    println!(
        "recovered: every granule on its original page id, contents identical ({} objects)",
        db.len()
    );

    // The recovered index is fully operational (and durable again).
    let t = db.begin();
    let probe = Rect2::new([0.4, 0.4], [0.6, 0.6]);
    let seen = db.read_scan(t, probe).expect("scan").len();
    db.insert(t, ObjectId(1_000_000), Rect2::new([0.5, 0.5], [0.51, 0.51]))
        .expect("insert");
    assert_eq!(db.read_scan(t, probe).expect("scan").len(), seen + 1);
    db.commit(t).expect("commit");
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
    println!("checkpoint_restart OK");
}
