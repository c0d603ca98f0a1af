//! Group commit: the log's flusher syncs whatever is pending as soon as
//! it is free, so concurrent commits that queue behind an in-flight
//! `fsync` share the next one, observed through the `wal_*` counters —
//! and sharing never weakens durability: every acknowledged commit
//! survives a crash and recovery.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use dgl_faults::FaultSpec;
use granular_rtree::core::{
    DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree, TxnError,
};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::obs::Ctr;
use granular_rtree::rtree::{ObjectId, RTreeConfig};

/// Keeps runs within this file from sharing directories.
static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);
/// The failpoint registry is process-global: the tests of this file run
/// one at a time, so the flush delay one arms reaches no other.
static SERIAL: Mutex<()> = Mutex::new(());

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dgl-groupcommit-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(6),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(500),
        },
        checkpoint_threshold: None,
        ..Default::default()
    }
}

/// N concurrent committers: the fsync count must stay well under
/// one-per-commit (each flush drains every commit that queued behind the
/// one before it — `ceil(N / batch)` flushes for batch ≥ 2 is at most
/// `N / 2`), and every acknowledged commit must survive a crash +
/// recovery.
///
/// During the commit storm every flush first sleeps 10 ms at the
/// `wal/fsync` failpoint (a delay only sleeps: the flush itself goes
/// through). The batch a flush writes is cut before that sleep, so the
/// commits that arrive meanwhile queue for the next one whatever the
/// host's scheduler does — without it, a loaded host that runs the
/// committers one at a time can leave every batch at one commit. With
/// no batching window, the sleep alone must outlast a starved
/// committer's work between two commits: at 2 ms, a debug build under
/// two busy loops on two vCPUs read 81 and 102 fsyncs in 150 runs; at
/// 10 ms, at most 76.
#[test]
fn concurrent_commits_batch_fsyncs_and_survive() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = TempDir::new("batch");
    let cfg = config();
    let db = Arc::new(DglRTree::open(dir.path(), cfg.clone()).expect("open"));
    let slow_flush = dgl_faults::register("wal/fsync", FaultSpec::delay(Duration::from_millis(10)));

    const THREADS: u64 = 8;
    const TXNS: u64 = 20;
    const N: u64 = THREADS * TXNS;

    let fsyncs_before = db.obs().ctr(Ctr::WalFsyncs);
    let grouped_before = db.obs().ctr(Ctr::WalGroupCommitCommits);

    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let acked: Vec<BTreeMap<u64, Rect2>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            handles.push(s.spawn(move || {
                barrier.wait();
                let mut mine = BTreeMap::new();
                for i in 0..TXNS {
                    let oid = (tid << 32) | (i + 1);
                    let x = 0.01 + 0.9 * ((tid as f64 + 0.3) / THREADS as f64);
                    let y = 0.01 + 0.9 * ((i as f64 + 0.3) / TXNS as f64);
                    let rect = Rect2::new([x, y], [x + 0.004, y + 0.004]);
                    loop {
                        let txn = db.begin();
                        match db
                            .insert(txn, ObjectId(oid), rect)
                            .and_then(|()| db.commit(txn))
                        {
                            Ok(()) => break,
                            Err(TxnError::Deadlock | TxnError::Timeout) => continue,
                            Err(e) => panic!("writer {tid}: {e}"),
                        }
                    }
                    mine.insert(oid, rect);
                }
                mine
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    drop(slow_flush);
    let fsyncs = db.obs().ctr(Ctr::WalFsyncs) - fsyncs_before;
    let grouped = db.obs().ctr(Ctr::WalGroupCommitCommits) - grouped_before;
    eprintln!("group commit: {N} commits, {fsyncs} fsyncs, {grouped} commits counted grouped");
    assert_eq!(grouped, N, "every commit flows through group commit");
    assert!(
        fsyncs <= N / 2,
        "{N} concurrent commits took {fsyncs} fsyncs — batching is not happening \
         (bound: ceil(N/batch) with average batch ≥ 2, i.e. ≤ {})",
        N / 2
    );
    assert!(fsyncs > 0, "durable commits must fsync at least once");

    // Batching must not have weakened durability: crash and recover.
    db.crash_wal();
    drop(db);
    let recovered = DglRTree::recover(dir.path(), cfg).expect("recover");
    let txn = recovered.begin();
    let seen: BTreeMap<u64, Rect2> = recovered
        .read_scan(txn, Rect2::unit())
        .expect("scan")
        .iter()
        .map(|h| (h.oid.0, h.rect))
        .collect();
    recovered.commit(txn).expect("scan commit");
    let mut expected = BTreeMap::new();
    for m in acked {
        expected.extend(m);
    }
    assert_eq!(seen, expected, "an acked group-committed op was lost");
    recovered.validate().expect("validate");
}

/// Control: serial commits fsync one-per-commit (no queue to share a
/// flush with), pinning the counter semantics the sharing assertion
/// above relies on.
#[test]
fn immediate_policy_fsyncs_every_serial_commit() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = TempDir::new("immediate");
    let cfg = config();
    let db = DglRTree::open(dir.path(), cfg).expect("open");

    let before = db.obs().ctr(Ctr::WalFsyncs);
    for i in 1..=10u64 {
        let txn = db.begin();
        db.insert(
            txn,
            ObjectId(i),
            Rect2::new([0.05 * i as f64, 0.1], [0.05 * i as f64 + 0.01, 0.11]),
        )
        .expect("insert");
        db.commit(txn).expect("commit");
    }
    let fsyncs = db.obs().ctr(Ctr::WalFsyncs) - before;
    assert!(
        fsyncs >= 10,
        "10 serial immediate commits must each reach the disk ({fsyncs} fsyncs)"
    );
}
