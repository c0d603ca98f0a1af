//! Table 4: granular locking vs predicate locking (vs whole-tree
//! locking) under a multi-user load.
//!
//! The paper's Table 4 is qualitative — lock overhead, I/O overhead, and
//! achievable concurrency — and explicitly defers the empirical
//! comparison ("a comparative analysis between the two approaches based
//! on empirical studies will be reported elsewhere"). This experiment is
//! that study: identical seeded workloads run through every protocol,
//! reporting committed-transaction throughput, abort rate, lock-manager
//! traffic, predicate-table traffic and insert I/O.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dgl_core::baseline::{ObjectOnlyRTree, PredicateRTree, TreeLockRTree, ZOrderRTree};
use dgl_core::{DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree};
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::{Ctr, Hist};
use dgl_rtree::RTreeConfig;
use dgl_workload::{Op, OpMix, OpStream};
use serde::Serialize;

/// Workload shape for the comparison.
#[derive(Debug, Clone, Copy)]
pub struct Table4Config {
    /// Concurrent worker threads.
    pub threads: u64,
    /// Committed transactions per thread.
    pub txns_per_thread: u64,
    /// Operations per transaction.
    pub ops_per_txn: u64,
    /// R-tree fanout.
    pub fanout: usize,
    /// Objects preloaded before timing starts.
    pub preload: u64,
    /// Workload seed.
    pub seed: u64,
    /// Client think time after each scan operation, with the transaction
    /// still open. Zero makes the run a pure CPU microbenchmark (where
    /// coarse locking's cheap operations win); a realistic interactive
    /// delay (the paper assumes ~60 txns/s clients) is where granular
    /// locking's concurrency pays: coarse locks serialize the think time.
    pub think_time: Duration,
}

impl Default for Table4Config {
    fn default() -> Self {
        Self {
            threads: 4,
            txns_per_thread: 100,
            ops_per_txn: 4,
            fanout: 24,
            preload: 2_000,
            seed: 42,
            think_time: Duration::ZERO,
        }
    }
}

/// Metrics for one protocol run.
#[derive(Debug, Clone, Serialize)]
pub struct ProtocolMetrics {
    /// Protocol name.
    pub protocol: String,
    /// Committed transactions per second.
    pub txns_per_sec: f64,
    /// Transactions aborted (deadlock/timeout victims) per commit.
    pub abort_rate: f64,
    /// Lock-manager requests per committed transaction (the preload's
    /// requests are not counted).
    pub lock_requests_per_txn: f64,
    /// Lock waits per committed transaction.
    pub waits_per_txn: f64,
    /// Predicate-rectangle comparisons per committed transaction
    /// (predicate locking only; 0 elsewhere; the preload's are not
    /// counted).
    pub predicate_checks_per_txn: f64,
    /// Total wall-clock seconds.
    pub elapsed_secs: f64,
}

/// Builds the protocol set compared by Table 4.
pub fn protocols(fanout: usize) -> Vec<Arc<dyn TransactionalRTree>> {
    let lock = LockManagerConfig {
        wait_timeout: Duration::from_secs(10),
    };
    vec![
        Arc::new(DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(fanout),
            policy: InsertPolicy::Modified,
            lock: lock.clone(),
            ..Default::default()
        })),
        Arc::new(DglRTree::new(DglConfig {
            rtree: RTreeConfig::with_fanout(fanout),
            policy: InsertPolicy::Base,
            lock: lock.clone(),
            ..Default::default()
        })),
        Arc::new(PredicateRTree::new(
            RTreeConfig::with_fanout(fanout),
            Rect2::unit(),
            lock.clone(),
        )),
        Arc::new(TreeLockRTree::new(
            RTreeConfig::with_fanout(fanout),
            Rect2::unit(),
            lock,
        )),
    ]
}

/// Runs one protocol under the configured workload and collects metrics.
fn run_protocol(
    db: Arc<dyn TransactionalRTree>,
    mix: OpMix,
    cfg: &Table4Config,
) -> ProtocolMetrics {
    // Preload.
    {
        let mut stream = OpStream::new(mix, 10_000, cfg.seed);
        let t = db.begin();
        let mut loaded = 0;
        while loaded < cfg.preload {
            if let Op::Insert(oid, rect) = stream.next_op() {
                db.insert(t, oid, rect).expect("preload insert");
                stream.committed(&Op::Insert(oid, rect));
                loaded += 1;
            }
        }
        db.commit(t).unwrap();
    }
    // The preload is one transaction of `preload` inserts; its requests
    // and predicate checks (quadratic in `preload`: every insert checks
    // the transaction's own earlier predicates) are not the workload's.
    let before = db.obs_registry().snapshot();

    let start = Instant::now();
    let (commits, aborts): (u64, u64) = crossbeam::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..cfg.threads {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move |_| {
                let mut stream = OpStream::new(mix, tid, cfg.seed);
                let mut commits = 0u64;
                let mut aborts = 0u64;
                while commits < cfg.txns_per_thread {
                    let txn = db.begin();
                    let mut applied: Vec<Op> = Vec::new();
                    let mut failed = false;
                    for _ in 0..cfg.ops_per_txn {
                        let op = stream.next_op();
                        let result = match op {
                            Op::Insert(oid, rect) => db.insert(txn, oid, rect).map(|()| true),
                            Op::Delete(oid, rect) => db.delete(txn, oid, rect),
                            Op::ReadScan(q) => db.read_scan(txn, q).map(|_| true),
                            Op::UpdateScan(q) => db.update_scan(txn, q).map(|_| true),
                            Op::ReadSingle(oid, rect) => {
                                db.read_single(txn, oid, rect).map(|_| true)
                            }
                            Op::UpdateSingle(oid, rect) => db.update_single(txn, oid, rect),
                        };
                        let was_scan = matches!(op, Op::ReadScan(_) | Op::UpdateScan(_));
                        match result {
                            Ok(_) => applied.push(op),
                            Err(dgl_core::TxnError::DuplicateObject) => {}
                            Err(_) => {
                                failed = true;
                                break;
                            }
                        }
                        if was_scan && !cfg.think_time.is_zero() {
                            std::thread::sleep(cfg.think_time);
                        }
                    }
                    if failed {
                        aborts += 1;
                        continue;
                    }
                    db.commit(txn).expect("commit");
                    for op in &applied {
                        stream.committed(op);
                    }
                    commits += 1;
                }
                (commits, aborts)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(c, a), (dc, da)| (c + dc, a + da))
    })
    .unwrap();
    let elapsed = start.elapsed().as_secs_f64();

    // Protocol-specific costs, all from the protocol's one registry.
    let obs = db.obs_registry().snapshot().since(&before);
    let lock_requests = obs.lock_requests();
    let waits = obs.hist(Hist::LockWait).count;
    let predicate_checks = obs.ctr(Ctr::PredicateChecks);
    ProtocolMetrics {
        protocol: db.name().to_string(),
        txns_per_sec: commits as f64 / elapsed,
        abort_rate: aborts as f64 / commits.max(1) as f64,
        lock_requests_per_txn: lock_requests as f64 / commits.max(1) as f64,
        waits_per_txn: waits as f64 / commits.max(1) as f64,
        predicate_checks_per_txn: predicate_checks as f64 / commits.max(1) as f64,
        elapsed_secs: elapsed,
    }
}

/// Runs the full comparison.
pub fn run_comparison(mix: OpMix, cfg: &Table4Config) -> Vec<ProtocolMetrics> {
    protocols(cfg.fanout)
        .into_iter()
        .map(|db| run_protocol(db, mix, cfg))
        .collect()
}

/// Table 4's protocols plus the Z-order and object-only baselines.
fn all_protocols(fanout: usize) -> Vec<Arc<dyn TransactionalRTree>> {
    let mut all = protocols(fanout);
    all.push(Arc::new(ZOrderRTree::new(
        RTreeConfig::with_fanout(fanout),
        Rect2::unit(),
        LockManagerConfig::default(),
    )));
    all.push(Arc::new(ObjectOnlyRTree::new(
        RTreeConfig::with_fanout(fanout),
        Rect2::unit(),
        LockManagerConfig::default(),
    )));
    all
}

/// Every protocol's lock requests and predicate checks per committed
/// transaction at one thread, for the read-mostly and write-heavy mixes
/// (default [`Table4Config`] otherwise). With one thread nothing waits or
/// aborts, so the counts are a function of the seed alone.
pub fn one_thread_costs() -> Vec<[ProtocolMetrics; 2]> {
    let cfg = Table4Config {
        threads: 1,
        ..Default::default()
    };
    all_protocols(cfg.fanout)
        .into_iter()
        .zip(all_protocols(cfg.fanout))
        .map(|(a, b)| {
            [
                run_protocol(a, OpMix::read_mostly(), &cfg),
                run_protocol(b, OpMix::write_heavy(), &cfg),
            ]
        })
        .collect()
}

/// Markdown rendering of [`one_thread_costs`].
pub fn render_costs(rows: &[[ProtocolMetrics; 2]]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|[read, write]| {
            vec![
                read.protocol.clone(),
                crate::report::f2(read.lock_requests_per_txn),
                crate::report::f2(read.predicate_checks_per_txn),
                crate::report::f2(write.lock_requests_per_txn),
                crate::report::f2(write.predicate_checks_per_txn),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "Protocol",
            "Read-mostly lock reqs/txn",
            "Read-mostly pred checks/txn",
            "Write-heavy lock reqs/txn",
            "Write-heavy pred checks/txn",
        ],
        &body,
    )
}

/// Markdown rendering of a comparison.
pub fn render(rows: &[ProtocolMetrics]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|m| {
            vec![
                m.protocol.clone(),
                format!("{:.0}", m.txns_per_sec),
                crate::report::pct(m.abort_rate),
                format!("{:.1}", m.lock_requests_per_txn),
                format!("{:.2}", m.waits_per_txn),
                format!("{:.1}", m.predicate_checks_per_txn),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "Protocol",
            "Txns/s",
            "Abort rate",
            "Lock reqs/txn",
            "Waits/txn",
            "Pred checks/txn",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_runs_and_reports_protocol_costs() {
        let cfg = Table4Config {
            threads: 4,
            txns_per_thread: 25,
            ops_per_txn: 3,
            fanout: 12,
            preload: 300,
            seed: 7,
            think_time: Duration::ZERO,
        };
        let rows = run_comparison(OpMix::balanced(), &cfg);
        assert_eq!(rows.len(), 4);
        for m in &rows {
            assert!(m.txns_per_sec > 0.0, "{m:?}");
        }
        let by_name = |n: &str| rows.iter().find(|m| m.protocol == n).unwrap();
        let dgl = by_name("dgl-modified");
        let pred = by_name("predicate (GiST-style)");
        let tree = by_name("tree-lock");
        // The paper's qualitative cost axes: granular locking issues many
        // fine lock-manager requests (more than one whole-tree lock per
        // op), predicate locking pays rectangle comparisons instead.
        assert!(dgl.lock_requests_per_txn > tree.lock_requests_per_txn);
        assert!(pred.predicate_checks_per_txn > 0.0);
    }

    #[test]
    fn granular_locking_wins_once_transactions_hold_locks() {
        // With client think time inside transactions, coarse locking
        // serializes the waits; granular locking overlaps them. This is
        // the concurrency claim of the paper's introduction.
        let cfg = Table4Config {
            threads: 8,
            txns_per_thread: 12,
            ops_per_txn: 3,
            fanout: 24,
            preload: 1_000,
            seed: 11,
            think_time: Duration::from_millis(2),
        };
        let rows = run_comparison(OpMix::read_mostly(), &cfg);
        let by_name = |n: &str| rows.iter().find(|m| m.protocol == n).unwrap();
        let dgl = by_name("dgl-modified");
        let tree = by_name("tree-lock");
        assert!(
            dgl.txns_per_sec > 1.5 * tree.txns_per_sec,
            "granular {:.0} txns/s must clearly beat whole-tree {:.0} under held locks",
            dgl.txns_per_sec,
            tree.txns_per_sec
        );
    }
}
