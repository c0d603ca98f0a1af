//! `hunt` — loops the Table 4 scaling workload under a watchdog to
//! reproduce and diagnose rare hangs. On a stall it dumps the lock table,
//! active transactions and operation counters, then aborts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dgl_bench::experiments::table4::Table4Config;
use dgl_core::{DglConfig, DglRTree, InsertPolicy, TransactionalRTree, TxnError};
use dgl_lockmgr::LockManagerConfig;
use dgl_rtree::RTreeConfig;
use dgl_workload::{Op, OpMix, OpStream};
use parking_lot::Mutex;

/// Runs the workload with per-worker phase tracking so the watchdog can
/// report exactly where each worker is stuck.
fn run_tracked(
    db: &Arc<DglRTree>,
    cfg: &Table4Config,
    mix: OpMix,
    phases: &Arc<Mutex<Vec<String>>>,
) {
    crossbeam::scope(|s| {
        for tid in 0..cfg.threads {
            let db = Arc::clone(db);
            let phases = Arc::clone(phases);
            let cfg = *cfg;
            s.spawn(move |_| {
                let set = |msg: String| phases.lock()[tid as usize] = msg;
                let mut stream = OpStream::new(mix, tid, cfg.seed);
                let mut commits = 0u64;
                while commits < cfg.txns_per_thread {
                    let txn = db.begin();
                    let mut applied = Vec::new();
                    let mut failed = false;
                    for k in 0..cfg.ops_per_txn {
                        let op = stream.next_op();
                        set(format!("{txn} op{k} {op:?}"));
                        let r: Result<(), TxnError> = match op {
                            Op::Insert(oid, rect) => db.insert(txn, oid, rect),
                            Op::Delete(oid, rect) => db.delete(txn, oid, rect).map(|_| ()),
                            Op::ReadScan(q) => db.read_scan(txn, q).map(|_| ()),
                            Op::UpdateScan(q) => db.update_scan(txn, q).map(|_| ()),
                            Op::ReadSingle(oid, rect) => db.read_single(txn, oid, rect).map(|_| ()),
                            Op::UpdateSingle(oid, rect) => {
                                db.update_single(txn, oid, rect).map(|_| ())
                            }
                        };
                        match r {
                            Ok(()) => applied.push(op),
                            Err(TxnError::DuplicateObject) => {}
                            Err(_) => {
                                failed = true;
                                break;
                            }
                        }
                        if !cfg.think_time.is_zero() {
                            std::thread::sleep(cfg.think_time);
                        }
                    }
                    if failed {
                        set(format!("{txn} aborted"));
                        continue;
                    }
                    set(format!("{txn} committing"));
                    db.commit(txn).expect("commit");
                    for op in &applied {
                        stream.committed(op);
                    }
                    commits += 1;
                    set(format!("{txn} committed ({commits})"));
                }
                set("done".into());
            });
        }
    })
    .unwrap();
}

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50);
    let progress = Arc::new(AtomicU64::new(0));

    for round in 0..rounds {
        for threads in [2u64, 4, 8] {
            let cfg = Table4Config {
                threads,
                txns_per_thread: 40,
                ops_per_txn: 4,
                fanout: 24,
                preload: 500,
                seed: round * 31 + threads,
                think_time: Duration::from_millis(1),
            };
            let db = Arc::new(DglRTree::new(DglConfig {
                rtree: RTreeConfig::with_fanout(cfg.fanout),
                policy: if round % 2 == 0 {
                    InsertPolicy::Modified
                } else {
                    InsertPolicy::Base
                },
                lock: LockManagerConfig {
                    wait_timeout: Duration::from_secs(10),
                    ..Default::default()
                },
                ..Default::default()
            }));

            // Preload.
            {
                let mut stream = OpStream::new(OpMix::balanced(), 10_000, cfg.seed);
                let t = db.begin();
                let mut loaded = 0;
                while loaded < cfg.preload {
                    if let Op::Insert(oid, rect) = stream.next_op() {
                        db.insert(t, oid, rect).unwrap();
                        loaded += 1;
                    }
                }
                db.commit(t).unwrap();
            }
            let phases = Arc::new(Mutex::new(vec![String::new(); threads as usize]));

            // Watchdog: if this round takes > 60 s, dump and abort.
            let before = progress.load(Ordering::SeqCst);
            let db_watch = Arc::clone(&db);
            let progress_watch = Arc::clone(&progress);
            let phases_watch = Arc::clone(&phases);
            let watchdog = std::thread::spawn(move || {
                for _ in 0..60 {
                    std::thread::sleep(Duration::from_secs(1));
                    if progress_watch.load(Ordering::SeqCst) != before {
                        return; // round finished
                    }
                }
                eprintln!("=== HANG DETECTED (round {round}, {threads} threads) ===");
                eprintln!("{}", db_watch.lock_manager().debug_dump());
                eprintln!(
                    "active txns: {}, latch (r,w) available: {:?}",
                    db_watch.txn_manager().active_count(),
                    db_watch.latch_probe(),
                );
                eprintln!("registry: {}", db_watch.obs_json());
                for (i, p) in phases_watch.lock().iter().enumerate() {
                    eprintln!("worker {i}: {p}");
                }
                std::process::abort();
            });

            run_tracked(&db, &cfg, OpMix::balanced(), &phases);
            progress.fetch_add(1, Ordering::SeqCst);
            watchdog.join().unwrap();
            println!("round {round} threads {threads}: ok");
        }
    }
    println!("hunt finished without hangs");
}
