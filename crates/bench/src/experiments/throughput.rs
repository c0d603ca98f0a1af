//! Multi-threaded aggregate throughput: the DGL protocol vs whole-tree
//! locking vs the space-partitioned sharded router, swept over threads ×
//! operation mix (× shard count).
//!
//! `dgl-optimistic` is the stock protocol (plan under the shared latch,
//! validate + apply under a short exclusive one). `tree-lock` rides along
//! as the coarse-locking floor, the durable / snapshot / hash pairs each
//! isolate one subsystem, and `dgl-sharded-N` points measure what spatial
//! partitioning buys once the single tree's structure latch saturates.
//! Every per-cell counter and percentile is a
//! [`RegistrySnapshot::since`] delta of the contender's registry.
//!
//! Emitted as `BENCH_throughput.json` by the `throughput` binary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dgl_core::baseline::TreeLockRTree;
use dgl_core::{
    DglConfig, DglRTree, DurabilityConfig, InsertPolicy, ShardedDglRTree, ShardingConfig,
    SnapshotReadRTree, SyncPolicy, TransactionalRTree,
};
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::{Ctr, Hist, RegistrySnapshot};
use dgl_rtree::RTreeConfig;
use dgl_workload::{DriveConfig, Op, OpMix, OpStream};

/// Group-commit batching window for the durable contender. Deliberately
/// smaller than one `fsync` on typical media: the flusher syncs an idle
/// log immediately, and under load the in-flight `fsync` itself is what
/// accumulates the next batch — the window only stops a flush storm on
/// very fast media. Commit latency therefore tracks the device's flush
/// cost, not an artificial wait.
const GROUP_COMMIT_WINDOW: Duration = Duration::from_micros(50);

/// Sweep shape.
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Thread counts to sweep.
    pub threads: Vec<u64>,
    /// Committed transactions per thread per pass at each point.
    pub txns_per_thread: u64,
    /// Operations per transaction.
    pub ops_per_txn: u64,
    /// R-tree fanout.
    pub fanout: usize,
    /// Objects preloaded before timing starts.
    pub preload: u64,
    /// Workload seed.
    pub seed: u64,
    /// Shard counts for the `dgl-sharded-N` contenders (the unsharded
    /// contenders are the 1-shard baseline). Empty disables them.
    pub shards: Vec<u64>,
    /// Minimum measured duration per cell, seconds. A cell that finishes
    /// its fixed transaction count faster repeats whole passes (fresh
    /// disjoint oid spaces each pass) until the floor is met; rows report
    /// totals across passes. Sub-10ms cells measure scheduler noise, not
    /// the protocol.
    pub min_cell_secs: f64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            threads: vec![1, 2, 4, 8],
            txns_per_thread: 400,
            ops_per_txn: 2,
            fanout: 16,
            preload: 4_000,
            seed: 42,
            shards: vec![2, 4],
            min_cell_secs: 0.25,
        }
    }
}

impl ThroughputConfig {
    /// Tiny run for CI smoke checks: the sweep still crosses every code
    /// path (every contender, contention at 8 threads) in ~seconds.
    /// Shard contenders are off by default here; the CI sharded leg adds
    /// them back with `--shards`.
    pub fn smoke() -> Self {
        Self {
            threads: vec![2, 8],
            txns_per_thread: 30,
            preload: 400,
            shards: vec![],
            ..Self::default()
        }
    }
}

/// The read-heavy 90/10 mix (90 % reads, 10 % writes) the scalability
/// target is stated against, plus the stock mixes.
pub fn mixes() -> Vec<(&'static str, OpMix)> {
    let read_heavy = OpMix {
        insert: 4,
        delete: 2,
        read_scan: 55,
        update_scan: 0,
        read_single: 35,
        update_single: 4,
        scan_extent: 0.06,
        object_extent: 0.01,
    };
    vec![
        ("read-heavy-90-10", read_heavy),
        ("balanced", OpMix::balanced()),
        ("write-heavy", OpMix::write_heavy()),
        ("scan-heavy", OpMix::scan_heavy()),
        ("point-heavy", OpMix::point_heavy()),
    ]
}

/// One contender: the trait object the workload drives, plus a concrete
/// handle (when there is one) for the counters that are not part of the
/// common trait.
struct Contender {
    label: String,
    db: Arc<dyn TransactionalRTree>,
    dgl: Option<Arc<DglRTree>>,
    /// The snapshot-read wrapper (`dgl-snapshot`): its inner tree carries
    /// the concrete counters.
    snap: Option<Arc<SnapshotReadRTree>>,
    sharded: Option<Arc<ShardedDglRTree>>,
    /// Shard count (1 for every single-tree contender).
    shards: u64,
    /// Scratch directory keeping a durable contender's WAL alive for
    /// the sweep; removed when the contender is dropped.
    _dir: Option<BenchDir>,
}

/// Scratch directory for the durability contenders.
struct BenchDir(std::path::PathBuf);

impl BenchDir {
    fn new(tag: &str) -> Self {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "dgl-bench-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("bench scratch dir");
        Self(path)
    }
}

impl Drop for BenchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn contenders(cfg: &ThroughputConfig) -> Vec<Contender> {
    let fanout = cfg.fanout;
    let lock = LockManagerConfig {
        wait_timeout: Duration::from_secs(10),
        ..Default::default()
    };
    let base_config = || DglConfig {
        rtree: RTreeConfig::with_fanout(fanout),
        policy: InsertPolicy::Modified,
        lock: lock.clone(),
        ..Default::default()
    };
    let stock = || Arc::new(DglRTree::new(base_config()));
    // The durability pair shares one code path (`open`) and differs only
    // in whether a WAL is attached, so the delta isolates the full cost
    // of durable commits (logging + group-commit fsync waits).
    let durable_with = |tag: &'static str, enabled: bool| {
        let dir = BenchDir::new(tag);
        let db = Arc::new(
            DglRTree::open(
                &dir.0,
                DglConfig {
                    durability: DurabilityConfig {
                        enabled,
                        sync: SyncPolicy::Batch(GROUP_COMMIT_WINDOW),
                        ..Default::default()
                    },
                    ..base_config()
                },
            )
            .expect("open bench dir"),
        );
        (db, dir)
    };
    let optimistic = stock();
    let (durable, durable_dir) = durable_with("durable", true);
    let (durable_off, durable_off_dir) = durable_with("durable-off", false);
    let snapshot = Arc::new(SnapshotReadRTree::new(DglRTree::new(base_config())));
    // The hash-index pair: identical protocol, differing only
    // in whether point reads consult the object→leaf hash index
    // (`hash_reads`). The dup-probe and index maintenance run on both
    // (the index IS the payload table), so the delta isolates exactly
    // what the read-path fast path buys.
    let hash_on = stock();
    let hash_off = Arc::new(DglRTree::new(DglConfig {
        hash_reads: false,
        ..base_config()
    }));
    let mut out = vec![
        Contender {
            label: "dgl-optimistic".to_string(),
            db: Arc::<DglRTree>::clone(&optimistic) as Arc<dyn TransactionalRTree>,
            dgl: Some(optimistic),
            snap: None,
            sharded: None,
            shards: 1,
            _dir: None,
        },
        Contender {
            label: "dgl-durable".to_string(),
            db: Arc::<DglRTree>::clone(&durable) as Arc<dyn TransactionalRTree>,
            dgl: Some(durable),
            snap: None,
            sharded: None,
            shards: 1,
            _dir: Some(durable_dir),
        },
        Contender {
            label: "dgl-durable-off".to_string(),
            db: Arc::<DglRTree>::clone(&durable_off) as Arc<dyn TransactionalRTree>,
            dgl: Some(durable_off),
            snap: None,
            sharded: None,
            shards: 1,
            _dir: Some(durable_off_dir),
        },
        Contender {
            label: "tree-lock".to_string(),
            db: Arc::new(TreeLockRTree::new(
                RTreeConfig::with_fanout(fanout),
                dgl_core::Rect2::unit(),
                lock.clone(),
            )),
            dgl: None,
            snap: None,
            sharded: None,
            shards: 1,
            _dir: None,
        },
        // MVCC snapshot reads over the same optimistic protocol: writes
        // unchanged, reads through a per-transaction snapshot with zero
        // lock-manager traffic. The delta against `dgl-optimistic` on
        // the scan-heavy mix is the snapshot-vs-locking headline.
        Contender {
            label: "dgl-snapshot".to_string(),
            db: Arc::<SnapshotReadRTree>::clone(&snapshot) as Arc<dyn TransactionalRTree>,
            dgl: None,
            snap: Some(snapshot),
            sharded: None,
            shards: 1,
            _dir: None,
        },
        Contender {
            label: "dgl-hash".to_string(),
            db: Arc::<DglRTree>::clone(&hash_on) as Arc<dyn TransactionalRTree>,
            dgl: Some(hash_on),
            snap: None,
            sharded: None,
            shards: 1,
            _dir: None,
        },
        Contender {
            label: "dgl-hash-off".to_string(),
            db: Arc::<DglRTree>::clone(&hash_off) as Arc<dyn TransactionalRTree>,
            dgl: Some(hash_off),
            snap: None,
            sharded: None,
            shards: 1,
            _dir: None,
        },
    ];
    // The sharded grid: same optimistic protocol per shard, space split
    // by the router. Non-durable, like `dgl-optimistic`, so the delta is
    // purely what partitioning the structure latch + lock space buys.
    for &n in &cfg.shards {
        let sharded = Arc::new(ShardedDglRTree::new(
            base_config(),
            ShardingConfig {
                shards: n.max(1) as usize,
                max_object_extent: 0.05,
            },
        ));
        out.push(Contender {
            label: format!("dgl-sharded-{n}"),
            db: Arc::<ShardedDglRTree>::clone(&sharded) as Arc<dyn TransactionalRTree>,
            dgl: None,
            snap: None,
            sharded: Some(sharded),
            shards: n.max(1),
            _dir: None,
        });
    }
    out
}

/// One measured point of the sweep. Metric columns are `None` when the
/// contender structurally does not produce that metric (e.g. `tree-lock`
/// has no optimistic write path and no exclusive structure latch) — the
/// JSON emits `null` there, never a misleading `0`.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Contender label (`dgl-optimistic`, `tree-lock`, `dgl-sharded-4`, …).
    pub protocol: String,
    /// Mix label.
    pub mix: String,
    /// Worker threads.
    pub threads: u64,
    /// Shard count (1 for single-tree contenders).
    pub shards: u64,
    /// Concurrent client connections (`dgl-net` rows only; the
    /// in-process contenders have no wire and emit `null`).
    pub connections: Option<u64>,
    /// Aggregate successful operations per second across all threads.
    pub ops_per_sec: f64,
    /// Committed transactions (all passes of the cell).
    pub commits: u64,
    /// Aborted attempts: retries spent on deadlock/timeout victims plus
    /// runs that exhausted their retry budget.
    pub aborts: u64,
    /// Lock-wait timeout verdicts over the measured interval. With the
    /// global deadlock detector armed (the default) a sharded cell
    /// should report `0` here: cross-shard cycles are wounded as proper
    /// deadlocks instead of being guessed at by the wait-timeout
    /// backstop.
    pub timeout_aborts: Option<u64>,
    /// Deadlock verdicts over the measured interval: per-shard lock
    /// manager wounds plus global-detector wounds.
    pub deadlock_aborts: Option<u64>,
    /// Wall-clock seconds (≥ the configured cell floor).
    pub elapsed_secs: f64,
    /// Stale plans detected under the exclusive latch, each forcing a
    /// replan (DGL only).
    pub plan_validation_failures: Option<u64>,
    /// Mean exclusive-latch hold of the write path, nanoseconds (DGL only).
    /// Kept for JSON compatibility; the percentile columns below are the
    /// headline numbers.
    pub avg_x_latch_nanos: Option<u64>,
    /// Total nanoseconds the tree was exclusively latched (readers shut
    /// out) over the measured interval (DGL only).
    pub x_latch_total_nanos: Option<u64>,
    /// Median lock-wait, nanoseconds, from the obs registry. Quantiles
    /// report the containing log2 bucket's upper bound.
    pub lock_wait_p50_nanos: Option<u64>,
    /// 95th-percentile lock-wait, nanoseconds.
    pub lock_wait_p95_nanos: Option<u64>,
    /// 99th-percentile lock-wait, nanoseconds.
    pub lock_wait_p99_nanos: Option<u64>,
    /// Median exclusive-latch hold, nanoseconds (DGL only).
    pub x_latch_p50_nanos: Option<u64>,
    /// 95th-percentile exclusive-latch hold, nanoseconds (DGL only).
    pub x_latch_p95_nanos: Option<u64>,
    /// 99th-percentile exclusive-latch hold, nanoseconds (DGL only).
    pub x_latch_p99_nanos: Option<u64>,
    /// Lock waits attributed to region scans (count). `0` on every
    /// `dgl-snapshot` row: its scans issue no lock-manager requests, so
    /// the scan kind vanishes from the per-op wait histogram.
    pub lock_wait_scan_count: Option<u64>,
    /// 95th-percentile scan lock-wait, nanoseconds.
    pub lock_wait_scan_p95_nanos: Option<u64>,
    /// Lock waits attributed to point reads (count).
    pub lock_wait_point_count: Option<u64>,
    /// 95th-percentile point-read lock-wait, nanoseconds.
    pub lock_wait_point_p95_nanos: Option<u64>,
    /// Lock waits attributed to writes (count).
    pub lock_wait_write_count: Option<u64>,
    /// 95th-percentile write lock-wait, nanoseconds.
    pub lock_wait_write_p95_nanos: Option<u64>,
    /// Snapshot scans served over the measured interval (MVCC read path;
    /// `0` for the locking contenders).
    pub snapshot_scans: Option<u64>,
    /// Point lookups the hash index answered without a tree traversal
    /// over the measured interval. `0` on `dgl-hash-off` rows (the
    /// read path never consults the index there).
    pub hash_hits: Option<u64>,
    /// Point lookups that fell back to a traversal (stale leaf hint) or
    /// a dead-list consult. After warmup on a point-heavy mix this
    /// stays ≈ 0: live objects resolve from the index directly.
    pub hash_misses: Option<u64>,
    /// `hits / (hits + misses)`; `null` when the cell did no hash
    /// lookups at all (e.g. the hash-off contender).
    pub hash_hit_rate: Option<f64>,
    /// Median commit latency, nanoseconds. For the durable contender
    /// this includes the group-commit fsync wait.
    pub commit_p50_nanos: Option<u64>,
    /// 95th-percentile commit latency, nanoseconds — the durability-tax
    /// headline compares this across `dgl-durable` / `dgl-durable-off`.
    pub commit_p95_nanos: Option<u64>,
    /// 99th-percentile commit latency, nanoseconds.
    pub commit_p99_nanos: Option<u64>,
}

/// Preload on a high thread id so worker oid spaces stay disjoint. Runs
/// once per contender per mix (the thread sweep reuses the index).
/// Batched under the abort-retry executor so a chaos build (injected
/// errors firing during preload) still loads everything.
fn preload(db: &Arc<dyn TransactionalRTree>, mix: OpMix, cfg: &ThroughputConfig) {
    let mut stream = OpStream::new(mix, 10_000, cfg.seed);
    let exec = dgl_core::TxnExecutor::new(db.as_ref(), dgl_core::RetryPolicy::default());
    let mut loaded = 0;
    while loaded < cfg.preload {
        let mut batch = Vec::new();
        while (batch.len() as u64) < (cfg.preload - loaded).min(100) {
            if let Op::Insert(oid, rect) = stream.next_op() {
                batch.push((oid, rect));
            }
        }
        exec.run(|txn| {
            for &(oid, rect) in &batch {
                db.insert(txn, oid, rect)?;
            }
            Ok(())
        })
        .expect("preload batch");
        for &(oid, rect) in &batch {
            stream.committed(&Op::Insert(oid, rect));
        }
        loaded += batch.len() as u64;
    }
}

/// One fixed-size pass of the workload: every thread drives its target
/// transaction count to completion. `pass` feeds the stream ids so
/// repeated passes (the minimum-duration floor) use fresh disjoint oid
/// spaces.
fn one_pass(
    db: &Arc<dyn TransactionalRTree>,
    mix: OpMix,
    threads: u64,
    pass: u64,
    cfg: &ThroughputConfig,
) -> (u64, u64, u64) {
    crossbeam::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let db = Arc::clone(db);
            // Offset per-point and per-pass so reruns on the same
            // contender (the sweep reuses one index per mix) never
            // collide on object ids.
            let stream_id = pass * 100_000 + threads * 1_000 + tid;
            let cfg = cfg.clone();
            handles.push(s.spawn(move |_| {
                let mut stream = OpStream::new(mix, stream_id, cfg.seed);
                let drive_cfg = DriveConfig {
                    ops_per_txn: cfg.ops_per_txn as usize,
                    ..DriveConfig::default()
                };
                let (mut ops, mut commits, mut aborts) = (0u64, 0u64, 0u64);
                // `drive` runs a fixed number of transactions; under heavy
                // contention (or chaos) some can exhaust their retry
                // budget, so keep topping up until the commit target is
                // met — the sweep's rows stay comparable across points.
                while commits < cfg.txns_per_thread {
                    let report = dgl_workload::drive(
                        db.as_ref(),
                        &mut stream,
                        &DriveConfig {
                            txns: (cfg.txns_per_thread - commits) as usize,
                            ..drive_cfg
                        },
                    );
                    assert_eq!(report.fatal, 0, "workload hit a non-retryable error");
                    ops += report.ops - report.duplicates;
                    commits += report.commits;
                    aborts += report.retries + report.giveups;
                }
                (ops, commits, aborts)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0, 0), |(o, c, a), (do_, dc, da)| {
                (o + do_, c + dc, a + da)
            })
    })
    .unwrap()
}

/// The concrete single-tree handle, reaching through the snapshot-read
/// wrapper when that is the contender.
fn dgl_handle(c: &Contender) -> Option<&DglRTree> {
    c.dgl
        .as_deref()
        .or_else(|| c.snap.as_deref().map(SnapshotReadRTree::inner))
}

fn obs_snapshot(c: &Contender) -> RegistrySnapshot {
    match (dgl_handle(c), &c.sharded) {
        (Some(d), _) => d.obs().snapshot(),
        (_, Some(s)) => s.obs_snapshot(),
        // Baselines report through the trait's registry hook.
        _ => {
            c.db.obs_registry()
                .expect("every in-process contender keeps a registry")
                .snapshot()
        }
    }
}

fn run_point(
    c: &Contender,
    mix_label: &str,
    mix: OpMix,
    threads: u64,
    cfg: &ThroughputConfig,
) -> ThroughputRow {
    let obs_before = obs_snapshot(c);
    let db = &c.db;
    let start = Instant::now();
    let (mut ops, mut commits, mut aborts) = (0u64, 0u64, 0u64);
    let mut pass = 0u64;
    // Minimum-duration floor: repeat whole fixed-size passes until the
    // cell has been measured for at least `min_cell_secs` — a cell over
    // in a few milliseconds reports scheduler noise, not throughput.
    loop {
        let (o, cm, ab) = one_pass(db, mix, threads, pass, cfg);
        ops += o;
        commits += cm;
        aborts += ab;
        pass += 1;
        if start.elapsed().as_secs_f64() >= cfg.min_cell_secs {
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    // Counters and percentiles come from the contender's registry; the
    // sweep reuses one index across thread counts, so take per-point
    // deltas. The exclusive-latch histogram and the stale-plan counter
    // only exist for DGL contenders — `tree-lock` has no structure latch
    // and no optimistic write path, so those columns stay None.
    let is_dgl = dgl_handle(c).is_some() || c.sharded.is_some();
    let delta = obs_snapshot(c).since(&obs_before);
    let wait = delta.hist(Hist::LockWait);
    let hold = is_dgl.then(|| delta.hist(Hist::LatchHold));
    let commit = delta.hist(Hist::Commit);
    let (hits, misses) = (delta.ctr(Ctr::HashHits), delta.ctr(Ctr::HashMisses));
    ThroughputRow {
        protocol: c.label.clone(),
        mix: mix_label.to_string(),
        threads,
        shards: c.shards,
        connections: None,
        ops_per_sec: ops as f64 / elapsed,
        commits,
        aborts,
        timeout_aborts: Some(delta.ctr(Ctr::LockTimeouts)),
        deadlock_aborts: Some(delta.ctr(Ctr::LockDeadlocks) + delta.ctr(Ctr::GlobalDeadlocks)),
        elapsed_secs: elapsed,
        plan_validation_failures: is_dgl.then(|| delta.ctr(Ctr::PlanValidationFailures)),
        avg_x_latch_nanos: hold.map(|h| h.mean()),
        x_latch_total_nanos: hold.map(|h| h.sum),
        lock_wait_p50_nanos: Some(wait.p50()),
        lock_wait_p95_nanos: Some(wait.p95()),
        lock_wait_p99_nanos: Some(wait.p99()),
        lock_wait_scan_count: Some(delta.hist(Hist::LockWaitScan).count),
        lock_wait_scan_p95_nanos: Some(delta.hist(Hist::LockWaitScan).p95()),
        lock_wait_point_count: Some(delta.hist(Hist::LockWaitPoint).count),
        lock_wait_point_p95_nanos: Some(delta.hist(Hist::LockWaitPoint).p95()),
        lock_wait_write_count: Some(delta.hist(Hist::LockWaitWrite).count),
        lock_wait_write_p95_nanos: Some(delta.hist(Hist::LockWaitWrite).p95()),
        snapshot_scans: Some(delta.ctr(Ctr::SnapshotScans)),
        hash_hits: Some(hits),
        hash_misses: Some(misses),
        // hits/(hits+misses): null when the cell issued no hash lookups
        // at all (hash-off or a write-only interval), never a fake 0 or 1.
        hash_hit_rate: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        x_latch_p50_nanos: hold.map(|h| h.p50()),
        x_latch_p95_nanos: hold.map(|h| h.p95()),
        x_latch_p99_nanos: hold.map(|h| h.p99()),
        commit_p50_nanos: Some(commit.p50()),
        commit_p95_nanos: Some(commit.p95()),
        commit_p99_nanos: Some(commit.p99()),
    }
}

/// Runs the full sweep: every contender × mix × thread count. Each
/// contender gets a fresh index per mix; thread counts run back-to-back
/// on it (the index keeps growing, matching a long-lived system).
pub fn run_sweep(cfg: &ThroughputConfig) -> Vec<ThroughputRow> {
    run_sweep_with_dump(cfg).0
}

/// Like [`run_sweep`], but also returns a Prometheus-format dump of each
/// DGL contender's full observability registry (one `# contender <label>
/// mix <mix>` section per index), for the CI artifact.
pub fn run_sweep_with_dump(cfg: &ThroughputConfig) -> (Vec<ThroughputRow>, String) {
    let mut rows = Vec::new();
    let mut dump = String::new();
    for (mix_label, mix) in mixes() {
        for c in contenders(cfg) {
            preload(&c.db, mix, cfg);
            for &threads in &cfg.threads {
                eprintln!(
                    "cell: mix={mix_label} contender={} threads={threads}",
                    c.label
                );
                rows.push(run_point(&c, mix_label, mix, threads, cfg));
            }
            if let Some(d) = dgl_handle(&c) {
                dump.push_str(&format!("# contender {} mix {}\n", c.label, mix_label));
                dump.push_str(&d.prometheus_dump());
                dump.push('\n');
            } else if let Some(s) = &c.sharded {
                dump.push_str(&format!("# contender {} mix {}\n", c.label, mix_label));
                dump.push_str(&s.prometheus_dump());
                dump.push('\n');
            }
        }
    }
    (rows, dump)
}

/// `Option<u64>` → JSON scalar (`null` for structurally-absent metrics).
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// `Option<f64>` → JSON scalar (ratios like the hash hit rate).
fn json_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.4}"))
}

/// Hand-rolled JSON (the offline `serde` shim is marker-only).
pub fn to_json(cfg: &ThroughputConfig, rows: &[ThroughputRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"throughput\",\n");
    out.push_str(&format!(
        "  \"config\": {{\"threads\": {:?}, \"txns_per_thread\": {}, \"ops_per_txn\": {}, \"fanout\": {}, \"preload\": {}, \"seed\": {}, \"shards\": {:?}, \"min_cell_secs\": {}}},\n",
        cfg.threads, cfg.txns_per_thread, cfg.ops_per_txn, cfg.fanout, cfg.preload, cfg.seed,
        cfg.shards, cfg.min_cell_secs
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"mix\": \"{}\", \"threads\": {}, \"shards\": {}, \"connections\": {}, \"ops_per_sec\": {:.1}, \"commits\": {}, \"aborts\": {}, \"timeout_aborts\": {}, \"deadlock_aborts\": {}, \"elapsed_secs\": {:.3}, \"plan_validation_failures\": {}, \"avg_x_latch_nanos\": {}, \"x_latch_total_nanos\": {}, \"lock_wait_p50_nanos\": {}, \"lock_wait_p95_nanos\": {}, \"lock_wait_p99_nanos\": {}, \"lock_wait_scan_count\": {}, \"lock_wait_scan_p95_nanos\": {}, \"lock_wait_point_count\": {}, \"lock_wait_point_p95_nanos\": {}, \"lock_wait_write_count\": {}, \"lock_wait_write_p95_nanos\": {}, \"snapshot_scans\": {}, \"hash_hits\": {}, \"hash_misses\": {}, \"hash_hit_rate\": {}, \"x_latch_p50_nanos\": {}, \"x_latch_p95_nanos\": {}, \"x_latch_p99_nanos\": {}, \"commit_p50_nanos\": {}, \"commit_p95_nanos\": {}, \"commit_p99_nanos\": {}}}{}\n",
            r.protocol,
            r.mix,
            r.threads,
            r.shards,
            json_opt(r.connections),
            r.ops_per_sec,
            r.commits,
            r.aborts,
            json_opt(r.timeout_aborts),
            json_opt(r.deadlock_aborts),
            r.elapsed_secs,
            json_opt(r.plan_validation_failures),
            json_opt(r.avg_x_latch_nanos),
            json_opt(r.x_latch_total_nanos),
            json_opt(r.lock_wait_p50_nanos),
            json_opt(r.lock_wait_p95_nanos),
            json_opt(r.lock_wait_p99_nanos),
            json_opt(r.lock_wait_scan_count),
            json_opt(r.lock_wait_scan_p95_nanos),
            json_opt(r.lock_wait_point_count),
            json_opt(r.lock_wait_point_p95_nanos),
            json_opt(r.lock_wait_write_count),
            json_opt(r.lock_wait_write_p95_nanos),
            json_opt(r.snapshot_scans),
            json_opt(r.hash_hits),
            json_opt(r.hash_misses),
            json_opt_f64(r.hash_hit_rate),
            json_opt(r.x_latch_p50_nanos),
            json_opt(r.x_latch_p95_nanos),
            json_opt(r.x_latch_p99_nanos),
            json_opt(r.commit_p50_nanos),
            json_opt(r.commit_p95_nanos),
            json_opt(r.commit_p99_nanos),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Markdown rendering of the sweep. Latency columns are registry
/// percentiles in microseconds, rendered `p50/p95/p99`; `-` marks a
/// metric the contender does not produce.
pub fn render(rows: &[ThroughputRow]) -> String {
    let tri = |p50: Option<u64>, p95: Option<u64>, p99: Option<u64>| match (p50, p95, p99) {
        (Some(a), Some(b), Some(c)) => format!(
            "{:.1}/{:.1}/{:.1}",
            a as f64 / 1_000.0,
            b as f64 / 1_000.0,
            c as f64 / 1_000.0
        ),
        _ => "-".to_string(),
    };
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mix.clone(),
                r.protocol.clone(),
                r.threads.to_string(),
                r.shards.to_string(),
                r.connections
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                format!("{:.0}", r.ops_per_sec),
                r.commits.to_string(),
                r.aborts.to_string(),
                match (r.timeout_aborts, r.deadlock_aborts) {
                    (Some(t), Some(d)) => format!("{t}/{d}"),
                    _ => "-".to_string(),
                },
                r.plan_validation_failures
                    .map_or_else(|| "-".to_string(), |v| v.to_string()),
                tri(
                    r.lock_wait_p50_nanos,
                    r.lock_wait_p95_nanos,
                    r.lock_wait_p99_nanos,
                ),
                match (
                    r.lock_wait_scan_count,
                    r.lock_wait_point_count,
                    r.lock_wait_write_count,
                ) {
                    (Some(s), Some(p), Some(w)) => format!("{s}/{p}/{w}"),
                    _ => "-".to_string(),
                },
                match (r.hash_hit_rate, r.hash_hits) {
                    (Some(rate), _) => format!("{:.2}", rate),
                    (None, Some(_)) => "0 lookups".to_string(),
                    _ => "-".to_string(),
                },
                tri(
                    r.x_latch_p50_nanos,
                    r.x_latch_p95_nanos,
                    r.x_latch_p99_nanos,
                ),
                tri(r.commit_p50_nanos, r.commit_p95_nanos, r.commit_p99_nanos),
            ]
        })
        .collect();
    crate::report::markdown_table(
        &[
            "Mix",
            "Protocol",
            "Threads",
            "Shards",
            "Conns",
            "Ops/s",
            "Commits",
            "Aborts",
            "TO/DL",
            "Replans",
            "Wait µs p50/95/99",
            "Waits scan/pt/wr",
            "Hash hit-rate",
            "X-latch µs p50/95/99",
            "Commit µs p50/95/99",
        ],
        &body,
    )
}

/// The durability tax: durable over non-durable commit-latency p95 on
/// the balanced (mixed) workload at 4 threads (falling back to the
/// highest swept count below 4). The acceptance target is ~3×: group
/// commit must amortize the fsync far below the one-sync-per-commit
/// cost.
pub fn headline_durability_tax(rows: &[ThroughputRow]) -> Option<f64> {
    let threads = rows
        .iter()
        .filter(|r| r.threads <= 4)
        .map(|r| r.threads)
        .max()?;
    let pick = |proto: &str| {
        rows.iter()
            .find(|r| r.protocol == proto && r.mix == "balanced" && r.threads == threads)
            .and_then(|r| r.commit_p95_nanos)
            .map(|v| v as f64)
    };
    let off = pick("dgl-durable-off")?;
    if off == 0.0 {
        return None;
    }
    Some(pick("dgl-durable")? / off)
}

/// Snapshot-vs-locking headline: `dgl-snapshot` over `dgl-optimistic`
/// aggregate ops/sec on the scan-heavy mix at the highest swept thread
/// count — what trading locked scans for MVCC snapshot scans buys on the
/// workload built to show it. Like the other throughput ratios it only
/// reflects parallelism when cores ≥ threads.
pub fn headline_snapshot_speedup(rows: &[ThroughputRow]) -> Option<f64> {
    // In-process rows only: `dgl-net` rows reuse the threads column for
    // the connection count, which would otherwise hijack the max.
    let max_threads = rows
        .iter()
        .filter(|r| r.connections.is_none())
        .map(|r| r.threads)
        .max()?;
    let pick = |proto: &str| {
        rows.iter()
            .find(|r| r.protocol == proto && r.mix == "scan-heavy" && r.threads == max_threads)
            .map(|r| r.ops_per_sec)
    };
    let base = pick("dgl-optimistic")?;
    if base == 0.0 {
        return None;
    }
    Some(pick("dgl-snapshot")? / base)
}

/// Hash-index headline: `dgl-hash` over `dgl-hash-off` aggregate ops/sec
/// on the point-heavy mix at the highest swept thread count. Both
/// contenders maintain the index (it IS the payload table) and run the
/// O(1) duplicate probe; the ratio isolates what consulting it on point
/// reads buys — no granule descent, no page latches, no traversal. Like
/// the other throughput ratios it understates the win when the harness
/// has fewer cores than threads.
pub fn headline_hash_speedup(rows: &[ThroughputRow]) -> Option<f64> {
    // In-process rows only: `dgl-net` rows reuse the threads column for
    // the connection count, which would otherwise hijack the max.
    let max_threads = rows
        .iter()
        .filter(|r| r.connections.is_none())
        .map(|r| r.threads)
        .max()?;
    let pick = |proto: &str| {
        rows.iter()
            .find(|r| r.protocol == proto && r.mix == "point-heavy" && r.threads == max_threads)
            .map(|r| r.ops_per_sec)
    };
    let base = pick("dgl-hash-off")?;
    if base == 0.0 {
        return None;
    }
    Some(pick("dgl-hash")? / base)
}

/// Sharded scaling headline: the best sharded contender's aggregate
/// ops/sec over the single-tree optimistic contender, read-heavy mix at
/// the highest swept thread count. Returns `(shard_count, ratio)`.
/// Caveat: the ratio only reflects parallelism when cores ≥ threads — on
/// a saturated single core the router's fan-out cost makes it ≤ 1.
pub fn headline_shard_scaling(rows: &[ThroughputRow]) -> Option<(u64, f64)> {
    // In-process rows only: `dgl-net` rows reuse the threads column for
    // the connection count, which would otherwise hijack the max.
    let max_threads = rows
        .iter()
        .filter(|r| r.connections.is_none())
        .map(|r| r.threads)
        .max()?;
    let base = rows
        .iter()
        .find(|r| {
            r.protocol == "dgl-optimistic"
                && r.mix == "read-heavy-90-10"
                && r.threads == max_threads
        })?
        .ops_per_sec;
    if base == 0.0 {
        return None;
    }
    rows.iter()
        .filter(|r| r.shards > 1 && r.mix == "read-heavy-90-10" && r.threads == max_threads)
        .map(|r| (r.shards, r.ops_per_sec / base))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_runs_and_serializes() {
        // Deliberately tiny: timing-based tests (table4, maintenance)
        // share this test binary and must not be starved of cores. The
        // 30ms floor still exercises the repeat-until-floor machinery
        // (and keeps the total measured time bounded as the sweep grows
        // cells — 80 × 30ms here is still only a few seconds).
        let cfg = ThroughputConfig {
            threads: vec![1, 2],
            txns_per_thread: 5,
            ops_per_txn: 2,
            fanout: 8,
            preload: 60,
            seed: 3,
            shards: vec![2],
            min_cell_secs: 0.03,
        };
        let (rows, prom) = run_sweep_with_dump(&cfg);
        // 5 mixes × 8 contenders × 2 thread counts.
        assert_eq!(rows.len(), 80);
        let base = cfg.txns_per_thread;
        for r in &rows {
            assert!(r.ops_per_sec > 0.0, "{r:?}");
            // The minimum-duration floor repeats whole passes, so commits
            // are a (≥1) multiple of the per-pass target and the cell ran
            // at least as long as the floor.
            assert!(r.commits >= r.threads * base, "{r:?}");
            assert_eq!(r.commits % (r.threads * base), 0, "{r:?}");
            assert!(r.elapsed_secs >= cfg.min_cell_secs, "{r:?}");
        }
        // tree-lock has no optimistic write path and no structure latch:
        // those columns must be null, not zero. Its lock-wait and commit
        // percentiles, though, are real (wired through the obs registry).
        for r in rows.iter().filter(|r| r.protocol == "tree-lock") {
            assert!(r.plan_validation_failures.is_none(), "{r:?}");
            assert!(r.avg_x_latch_nanos.is_none(), "{r:?}");
            assert!(r.x_latch_total_nanos.is_none(), "{r:?}");
            assert!(r.x_latch_p95_nanos.is_none(), "{r:?}");
            assert!(r.lock_wait_p50_nanos.is_some(), "{r:?}");
            assert!(
                r.commit_p50_nanos.expect("tree-lock commit p50") > 0,
                "{r:?}"
            );
        }
        // Every DGL point commits writes, so latch-hold percentiles are
        // populated and ordered.
        for r in rows.iter().filter(|r| r.protocol.starts_with("dgl-")) {
            let (p50, p95, p99) = (
                r.x_latch_p50_nanos.expect("dgl p50"),
                r.x_latch_p95_nanos.expect("dgl p95"),
                r.x_latch_p99_nanos.expect("dgl p99"),
            );
            assert!(p50 > 0, "{r:?}");
            assert!(p50 <= p95, "{r:?}");
            assert!(p95 <= p99, "{r:?}");
            assert!(r.commit_p95_nanos.expect("dgl commit p95") > 0, "{r:?}");
        }
        // The snapshot contender's scans never touch the lock manager:
        // the scan kind is absent from its per-op wait histogram on every
        // row, while its MVCC scan counter proves the scans actually ran.
        for r in rows.iter().filter(|r| r.protocol == "dgl-snapshot") {
            assert_eq!(r.lock_wait_scan_count, Some(0), "{r:?}");
            assert_eq!(r.lock_wait_point_count, Some(0), "{r:?}");
        }
        let snap_scans: u64 = rows
            .iter()
            .filter(|r| r.protocol == "dgl-snapshot")
            .map(|r| r.snapshot_scans.expect("snapshot ctr"))
            .sum();
        assert!(snap_scans > 0, "snapshot contender never scanned");
        // Locking contenders, conversely, never take the snapshot path.
        for r in rows.iter().filter(|r| r.protocol == "dgl-optimistic") {
            assert_eq!(r.snapshot_scans, Some(0), "{r:?}");
        }
        // Hash-index pair: with the read path consulting the index,
        // point reads on a point-heavy cell resolve from it (hits > 0,
        // near-perfect hit rate — misses only from races with deferred
        // deletion); with `hash_reads` off, the index is never consulted
        // and the rate column is null (0 lookups), not a fake 0.0.
        for r in rows.iter().filter(|r| r.protocol == "dgl-hash") {
            if r.mix == "point-heavy" {
                assert!(r.hash_hits.expect("hash ctr") > 0, "{r:?}");
                assert!(r.hash_hit_rate.expect("hash rate") > 0.9, "{r:?}");
            }
        }
        for r in rows.iter().filter(|r| r.protocol == "dgl-hash-off") {
            assert_eq!(r.hash_hits, Some(0), "{r:?}");
            assert!(r.hash_hit_rate.is_none(), "{r:?}");
        }
        // The sharded contender reports its shard count on every row.
        assert!(rows
            .iter()
            .filter(|r| r.protocol == "dgl-sharded-2")
            .all(|r| r.shards == 2));
        // With the global detector armed (the default) the sharded
        // cells never fall back on the wait-timeout guess: every
        // multi-thread sharded row reports zero timeout verdicts, and
        // the verdict columns are populated on every obs-wired row.
        for r in rows.iter().filter(|r| r.shards > 1 && r.threads > 1) {
            assert_eq!(r.timeout_aborts, Some(0), "{r:?}");
        }
        for r in rows.iter().filter(|r| r.protocol.starts_with("dgl-")) {
            assert!(r.timeout_aborts.is_some(), "{r:?}");
            assert!(r.deadlock_aborts.is_some(), "{r:?}");
        }
        let json = to_json(&cfg, &rows);
        assert!(json.contains("\"bench\": \"throughput\""));
        assert!(json.contains("dgl-sharded-2"));
        assert!(json.contains("\"shards\": 2"));
        // In-process rows have no wire: the connections column is null.
        assert!(json.contains("\"connections\": null"));
        assert!(json.contains("x_latch_total_nanos"));
        assert!(json.contains("lock_wait_p95_nanos"));
        assert!(json.contains("timeout_aborts"));
        assert!(json.contains("deadlock_aborts"));
        // tree-lock's structurally-absent metrics serialize as null.
        assert!(json.contains("\"x_latch_p95_nanos\": null"));
        assert!(json.contains("dgl-snapshot"));
        assert!(json.contains("\"mix\": \"scan-heavy\""));
        assert!(json.contains("lock_wait_scan_count"));
        assert!(json.contains("\"snapshot_scans\": 0"));
        assert!(json.contains("\"mix\": \"point-heavy\""));
        assert!(json.contains("hash_hit_rate"));
        // Zero-lookup cells (hash-off rows) serialize the rate as null.
        assert!(json.contains("\"hash_hit_rate\": null"));
        assert!(prom.contains("# contender dgl-hash mix point-heavy"));
        assert!(prom.contains("dgl_hash_hits_total"));
        assert!(headline_hash_speedup(&rows).unwrap() > 0.0);
        assert!(prom.contains("# contender dgl-optimistic mix read-heavy-90-10"));
        assert!(prom.contains("# contender dgl-snapshot mix scan-heavy"));
        assert!(prom.contains("# contender dgl-sharded-2 mix balanced"));
        assert!(prom.contains("dgl_x_latch_hold_nanos_count"));
        assert!(headline_snapshot_speedup(&rows).unwrap() > 0.0);
        let (n, ratio) = headline_shard_scaling(&rows).expect("shard headline");
        assert_eq!(n, 2);
        assert!(ratio > 0.0);
        // Durability pair: both rows exist, the durable one actually
        // fsyncs (wal counters in its prom section), commit percentiles
        // are populated, and the tax headline computes.
        assert!(json.contains("dgl-durable"));
        assert!(json.contains("commit_p95_nanos"));
        assert!(prom.contains("# contender dgl-durable mix balanced"));
        assert!(headline_durability_tax(&rows).unwrap() > 0.0);
    }
}
