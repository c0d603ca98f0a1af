//! Crash-matrix chaos harness for the durability subsystem.
//!
//! Every cell runs a seeded single-writer (or multi-writer) workload
//! against a directory-backed [`DglRTree`] while one `wal/*` failpoint
//! is armed — killing the log before an append, at the commit record,
//! mid-fsync (torn batch tail) or mid-checkpoint — then recovers the
//! directory and compares the index against an in-memory **shadow
//! oracle** that tracked every acknowledgement:
//!
//! * every *acked* commit survives recovery, byte-for-byte (oid → rect),
//! * no aborted or never-committed transaction resurrects,
//! * a commit that failed with [`TxnError::Durability`] is **in doubt**:
//!   its effects may be present or absent after recovery, but only
//!   *atomically* — all of its operations or none,
//! * a torn final record is detected and discarded, never an error,
//! * recovery is idempotent: recovering the recovered directory again
//!   yields the same contents.
//!
//! On top of the matrix, the phantom-protection and serializability
//! oracles re-run **on a recovered tree**, proving the DGL protocol's
//! guarantees hold over state rebuilt from log replay.
//!
//! Fixed seeds run in CI; `recovery_randomized_seed` adds a fresh seed
//! per run (replay with `CRASH_SEED=<n>`). Set `RECOVERY_PROM=<path>`
//! to dump the recovery Prometheus snapshot for the CI artifact.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dgl_faults::FaultSpec;
use granular_rtree::core::{
    DglConfig, DglRTree, InsertPolicy, Rect2, TransactionalRTree, TxnError,
};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::obs::Ctr;
use granular_rtree::rtree::{ObjectId, RTreeConfig};

/// The fault registry is process-global: matrix cells must not overlap.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A per-cell scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "dgl-recovery-{tag}-{}-{}",
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

/// Aborts the process if a cell wedges — a hang is a failure.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(label: &str) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let observed = Arc::clone(&done);
        let label = label.to_string();
        std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(180);
            while Instant::now() < deadline {
                if observed.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            eprintln!("recovery watchdog: '{label}' wedged; aborting");
            std::process::abort();
        });
        Self { done }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

fn small_rect(rng: &mut XorShift) -> Rect2 {
    let x = rng.f64() * 0.98;
    let y = rng.f64() * 0.98;
    Rect2::new([x, y], [x + 0.01, y + 0.01])
}

fn durable_config(threshold: Option<u64>) -> DglConfig {
    DglConfig {
        rtree: RTreeConfig::with_fanout(5),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(500),
        },
        checkpoint_threshold: threshold,
        ..Default::default()
    }
}

/// Makes every flush sleep 2 ms before it writes (a delay only sleeps:
/// the flush itself goes through), so records appended meanwhile sit
/// unflushed behind it and ride the next batch, as under a slow disk.
/// Until the guard drops.
fn slow_flush() -> dgl_faults::FaultGuard {
    dgl_faults::register("wal/fsync", FaultSpec::delay(Duration::from_millis(2)))
}

/// One logical operation of a workload transaction, for the oracle.
#[derive(Debug, Clone)]
enum Op {
    Ins(u64, Rect2),
    Del(u64, Rect2),
}

/// What the shadow oracle knows after the workload stopped.
struct Outcome {
    /// Live set implied by *acknowledged* commits only.
    committed: BTreeMap<u64, Rect2>,
    /// Ops of the single transaction whose commit returned
    /// [`TxnError::Durability`] (the driver stops at the first one, so
    /// at most one commit can be in doubt).
    in_doubt: Option<Vec<Op>>,
    /// Commits acknowledged (for "the cell actually did work" checks).
    acked: u64,
}

fn apply_ops(base: &BTreeMap<u64, Rect2>, ops: &[Op]) -> BTreeMap<u64, Rect2> {
    let mut out = base.clone();
    for op in ops {
        match op {
            Op::Ins(oid, rect) => {
                out.insert(*oid, *rect);
            }
            Op::Del(oid, _) => {
                out.remove(oid);
            }
        }
    }
    out
}

/// Runs the seeded workload until the log dies (or the budget runs
/// out, in which case the caller clean-kills). Maintains the oracle.
/// One driver thread: nobody to lose a deadlock to or to wait for, so
/// `Deadlock` and `Timeout` are bugs here.
fn drive_until_crash(
    db: &DglRTree,
    rng: &mut XorShift,
    txn_budget: usize,
    checkpoint_every: Option<usize>,
) -> Outcome {
    let mut committed = BTreeMap::new();
    let mut in_doubt = None;
    let mut acked = 0u64;
    let mut next_oid = 1u64;

    for t in 0..txn_budget {
        if let Some(every) = checkpoint_every {
            if t > 0 && t % every == 0 && db.checkpoint().is_err() {
                break; // checkpoint killed the log
            }
        }
        let txn = db.begin();
        let mut ops: Vec<Op> = Vec::new();
        for _ in 0..1 + (rng.next() % 3) {
            let del_candidate = committed
                .keys()
                .nth(rng.next() as usize % committed.len().max(1))
                .copied()
                .filter(|oid| !ops.iter().any(|op| matches!(op, Op::Del(o, _) if o == oid)));
            let op = match del_candidate {
                Some(oid) if rng.chance(0.25) => Op::Del(oid, committed[&oid]),
                _ => {
                    let oid = next_oid;
                    next_oid += 1;
                    Op::Ins(oid, small_rect(rng))
                }
            };
            let res = match &op {
                Op::Ins(oid, rect) => db.insert(txn, ObjectId(*oid), *rect),
                Op::Del(oid, rect) => db.delete(txn, ObjectId(*oid), *rect).map(|_| ()),
            };
            match res {
                Ok(()) => ops.push(op),
                // The transaction is already rolled back; no commit
                // record can exist, so it must be absent after
                // recovery — same as an abort. Stop driving.
                Err(TxnError::Durability) => {
                    return Outcome {
                        committed,
                        in_doubt,
                        acked,
                    };
                }
                Err(e) => panic!("op failed unexpectedly: {e}"),
            }
        }
        if rng.chance(0.1) {
            // Clean abort: must never resurrect.
            db.abort(txn).expect("abort");
            continue;
        }
        match db.commit(txn) {
            Ok(()) => {
                committed = apply_ops(&committed, &ops);
                acked += 1;
            }
            Err(TxnError::Durability) => {
                // In doubt: the commit record may or may not be durable.
                in_doubt = Some(ops);
                break;
            }
            Err(e) => panic!("commit failed unexpectedly: {e}"),
        }
    }
    Outcome {
        committed,
        in_doubt,
        acked,
    }
}

/// Full index contents as the oracle sees them.
fn contents(db: &DglRTree) -> BTreeMap<u64, Rect2> {
    let txn = db.begin();
    let hits = db.read_scan(txn, Rect2::unit()).expect("full scan");
    db.commit(txn).expect("scan commit");
    hits.iter().map(|h| (h.oid.0, h.rect)).collect()
}

/// Recovers `dir` and checks it against the oracle: acked commits all
/// present, nothing resurrected, the in-doubt commit atomic. Returns
/// the recovered contents for further checks.
fn recover_and_check(
    dir: &Path,
    config: DglConfig,
    outcome: &Outcome,
    label: &str,
) -> BTreeMap<u64, Rect2> {
    let recovered = DglRTree::recover(dir, config).unwrap_or_else(|e| panic!("{label}: {e}"));
    let seen = contents(&recovered);
    let without = &outcome.committed;
    match &outcome.in_doubt {
        None => assert_eq!(
            &seen, without,
            "{label}: recovered contents diverged from acked commits"
        ),
        Some(ops) => {
            let with = apply_ops(without, ops);
            assert!(
                seen == *without || seen == with,
                "{label}: in-doubt commit applied non-atomically\n\
                 seen: {seen:?}\nwithout: {without:?}\nwith: {with:?}"
            );
        }
    }
    recovered.quiesce().expect("quiesce after recovery");
    recovered
        .validate()
        .unwrap_or_else(|e| panic!("{label}: validation failed: {e}"));
    drop(recovered);

    // Idempotence: recovering the recovered directory changes nothing.
    let again = DglRTree::recover(dir, durable_config(None))
        .unwrap_or_else(|e| panic!("{label}: second recovery failed: {e}"));
    assert_eq!(
        contents(&again),
        seen,
        "{label}: second recovery changed the contents"
    );
    seen
}

/// One matrix cell: workload + armed failpoint + kill + recover + check.
///
/// With `slow` the flush is slowed as well ([`slow_flush`]); the registry
/// holds one spec per name, so a cell that arms `wal/fsync` runs plain.
fn run_cell(seed: u64, failpoint: &'static str, one_in: u32, slow: bool) {
    let _serial = serialize();
    let label = format!("cell[{failpoint} seed={seed:#x} slow_flush={slow}]");
    let _watchdog = Watchdog::arm(&label);
    let dir = TempDir::new("cell");
    let mut rng = XorShift::new(seed);

    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open fresh dir");

    assert!(
        !(slow && failpoint == "wal/fsync"),
        "{label}: one spec per name"
    );
    let slowed = slow.then(slow_flush);
    let guard = dgl_faults::register(failpoint, FaultSpec::error().one_in(one_in, seed ^ 0x57A1));
    let outcome = drive_until_crash(&db, &mut rng, 150, Some(7));
    drop(guard);
    drop(slowed);
    // If the failpoint never fired, clean-kill: every acked commit is
    // fsynced before it is acked, so the durable prefix covers them all.
    db.crash_wal();
    drop(db);

    let seen = recover_and_check(dir.path(), config, &outcome, &label);
    eprintln!(
        "{label}: {} acked commits, in-doubt: {}, {} live objects after recovery",
        outcome.acked,
        outcome.in_doubt.is_some(),
        seen.len()
    );
}

#[test]
fn matrix_killed_before_append() {
    for seed in [0x11AA_u64, 0x22BB] {
        run_cell(seed, "wal/append", 60, false);
        run_cell(seed ^ 0xF0F0, "wal/append", 60, true);
    }
}

#[test]
fn matrix_killed_at_commit_record() {
    for seed in [0x33CC_u64, 0x44DD] {
        run_cell(seed, "wal/commit", 40, false);
        run_cell(seed ^ 0xF0F0, "wal/commit", 40, true);
    }
}

#[test]
fn matrix_killed_mid_fsync_torn_batch() {
    for seed in [0x55EE_u64, 0x66FF] {
        run_cell(seed, "wal/fsync", 30, false);
        // The cell's own failpoint is the flush, so its second seed runs
        // plain too.
        run_cell(seed ^ 0xF0F0, "wal/fsync", 30, false);
    }
}

#[test]
fn matrix_killed_mid_checkpoint() {
    for seed in [0x7711_u64, 0x8822] {
        run_cell(seed, "wal/checkpoint", 4, false);
        run_cell(seed ^ 0xF0F0, "wal/checkpoint", 4, true);
    }
}

/// Crash mid-version-GC: the MVCC garbage collector is in-memory only,
/// so a panic inside a GC pass — with committed version history and a
/// registered snapshot in flight — must lose nothing. Recovery rebuilds
/// every chain from log replay, the shadow oracle matches exactly, and
/// both the snapshot plane and GC work on the recovered tree.
#[test]
fn matrix_killed_mid_version_gc() {
    let _serial = serialize();
    let label = "cell[maint/version-gc]";
    let _watchdog = Watchdog::arm(label);
    let dir = TempDir::new("gc");
    let mut rng = XorShift::new(0x6C11);

    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open fresh dir");
    let outcome = drive_until_crash(&db, &mut rng, 100, None);
    assert!(outcome.in_doubt.is_none(), "no WAL faults armed");

    // Build version history for GC to chew on: update committed objects
    // under a registered snapshot (updates bump payload versions without
    // moving rects, so the contents oracle is unaffected).
    let snap = db.begin_snapshot();
    for (&oid, &rect) in outcome.committed.iter().take(12) {
        let txn = db.begin();
        assert!(db.update_single(txn, ObjectId(oid), rect).expect("update"));
        db.commit(txn).expect("update commit");
    }
    drop(snap);

    // The GC pass panics mid-flight; the pass runs inline on this
    // thread, so catch the unwind here.
    let guard = dgl_faults::register("maint/version-gc", FaultSpec::panic());
    let gc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.dispatch_version_gc()));
    assert!(gc.is_err(), "version-gc failpoint must fire");
    drop(guard);

    // The pass died holding the drained dirty list; its unwind guard put
    // the ids back, so a second pass on the same instance finishes the
    // job (nothing else would ever bring those chains up again).
    let torn = db.mvcc_stats();
    assert!(
        torn.live_versions >= torn.live_chains as u64 + 12 && torn.gc_queued >= 12,
        "the killed pass reclaimed nothing and lost nothing: {torn:?}"
    );
    db.dispatch_version_gc();
    let stats = db.mvcc_stats();
    assert_eq!(
        stats.live_versions, stats.live_chains as u64,
        "the pass after a killed pass reclaims what it held: {stats:?}"
    );
    assert_eq!(stats.gc_queued, 0, "{stats:?}");

    db.crash_wal();
    drop(db);

    let seen = recover_and_check(dir.path(), config.clone(), &outcome, label);
    eprintln!(
        "{label}: {} acked commits, {} live objects after recovery",
        outcome.acked,
        seen.len()
    );

    // The recovered tree serves snapshot reads and completes the GC pass
    // that died (the dedupe slot was released by the unwind guard in the
    // crashed process; this is a fresh instance either way).
    let recovered = DglRTree::recover(dir.path(), config).expect("recover for GC");
    let snap = recovered.begin_snapshot();
    let scanned: BTreeMap<u64, Rect2> = snap
        .read_scan(Rect2::unit())
        .iter()
        .map(|h| (h.oid.0, h.rect))
        .collect();
    assert_eq!(
        scanned, seen,
        "{label}: snapshot scan diverged after recovery"
    );
    drop(snap);
    recovered.dispatch_version_gc();
    let stats = recovered.mvcc_stats();
    assert_eq!(stats.active_snapshots, 0, "{stats:?}");
    assert_eq!(
        stats.live_versions, stats.live_chains as u64,
        "post-recovery GC leaves single-version chains: {stats:?}"
    );
}

/// Crash mid-hash-index-rebuild: the object→leaf hash index is derived
/// state — WAL replay and snapshot load rebuild it by sweeping the
/// recovered tree's leaves, with no record kinds of its own. A process
/// that dies halfway through that sweep must leave nothing behind: the
/// next recovery rebuilds the index from scratch and it matches a fresh
/// build exactly (`validate()` re-checks it against the tree entry by
/// entry), and post-recovery inserts still detect duplicates through
/// the rebuilt index alone.
#[test]
fn matrix_killed_mid_hashidx_rebuild() {
    let _serial = serialize();
    let label = "cell[hashidx/rebuild]";
    let _watchdog = Watchdog::arm(label);
    let dir = TempDir::new("hashidx");
    let mut rng = XorShift::new(0x4A5B);

    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open fresh dir");
    let outcome = drive_until_crash(&db, &mut rng, 100, Some(9));
    assert!(outcome.in_doubt.is_none(), "no WAL faults armed");
    assert!(outcome.acked > 30, "workload must do real work");
    db.crash_wal();
    drop(db);

    // First recovery dies inside the index rebuild, after replay rebuilt
    // the tree but before the database was handed out.
    let guard = dgl_faults::register("hashidx/rebuild", FaultSpec::panic());
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        DglRTree::recover(dir.path(), config.clone())
    }));
    assert!(died.is_err(), "{label}: rebuild failpoint must fire");
    drop(guard);

    // Second recovery rebuilds the index from scratch; the shadow oracle
    // must match and validate() proves rebuild ≡ fresh build (slot count,
    // leaf hints, rects, locate_leaf agreement).
    let seen = recover_and_check(dir.path(), config.clone(), &outcome, label);
    let recovered = DglRTree::recover(dir.path(), config).expect("recover after rebuild crash");

    // Point reads ride the rebuilt index.
    let txn = recovered.begin();
    for (&oid, &rect) in outcome.committed.iter().take(8) {
        assert_eq!(
            recovered
                .read_single(txn, ObjectId(oid), rect)
                .expect("read_single"),
            Some(1),
            "{label}: recovered object O{oid} must be readable via the index"
        );
    }
    recovered.commit(txn).expect("read commit");

    // Duplicate detection is the index's Griffin role: re-inserting a
    // recovered oid must fail without consulting the tree.
    let (&dup_oid, &dup_rect) = outcome.committed.iter().next().expect("non-empty");
    let txn = recovered.begin();
    assert_eq!(
        recovered.insert(txn, ObjectId(dup_oid), dup_rect),
        Err(TxnError::DuplicateObject),
        "{label}: rebuilt index must still detect duplicates"
    );
    recovered.abort(txn).expect("abort duplicate txn");

    // Fresh inserts still work and re-validate cleanly.
    let txn = recovered.begin();
    let fresh_oid = outcome.committed.keys().max().expect("non-empty") + 1_000;
    recovered
        .insert(txn, ObjectId(fresh_oid), dup_rect)
        .expect("fresh insert after rebuild");
    recovered.commit(txn).expect("insert commit");
    recovered.quiesce().expect("quiesce");
    recovered
        .validate()
        .expect("validate after post-recovery writes");
    eprintln!(
        "{label}: {} acked commits, {} live objects after recovery",
        outcome.acked,
        seen.len()
    );
}

/// A fresh seed per run across all four failpoints; replay a failure
/// with `CRASH_SEED=<n>`.
#[test]
fn recovery_randomized_seed() {
    let seed = match std::env::var("CRASH_SEED") {
        Ok(s) => s.parse().expect("CRASH_SEED must be a u64"),
        Err(_) => {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .subsec_nanos() as u64
                ^ 0xC4A5_0000
        }
    };
    eprintln!("recovery_randomized_seed: rerun with CRASH_SEED={seed}");
    for fp in ["wal/append", "wal/commit", "wal/fsync", "wal/checkpoint"] {
        run_cell(seed, fp, 40, false);
    }
}

/// Clean kill with no failpoint: recovery must reproduce the acked
/// state exactly. Also the hook for the CI Prometheus artifact.
#[test]
fn clean_kill_recovers_exact_state() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("clean-kill");
    let dir = TempDir::new("clean");
    let mut rng = XorShift::new(0xC1EA_u64);

    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let outcome = drive_until_crash(&db, &mut rng, 120, Some(10));
    assert!(outcome.in_doubt.is_none(), "no faults armed");
    assert!(outcome.acked > 50, "workload must do real work");
    db.crash_wal();
    drop(db);

    let recovered = DglRTree::recover(dir.path(), config).expect("recover");
    assert_eq!(contents(&recovered), outcome.committed);
    recovered.validate().expect("validate");

    // CI artifact: the recovery run's metrics (replay histogram,
    // wal counters) as a Prometheus dump.
    if let Ok(path) = std::env::var("RECOVERY_PROM") {
        std::fs::write(&path, recovered.prometheus_dump()).expect("write RECOVERY_PROM");
        eprintln!("clean-kill: wrote recovery metrics to {path}");
    }
}

/// A torn final record — the tail of the last segment truncated
/// mid-frame — is detected and discarded, never an error.
#[test]
fn torn_final_record_discarded() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("torn-tail");
    let dir = TempDir::new("torn");
    let mut rng = XorShift::new(0x70A4_u64);

    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let outcome = drive_until_crash(&db, &mut rng, 60, None);
    db.crash_wal();
    drop(db);

    // Model a record torn by the crash: a frame that made it only
    // partially out of the page cache. The fsynced prefix itself is
    // never torn (that is what fsync means), so the torn frame sits
    // *past* the durable prefix — append a header claiming 64 payload
    // bytes followed by only 6.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    let last = segments.last().expect("at least one segment");
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(last)
            .expect("open segment");
        file.write_all(&64u32.to_le_bytes()).expect("torn len");
        file.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02])
            .expect("torn fragment");
    }

    // Recovery must discard the torn frame silently; every acked commit
    // (all durable before the ack) must be intact.
    let recovered = DglRTree::recover(dir.path(), config).expect("torn tail must not error");
    let seen = contents(&recovered);
    for (oid, rect) in &outcome.committed {
        assert_eq!(
            seen.get(oid),
            Some(rect),
            "torn tail: acked commit of oid {oid} lost"
        );
    }
    recovered.validate().expect("validate");
}

/// Automatic checkpoints (tiny threshold, so they fire constantly at the
/// end of commits) under the checkpoint failpoint.
#[test]
fn auto_checkpoint_cell() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("auto-ckpt");
    let dir = TempDir::new("autockpt");
    let mut rng = XorShift::new(0xAC47_u64);

    let config = durable_config(Some(2_048));
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let slowed = slow_flush();
    let guard = dgl_faults::register("wal/checkpoint", FaultSpec::error().one_in(6, 0xAC47));
    let outcome = drive_until_crash(&db, &mut rng, 150, None);
    drop(guard);
    drop(slowed);
    db.crash_wal();
    drop(db);

    recover_and_check(dir.path(), config, &outcome, "auto-ckpt");
}

/// Four writers over disjoint oid ranges behind a slow flush (so their
/// commits queue and share fsyncs), clean kill: every acked commit from
/// every thread survives.
#[test]
fn multithread_acked_commits_survive() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("multithread");
    let dir = TempDir::new("mt");

    let config = durable_config(None);
    let db = Arc::new(DglRTree::open(dir.path(), config.clone()).expect("open"));
    let slowed = slow_flush();

    const THREADS: u64 = 4;
    const TXNS: u64 = 25;
    let acked: Vec<BTreeMap<u64, Rect2>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move || {
                let mut rng = XorShift::new(0xB0B0 + tid);
                let mut mine = BTreeMap::new();
                for i in 0..TXNS {
                    let oid = (tid << 32) | (i + 1);
                    let rect = small_rect(&mut rng);
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
    drop(slowed);
    db.crash_wal();
    drop(db);

    let recovered = DglRTree::recover(dir.path(), config).expect("recover");
    let seen = contents(&recovered);
    let mut expected = BTreeMap::new();
    for m in acked {
        expected.extend(m);
    }
    assert_eq!(seen, expected, "an acked commit was lost across threads");
    recovered.validate().expect("validate");
}

/// The serializability oracle (observed-counts pattern from
/// `tests/serializability.rs`) on a *recovered* tree: under any
/// serializable history the i-th committed transaction saw exactly i
/// objects in the region. Then the whole run crash-kills and recovers
/// once more — serializability and durability composed.
#[test]
fn recovered_tree_is_serializable() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("recovered-serializable");
    let dir = TempDir::new("serial");
    const REGION: Rect2 = Rect2 {
        lo: [0.3, 0.3],
        hi: [0.7, 0.7],
    };

    let config = durable_config(None);
    {
        // Seed the directory with committed objects *outside* the
        // region (so observed counts start at zero), then crash.
        let db = DglRTree::open(dir.path(), config.clone()).expect("open");
        let mut rng = XorShift::new(0x5E41_u64);
        for i in 0..40u64 {
            let x = 0.75 + 0.2 * rng.f64();
            let y = 0.75 + 0.2 * rng.f64();
            let txn = db.begin();
            db.insert(
                txn,
                ObjectId(1_000_000 + i),
                Rect2::new([x, y], [x + 0.005, y + 0.005]),
            )
            .expect("preload insert");
            db.commit(txn).expect("preload commit");
        }
        db.crash_wal();
    }

    let db = Arc::new(DglRTree::recover(dir.path(), config.clone()).expect("recover"));
    assert_eq!(db.len(), 40, "preload must survive");

    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 10;
    let counts: Vec<Vec<u64>> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = Arc::clone(&db);
            handles.push(s.spawn(move || {
                let mut seen = Vec::new();
                let mut serial = 0u64;
                while (seen.len() as u64) < PER_THREAD {
                    let txn = db.begin();
                    let count = match db.read_scan(txn, REGION) {
                        Ok(hits) => hits.len() as u64,
                        Err(TxnError::Deadlock | TxnError::Timeout) => continue,
                        Err(e) => panic!("scan: {e}"),
                    };
                    serial += 1;
                    let oid = (tid << 32) | serial;
                    let fx = 0.31 + 0.38 * ((tid as f64 + 0.5) / THREADS as f64);
                    let fy = 0.31 + 0.38 * ((serial % 97) as f64 / 97.0);
                    let rect = Rect2::new([fx, fy], [fx + 0.001, fy + 0.001]);
                    match db
                        .insert(txn, ObjectId(oid), rect)
                        .and_then(|()| db.commit(txn))
                    {
                        Ok(()) => seen.push(count),
                        Err(TxnError::Deadlock | TxnError::Timeout) => {
                            serial -= 1;
                            continue;
                        }
                        Err(e) => panic!("insert/commit: {e}"),
                    }
                }
                seen
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = counts.into_iter().flatten().collect();
    all.sort_unstable();
    let expected: Vec<u64> = (0..THREADS * PER_THREAD).collect();
    assert_eq!(
        all, expected,
        "recovered tree produced a non-serializable history"
    );

    db.crash_wal();
    let total = db.len();
    drop(db);
    let again = DglRTree::recover(dir.path(), config).expect("second recover");
    assert_eq!(again.len(), total, "serializable run's commits lost");
    again.validate().expect("validate");
}

/// The phantom-protection core on a *recovered* tree: a repeatable-read
/// scan blocks an overlapping insert (Timeout under a short lock wait)
/// and rescans identically; a disjoint insert proceeds; after the
/// searcher commits, the blocked insert succeeds.
#[test]
fn recovered_tree_blocks_phantoms() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("recovered-phantom");
    let dir = TempDir::new("phantom");
    const REGION: Rect2 = Rect2 {
        lo: [0.35, 0.35],
        hi: [0.65, 0.65],
    };

    let config = durable_config(None);
    {
        let db = DglRTree::open(dir.path(), config.clone()).expect("open");
        let mut rng = XorShift::new(0xFA47_u64);
        for i in 0..60u64 {
            let txn = db.begin();
            db.insert(txn, ObjectId(i + 1), small_rect(&mut rng))
                .expect("preload");
            db.commit(txn).expect("preload commit");
        }
        db.crash_wal();
    }

    let db = DglRTree::recover(dir.path(), config).expect("recover");
    assert_eq!(db.len(), 60);

    let searcher = db.begin();
    let first = db.read_scan(searcher, REGION).expect("first scan");

    // An insert inside the predicate must block on the searcher's S
    // locks — with the short wait timeout it surfaces as Timeout and
    // the writer is rolled back. That is the phantom being prevented.
    let inside = Rect2::new([0.5, 0.5], [0.505, 0.505]);
    let w1 = db.begin();
    match db.insert(w1, ObjectId(9_001), inside) {
        Err(TxnError::Timeout | TxnError::Deadlock) => {}
        Ok(()) => panic!("insert inside a protected predicate did not block"),
        Err(e) => panic!("unexpected error: {e}"),
    }

    // A disjoint insert commits freely.
    let w2 = db.begin();
    db.insert(w2, ObjectId(9_002), Rect2::new([0.9, 0.9], [0.905, 0.905]))
        .expect("disjoint insert");
    db.commit(w2).expect("disjoint commit");

    // Repeatable read: the rescan equals the first scan exactly.
    let second = db.read_scan(searcher, REGION).expect("rescan");
    let a: Vec<u64> = first.iter().map(|h| h.oid.0).collect();
    let b: Vec<u64> = second.iter().map(|h| h.oid.0).collect();
    assert_eq!(a, b, "recovered tree admitted a phantom");
    db.commit(searcher).expect("searcher commit");

    // With the predicate released, the same insert goes through.
    let w3 = db.begin();
    db.insert(w3, ObjectId(9_001), inside)
        .expect("post-commit insert");
    db.commit(w3).expect("post-commit commit");
    db.validate().expect("validate");
}

/// Deferred-deletion / recovery interaction: committed deletes in the
/// log tail are replayed through the normal write path, whose commits
/// run their physical deletions; `recover` returns with every one of
/// them applied.
#[test]
fn recovery_drains_replayed_deferred_deletions() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("deferred-drain");
    let dir = TempDir::new("deferred");
    let mut rng = XorShift::new(0xDE1E_u64);

    let config = durable_config(None);
    let mut rects = BTreeMap::new();
    {
        let db = DglRTree::open(dir.path(), config.clone()).expect("open");
        for i in 1..=30u64 {
            let rect = small_rect(&mut rng);
            let txn = db.begin();
            db.insert(txn, ObjectId(i), rect).expect("insert");
            db.commit(txn).expect("commit");
            rects.insert(i, rect);
        }
        // Anchor the inserts in a snapshot; the deletes below live only
        // in the log tail past this checkpoint.
        db.checkpoint().expect("checkpoint");
        for i in (1..=30u64).filter(|i| i % 3 == 0) {
            let txn = db.begin();
            db.delete(txn, ObjectId(i), rects[&i]).expect("delete");
            db.commit(txn).expect("delete commit");
        }
        db.crash_wal();
    }

    let recovered = DglRTree::recover(dir.path(), config).expect("recover");
    // Each replayed delete's commit ran its physical phase.
    let s = recovered.obs().snapshot();
    assert_eq!(
        s.ctr(Ctr::MaintCompleted),
        10,
        "replayed deletes must run their physical deletions"
    );
    assert_eq!(s.ctr(Ctr::MaintFailed), 0);
    assert_eq!(recovered.len(), 20, "10 of 30 objects deleted");
    let seen = contents(&recovered);
    for i in 1..=30u64 {
        assert_eq!(
            seen.contains_key(&i),
            i % 3 != 0,
            "oid {i} in the wrong state after replay"
        );
    }
    // A further explicit quiesce is a clean no-op, and the freed ids
    // are insertable again (payload reservations released).
    recovered.quiesce().expect("quiesce idempotent");
    let txn = recovered.begin();
    recovered
        .insert(txn, ObjectId(3), small_rect(&mut rng))
        .expect("freed id reusable");
    recovered.commit(txn).expect("commit");
    recovered.validate().expect("validate");
}

// --- damaged snapshots and page-id identity ----------------------------

use dgl_wal::{crc32, scan_dir, segment_path, snapshot_path, Wal, WalConfig, WalRecord};
use granular_rtree::core::RecoverError;
use granular_rtree::obs::Registry;
use granular_rtree::pager::PageId;
use granular_rtree::rtree::Node;

/// How a cell damages a snapshot file (`crc32(image) | image`).
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// One byte flipped: the checksum refuses it.
    FlipByte,
    /// The file cut in half: the checksum refuses it.
    Truncate,
    /// The image cut short and re-checksummed: the checksum passes and
    /// the decoder refuses it.
    Rechecksummed,
}

const DAMAGES: [Damage; 3] = [Damage::FlipByte, Damage::Truncate, Damage::Rechecksummed];

fn damaged(snapshot: &[u8], how: Damage) -> Vec<u8> {
    let mut out = snapshot.to_vec();
    match how {
        Damage::FlipByte => {
            let mid = out.len() / 2;
            out[mid] ^= 0xFF;
        }
        Damage::Truncate => out.truncate(out.len() / 2),
        Damage::Rechecksummed => {
            let image = &snapshot[4..snapshot.len() - 3];
            out = [&crc32(image).to_le_bytes()[..], image].concat();
        }
    }
    out
}

/// Commits one insert per oid, recording each in `committed`.
fn commit_inserts(
    db: &DglRTree,
    rng: &mut XorShift,
    oids: std::ops::RangeInclusive<u64>,
    committed: &mut BTreeMap<u64, Rect2>,
) {
    for oid in oids {
        let rect = small_rect(rng);
        let txn = db.begin();
        db.insert(txn, ObjectId(oid), rect).expect("insert");
        db.commit(txn).expect("commit");
        committed.insert(oid, rect);
    }
}

fn pages(db: &DglRTree) -> Vec<(PageId, Node<2>)> {
    db.with_tree(|t| t.pages().map(|(pid, node)| (pid, node.clone())).collect())
}

/// A checkpoint killed mid-way through `wal/checkpoint`, then a damaged
/// file as the newest generation's snapshot: recovery must refuse it and
/// rebuild from the previous pair with every acked commit.
#[test]
fn damaged_newest_snapshot_falls_back_to_the_previous_generation() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("damaged-newest");
    for how in DAMAGES {
        let dir = TempDir::new("damaged-newest");
        let mut rng = XorShift::new(0xDA4A);
        let config = durable_config(None);
        let db = DglRTree::open(dir.path(), config.clone()).expect("open");
        let mut committed = BTreeMap::new();
        commit_inserts(&db, &mut rng, 1..=40, &mut committed);
        db.checkpoint().expect("checkpoint to generation 1");
        commit_inserts(&db, &mut rng, 41..=60, &mut committed);
        {
            let _kill = dgl_faults::register("wal/checkpoint", FaultSpec::error());
            assert_eq!(db.checkpoint(), Err(TxnError::Durability));
        }
        drop(db);

        // The rotation's segment header may or may not have reached the
        // disk before the kill. Pin the case where it did, so generation
        // 2 is judged by its snapshot: the rotation wrote exactly this
        // record (no transaction was in flight at the cut).
        std::fs::remove_file(segment_path(dir.path(), 2)).expect("rotation made generation 2");
        let header = WalRecord::Checkpoint {
            gen: 2,
            undo: Vec::new(),
            prepared: Vec::new(),
        };
        let obs = Arc::new(Registry::new());
        drop(Wal::create(dir.path(), 2, &header, WalConfig, obs).expect("header"));
        assert!(
            !snapshot_path(dir.path(), 2).exists(),
            "the kill comes before the snapshot write"
        );
        let good = std::fs::read(snapshot_path(dir.path(), 1)).expect("generation 1 snapshot");
        std::fs::write(snapshot_path(dir.path(), 2), damaged(&good, how)).expect("write");

        let recovered =
            DglRTree::recover(dir.path(), config).unwrap_or_else(|e| panic!("{how:?}: {e}"));
        assert_eq!(contents(&recovered), committed, "{how:?}");
        recovered.validate().expect("validate");
    }
}

/// The only snapshot damaged, in a store whose log holds commits: there
/// is no base to replay them on, so recovery says `Corrupt` — no panic,
/// and never an empty tree in place of the acked data.
#[test]
fn damaged_only_snapshot_is_corrupt_not_an_empty_tree() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("damaged-only");
    for how in DAMAGES {
        let dir = TempDir::new("damaged-only");
        let mut rng = XorShift::new(0xDA0E);
        let config = durable_config(None);
        let db = DglRTree::open(dir.path(), config.clone()).expect("open");
        let mut committed = BTreeMap::new();
        commit_inserts(&db, &mut rng, 1..=30, &mut committed);
        db.checkpoint().expect("checkpoint");
        commit_inserts(&db, &mut rng, 31..=40, &mut committed);
        db.crash_wal();
        drop(db);

        assert_eq!(scan_dir(dir.path()).expect("scan").snapshots, [1]);
        let path = snapshot_path(dir.path(), 1);
        let good = std::fs::read(&path).expect("snapshot");
        std::fs::write(&path, damaged(&good, how)).expect("write");
        match DglRTree::recover(dir.path(), config) {
            Err(RecoverError::Corrupt(msg)) => eprintln!("{how:?}: {msg}"),
            Err(e) => panic!("{how:?}: expected Corrupt, got {e}"),
            Ok(db) => panic!("{how:?}: recovered {} objects from no snapshot", db.len()),
        }
    }
}

/// Page ids are lock resource ids: checkpoint → kill → recover brings
/// every page back on its id with the same contents, holes in the page
/// space included.
#[test]
fn page_ids_survive_checkpoint_crash_and_recover() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("page-ids");
    let dir = TempDir::new("page-ids");
    let mut rng = XorShift::new(0x9A6E);
    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let mut committed = BTreeMap::new();
    commit_inserts(&db, &mut rng, 1..=120, &mut committed);
    for oid in (1..=120u64).step_by(3) {
        let txn = db.begin();
        assert_eq!(db.delete(txn, ObjectId(oid), committed[&oid]), Ok(true));
        db.commit(txn).expect("commit");
        committed.remove(&oid);
    }
    let before = pages(&db);
    let slots = before.last().expect("a root").0 .0 + 1;
    assert!(slots > before.len() as u64, "the churn left no hole");

    db.checkpoint().expect("checkpoint");
    db.crash_wal();
    drop(db);
    let recovered = DglRTree::recover(dir.path(), config).expect("recover");
    assert_eq!(pages(&recovered), before, "a page moved or changed");
    assert_eq!(contents(&recovered), committed);
}

// --- power loss on zero-filled segments ---------------------------------

use dgl_wal::read_segment;
use dgl_wal::record::{read_frame, FrameRead, SEGMENT_HEADER_LEN};

/// The page a power loss keeps or loses as a whole.
const PAGE: usize = 4096;

/// Where the valid frames of a segment image end.
fn valid_prefix_len(image: &[u8]) -> usize {
    let mut pos = SEGMENT_HEADER_LEN;
    while let FrameRead::Record(_, next) = read_frame(image, pos) {
        pos = next;
    }
    pos
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.is_file() {
            std::fs::copy(&path, to.join(path.file_name().expect("name"))).expect("copy");
        }
    }
}

/// What a power loss leaves of the unsynced range `[synced, written)` of
/// a zero-filled live segment. [`Wal::crash`]'s model truncates the file
/// to `synced` instead; a real loss keeps the file's length.
#[derive(Debug, Clone, Copy)]
enum PowerLoss {
    /// No unsynced page reached the disk: the range reads as zeros.
    RangeZeroed,
    /// One page inside the range never reached the disk; the unsynced
    /// bytes before and after it did.
    OnePageZeroed,
}

/// A workload, then one large commit whose flush is torn (the
/// `wal/fsync` failpoint writes half its batch in place and kills the
/// log before any `fsync`), then the power-loss image of the live
/// segment. Recovery must reach exactly the state the truncation model
/// reaches, and the crash-matrix oracle must hold on both.
fn run_power_loss_cell(how: PowerLoss) {
    let _serial = serialize();
    let label = format!("power-loss[{how:?}]");
    let _watchdog = Watchdog::arm(&label);
    let dir = TempDir::new("power-loss");
    let mut rng = XorShift::new(0x9E11);
    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let mut outcome = drive_until_crash(&db, &mut rng, 40, None);
    assert!(outcome.in_doubt.is_none(), "no WAL faults armed");
    assert!(outcome.acked > 10, "workload must do real work");

    // No checkpoint ran, so generation 0 is the live segment, and every
    // byte written to it so far is synced.
    let segment = segment_path(dir.path(), 0);
    let synced = valid_prefix_len(&std::fs::read(&segment).expect("segment"));

    let txn = db.begin();
    let mut ops = Vec::new();
    for i in 0..400u64 {
        let (oid, rect) = (1_000_000 + i, small_rect(&mut rng));
        db.insert(txn, ObjectId(oid), rect).expect("insert");
        ops.push(Op::Ins(oid, rect));
    }
    {
        let _torn = dgl_faults::register("wal/fsync", FaultSpec::error());
        assert_eq!(db.commit(txn), Err(TxnError::Durability), "{label}");
    }
    outcome.in_doubt = Some(ops);
    db.crash_wal(); // a no-op on the dead log: the half batch stays
    drop(db);

    let image = std::fs::read(&segment).expect("segment");
    assert_eq!(image.len(), 1 << 20, "{label}: the segment keeps its chunk");
    let written = image.iter().rposition(|&b| b != 0).expect("data") + 1;

    // The truncation model, on a copy of the directory.
    let truncated = TempDir::new("power-loss-truncated");
    copy_dir(dir.path(), truncated.path());
    std::fs::write(segment_path(truncated.path(), 0), &image[..synced]).expect("truncate");

    let mut lost = image.clone();
    match how {
        PowerLoss::RangeZeroed => lost[synced..written].fill(0),
        PowerLoss::OnePageZeroed => {
            let page = synced.div_ceil(PAGE) * PAGE;
            assert!(
                written > page + PAGE,
                "{label}: the torn batch must run past the zeroed page"
            );
            lost[page..page + PAGE].fill(0);
        }
    }
    std::fs::write(&segment, &lost).expect("power-loss image");

    let expected = recover_and_check(truncated.path(), config.clone(), &outcome, &label);
    let seen = recover_and_check(dir.path(), config, &outcome, &label);
    assert_eq!(
        seen, expected,
        "{label}: diverged from the truncation model"
    );
    assert_eq!(
        seen, outcome.committed,
        "{label}: the torn commit's record never reached the disk"
    );
}

#[test]
fn zero_filled_power_loss_zeroes_the_unsynced_range() {
    run_power_loss_cell(PowerLoss::RangeZeroed);
}

#[test]
fn zero_filled_power_loss_zeroes_one_unsynced_page() {
    run_power_loss_cell(PowerLoss::OnePageZeroed);
}

/// Two checkpoints whose snapshot writes fail leave three generations of
/// log above one snapshot. Recovery replays across all three, so the two
/// sealed segments sit mid-chain, each ending in its zero tail — which
/// must read as a clean end, never as a torn one.
#[test]
fn zero_filled_tails_read_clean_across_three_generations() {
    let _serial = serialize();
    let label = "three-generations";
    let _watchdog = Watchdog::arm(label);
    let dir = TempDir::new("three-gens");
    let mut rng = XorShift::new(0x3E4E);
    let config = durable_config(None);
    let db = DglRTree::open(dir.path(), config.clone()).expect("open");
    let mut committed = BTreeMap::new();
    commit_inserts(&db, &mut rng, 1..=20, &mut committed);
    for gen in 1..=2u64 {
        // A directory in place of the temporary snapshot file fails the
        // snapshot write after the log rotated. The log lives on, and the
        // older generation stays (it is pruned only once a newer snapshot
        // is durable).
        std::fs::create_dir(dir.path().join(format!("snapshot-{gen:010}.tmp")))
            .expect("block the snapshot");
        assert_eq!(db.checkpoint(), Err(TxnError::Durability), "{label}");
        commit_inserts(&db, &mut rng, gen * 20 + 1..=gen * 20 + 20, &mut committed);
    }
    db.crash_wal();
    drop(db);

    let listing = scan_dir(dir.path()).expect("scan");
    assert_eq!(listing.segments, [0, 1, 2]);
    assert_eq!(listing.snapshots, [0]);
    for gen in [0, 1] {
        let path = segment_path(dir.path(), gen);
        let len = std::fs::metadata(&path).expect("segment").len();
        assert_eq!(len, 1 << 20, "{label}: sealed segment {gen} keeps its tail");
        let seg = read_segment(&path).expect("read");
        assert_eq!(
            seg.torn_bytes, 0,
            "{label}: sealed segment {gen} ends clean"
        );
    }
    let outcome = Outcome {
        committed,
        in_doubt: None,
        acked: 60,
    };
    let seen = recover_and_check(dir.path(), config, &outcome, label);
    assert_eq!(seen.len(), 60, "{label}");
}

// --- cross-shard two-phase-commit crash matrix --------------------------

use granular_rtree::core::{ShardedDglRTree, ShardingConfig};

/// A small rect centered on `(cx, cy)` — with 4 shards over the unit
/// world the grid is 2×2, so the four quadrant centers land on four
/// distinct shards.
fn rect_at(cx: f64, cy: f64) -> Rect2 {
    Rect2::new([cx - 0.004, cy - 0.004], [cx + 0.004, cy + 0.004])
}

fn sharded_contents(db: &ShardedDglRTree) -> BTreeMap<u64, Rect2> {
    let txn = db.begin();
    let hits = db.read_scan(txn, Rect2::unit()).expect("full scan");
    db.commit(txn).expect("scan commit");
    hits.iter().map(|h| (h.oid.0, h.rect)).collect()
}

/// One 2PC crash cell: a committed cross-shard baseline, then a
/// cross-shard transaction whose coordinator dies at `failpoint` —
/// either between the participant prepares and the decision record
/// (`shard/2pc-before-decision`: recovery must presume abort on every
/// shard) or between the decision record and the participant commits
/// (`shard/2pc-after-decision`: recovery must commit every prepared
/// participant from the decision log). Both ways the outcome must be
/// atomic across shards, and the acked baseline intact. With `slow`
/// every flush before the crash is slowed ([`slow_flush`]).
fn run_2pc_cell(failpoint: &'static str, survives: bool, slow: bool) {
    let _serial = serialize();
    let label = format!("2pc[{failpoint} slow_flush={slow}]");
    let _watchdog = Watchdog::arm(&label);
    let dir = TempDir::new("2pc");
    let config = durable_config(None);
    let sharding = ShardingConfig {
        shards: 4,
        max_object_extent: 0.05,
    };
    let db =
        ShardedDglRTree::open(dir.path(), config.clone(), sharding.clone()).expect("open fresh");
    assert!(db.is_durable());
    let slowed = slow.then(slow_flush);

    // Acked baseline: single-shard commits on each quadrant (fast path)
    // plus one clean cross-shard commit through full 2PC.
    let centers = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)];
    let mut oracle = BTreeMap::new();
    for (i, (cx, cy)) in centers.iter().enumerate() {
        let oid = 1 + i as u64;
        let rect = rect_at(*cx, *cy);
        let txn = db.begin();
        db.insert(txn, ObjectId(oid), rect)
            .expect("baseline insert");
        db.commit(txn).expect("baseline commit");
        oracle.insert(oid, rect);
    }
    {
        let txn = db.begin();
        for (i, (cx, cy)) in centers.iter().enumerate() {
            let oid = 10 + i as u64;
            let rect = rect_at(cx - 0.05, cy - 0.05);
            db.insert(txn, ObjectId(oid), rect).expect("cross insert");
            oracle.insert(oid, rect);
        }
        db.commit(txn).expect("clean cross-shard commit");
    }
    assert_eq!(sharded_contents(&db), oracle, "baseline before crash");

    // The doomed cross-shard transaction: two writers on two shards.
    let doomed = [(101u64, rect_at(0.25, 0.35)), (102u64, rect_at(0.75, 0.65))];
    let txn = db.begin();
    for (oid, rect) in &doomed {
        db.insert(txn, ObjectId(*oid), *rect)
            .expect("doomed insert");
    }
    let guard = dgl_faults::register(failpoint, FaultSpec::error());
    let res = db.commit(txn);
    drop(guard);
    drop(slowed);
    assert!(
        matches!(res, Err(TxnError::Durability)),
        "{label}: crashed commit must report in-doubt, got {res:?}"
    );
    drop(db);

    let recovered =
        ShardedDglRTree::open(dir.path(), config.clone(), sharding.clone()).expect("recover");
    let seen = sharded_contents(&recovered);
    let mut expected = oracle.clone();
    if survives {
        for (oid, rect) in &doomed {
            expected.insert(*oid, *rect);
        }
    }
    assert_eq!(
        seen, expected,
        "{label}: in-doubt cross-shard transaction resolved wrong (or \
         non-atomically) against the coordinator log"
    );
    recovered
        .validate()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    drop(recovered);

    // Idempotence: resolving the same in-doubt state again changes
    // nothing (decisions survive until a checkpoint proves them
    // globally resolved).
    let again = ShardedDglRTree::open(dir.path(), config, sharding).expect("second recover");
    assert_eq!(
        sharded_contents(&again),
        expected,
        "{label}: second recovery changed the contents"
    );
}

#[test]
fn matrix_2pc_coordinator_dies_before_decision() {
    run_2pc_cell("shard/2pc-before-decision", false, false);
    run_2pc_cell("shard/2pc-before-decision", false, true);
}

#[test]
fn matrix_2pc_coordinator_dies_after_decision() {
    run_2pc_cell("shard/2pc-after-decision", true, false);
    run_2pc_cell("shard/2pc-after-decision", true, true);
}

/// Seeded mixed workload against the sharded tree with a probabilistic
/// 2PC crash: single-shard and cross-shard transactions interleave
/// until the failpoint kills the logs mid-2PC; recovery must keep every
/// acked commit and resolve the one in-doubt transaction atomically.
#[test]
fn matrix_2pc_seeded_workload_in_doubt_atomicity() {
    for (failpoint, survives) in [
        ("shard/2pc-before-decision", false),
        ("shard/2pc-after-decision", true),
    ] {
        let _serial = serialize();
        let label = format!("2pc-seeded[{failpoint}]");
        let _watchdog = Watchdog::arm(&label);
        let dir = TempDir::new("2pc-seeded");
        let config = durable_config(None);
        let sharding = ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        };
        let db = ShardedDglRTree::open(dir.path(), config.clone(), sharding.clone())
            .expect("open fresh");
        let mut rng = XorShift::new(0x2FC0 ^ failpoint.len() as u64);

        // Fires on the 5th full-2PC commit — deterministic, so the cell
        // always does real (acked) work first.
        let guard = dgl_faults::register(failpoint, FaultSpec::error().nth(5));
        let mut committed = BTreeMap::new();
        let mut in_doubt: Option<Vec<(u64, Rect2)>> = None;
        let mut acked = 0u64;
        let mut next_oid = 1u64;
        for _ in 0..120 {
            let cross = rng.chance(0.4);
            let txn = db.begin();
            let mut ops = Vec::new();
            let mut failed = false;
            for _ in 0..if cross { 2 } else { 1 } {
                let oid = next_oid;
                next_oid += 1;
                // Cross-shard ops scatter over quadrants; single-shard
                // ops stay in one.
                let (bx, by) = if cross {
                    (
                        if ops.is_empty() { 0.1 } else { 0.6 },
                        if ops.is_empty() { 0.1 } else { 0.6 },
                    )
                } else {
                    (0.1, 0.1)
                };
                let x = bx + rng.f64() * 0.3;
                let y = by + rng.f64() * 0.3;
                let rect = Rect2::new([x, y], [x + 0.005, y + 0.005]);
                match db.insert(txn, ObjectId(oid), rect) {
                    Ok(()) => ops.push((oid, rect)),
                    Err(TxnError::Durability) => {
                        failed = true;
                        break;
                    }
                    Err(e) => panic!("{label}: op failed: {e}"),
                }
            }
            if failed {
                break;
            }
            match db.commit(txn) {
                Ok(()) => {
                    for (oid, rect) in ops {
                        committed.insert(oid, rect);
                    }
                    acked += 1;
                }
                Err(TxnError::Durability) => {
                    in_doubt = Some(ops);
                    break;
                }
                Err(e) => panic!("{label}: commit failed: {e}"),
            }
        }
        drop(guard);
        db.crash_all_wals();
        drop(db);

        let recovered = ShardedDglRTree::open(dir.path(), config, sharding).expect("recover");
        let seen = sharded_contents(&recovered);
        let mut expected = committed.clone();
        match &in_doubt {
            Some(ops) => {
                // Our failpoints have a known resolution; assert it, and
                // with it atomicity (all ops or none, never a subset).
                if survives {
                    for (oid, rect) in ops {
                        expected.insert(*oid, *rect);
                    }
                }
                assert_eq!(seen, expected, "{label}: wrong in-doubt resolution");
            }
            None => assert_eq!(seen, expected, "{label}: acked commits diverged"),
        }
        assert!(acked > 5, "{label}: workload must do real work");
        recovered
            .validate()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        eprintln!(
            "{label}: {acked} acked, in-doubt: {}, {} live objects",
            in_doubt.is_some(),
            seen.len()
        );
    }
}

/// Decision (`Commit`) records currently on disk in the coordinator
/// log, across all its segments.
fn coord_decisions(dir: &Path) -> Vec<u64> {
    let coord = dir.join("coord");
    let listing = dgl_wal::scan_dir(&coord).expect("scan coord dir");
    let mut out = Vec::new();
    for g in listing.segments {
        let seg = dgl_wal::read_segment(&dgl_wal::segment_path(&coord, g)).expect("read segment");
        for rec in &seg.records {
            if let dgl_wal::WalRecord::Commit { txn } = rec {
                out.push(*txn);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Checkpoint-time coordinator-log pruning: decisions for globally
/// resolved 2PC transactions are dropped, while a decision some shard
/// still holds a prepared-undecided participant for must survive the
/// prune — recovery after a crash in that window resolves the
/// participant from the pruned log.
#[test]
fn coord_log_prune_keeps_in_doubt_decisions() {
    let _serial = serialize();
    let _watchdog = Watchdog::arm("coord-prune");
    let dir = TempDir::new("coord-prune");
    let config = durable_config(None);
    let sharding = ShardingConfig {
        shards: 4,
        max_object_extent: 0.05,
    };
    let db =
        ShardedDglRTree::open(dir.path(), config.clone(), sharding.clone()).expect("open fresh");

    // Several clean cross-shard 2PC commits: one decision each.
    let mut oracle = BTreeMap::new();
    for i in 0..5u64 {
        let txn = db.begin();
        for (oid, (cx, cy)) in [(10 * i + 1, (0.25, 0.25)), (10 * i + 2, (0.75, 0.75))] {
            let rect = rect_at(cx + i as f64 * 0.002, cy + i as f64 * 0.002);
            db.insert(txn, ObjectId(oid), rect).expect("insert");
            oracle.insert(oid, rect);
        }
        db.commit(txn).expect("cross-shard commit");
    }
    let before = coord_decisions(dir.path());
    assert!(before.len() >= 5, "five 2PC decisions logged: {before:?}");

    // All five are globally resolved, so a checkpoint prunes them down
    // to just the highest (kept so reopened ids stay monotone).
    db.checkpoint().expect("checkpoint");
    let after = coord_decisions(dir.path());
    assert_eq!(
        after,
        vec![*before.last().expect("nonempty")],
        "resolved decisions pruned, max decision carried"
    );

    // A 2PC held between its decision record and its participant
    // commits (Delay failpoint): while it sleeps, its gtxn is exactly
    // the in-doubt state a prune must preserve.
    let doomed = [(101u64, rect_at(0.25, 0.35)), (102u64, rect_at(0.75, 0.65))];
    let guard = dgl_faults::register(
        "shard/2pc-after-decision",
        FaultSpec::delay(Duration::from_millis(600)),
    );
    let commit_res = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            let txn = db.begin();
            for (oid, rect) in &doomed {
                db.insert(txn, ObjectId(*oid), *rect)
                    .expect("doomed insert");
            }
            db.commit(txn)
        });
        // Inside the delay window: decision durable, both participants
        // prepared and undecided. Prune now — the decision must ride
        // into the fresh segment.
        std::thread::sleep(Duration::from_millis(200));
        db.checkpoint().expect("checkpoint during 2PC window");
        let mid = coord_decisions(dir.path());
        assert_eq!(mid.len(), 1, "only the in-doubt decision survives: {mid:?}");
        // Crash before the participants complete: they stay prepared on
        // disk, resolvable only through the surviving decision.
        db.crash_all_wals();
        handle.join().expect("commit thread")
    });
    drop(guard);
    assert!(
        commit_res.is_err(),
        "crashed participant commits must not ack: {commit_res:?}"
    );
    drop(db);

    let recovered = ShardedDglRTree::open(dir.path(), config, sharding).expect("recover");
    let mut expected = oracle.clone();
    for (oid, rect) in &doomed {
        expected.insert(*oid, *rect);
    }
    assert_eq!(
        sharded_contents(&recovered),
        expected,
        "in-doubt participants must commit from the pruned decision log"
    );
    recovered.validate().expect("validate");
}
