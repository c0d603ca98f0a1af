//! Chaos suite: thousands of mixed operations against the full stack
//! (optimistic write path, deferred maintenance, abort-retry executor)
//! while a seeded fault schedule injects errors, delays and panics at
//! every failpoint layer. After the storm the index must be indistin-
//! guishable from one that ran fault-free:
//!
//! * no transaction ended in a non-retryable error,
//! * the repeatable-read oracle saw zero phantom anomalies,
//! * `quiesce` succeeds (every deferred deletion — including panicked,
//!   retried ones — was applied),
//! * the lock table is empty and no transaction is live,
//! * the index content equals the workload's committed live set,
//! * structural validation passes,
//! * and faults actually fired (the run was not a no-op).
//!
//! A watchdog aborts the process if a run wedges — a hang is a failure,
//! never a silent timeout.
//!
//! Three fixed seeds run in CI on every push; `chaos_randomized_seed`
//! adds a fresh seed per run (override with `CHAOS_SEED=<n>` to replay).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, Rect2, RetryPolicy, ShardedDglRTree, ShardingConfig,
    TransactionalRTree,
};
use dgl_faults::FaultSpec;
use dgl_lockmgr::LockManagerConfig;
use dgl_obs::Ctr;
use dgl_rtree::RTreeConfig;
use dgl_workload::{drive, DriveConfig, DriveReport, OpMix, OpStream};

/// The fault registry is process-global: chaos runs must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

// ≥5,000 mixed operations per seed: 4 × 650 × 2.
const THREADS: u64 = 4;
const TXNS_PER_THREAD: usize = 650;
const OPS_PER_TXN: usize = 2;
const WATCHDOG_LIMIT: Duration = Duration::from_secs(180);

/// Aborts the whole process if the run outlives [`WATCHDOG_LIMIT`] —
/// the suite's contract is that every injected fault resolves *cleanly
/// or loudly*, and a hang inside a lock wait or `quiesce` would
/// otherwise stall the test runner forever.
struct Watchdog {
    done: Arc<AtomicBool>,
}

impl Watchdog {
    fn arm(label: &str) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let observed = Arc::clone(&done);
        let label = label.to_string();
        std::thread::spawn(move || {
            let deadline = Instant::now() + WATCHDOG_LIMIT;
            while Instant::now() < deadline {
                if observed.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            eprintln!(
                "chaos watchdog: '{label}' still running after \
                 {WATCHDOG_LIMIT:?} — a fault wedged the stack; aborting"
            );
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

/// Arms the full fault schedule, seeded. Every layer gets at least one
/// site; kinds are chosen per site so the injection is survivable by
/// construction (e.g. `maint/deferred` panics stay under the
/// maintenance retry budget, so a record can never perma-fail).
fn arm_schedule(seed: u64) -> Vec<dgl_faults::FaultGuard> {
    let us = Duration::from_micros;
    vec![
        // Lock manager: slow handoffs plus spuriously forced timeouts.
        dgl_faults::register(
            "lockmgr/acquire",
            FaultSpec::delay(us(100)).one_in(250, seed ^ 0xA1),
        ),
        dgl_faults::register(
            "lockmgr/grant",
            FaultSpec::delay(us(50)).one_in(250, seed ^ 0xA2),
        ),
        dgl_faults::register(
            "lockmgr/timeout",
            FaultSpec::error().one_in(300, seed ^ 0xA3),
        ),
        // Write path: aborted plans, forced stale-plan verdicts, panics
        // under the exclusive latch, failed commits.
        dgl_faults::register("dgl/plan", FaultSpec::error().one_in(250, seed ^ 0xA4)),
        dgl_faults::register("dgl/validate", FaultSpec::error().one_in(250, seed ^ 0xA5)),
        dgl_faults::register("dgl/apply", FaultSpec::panic().one_in(350, seed ^ 0xA6)),
        dgl_faults::register("dgl/commit", FaultSpec::error().one_in(400, seed ^ 0xA7)),
        // Maintenance: panicked system operations. Capped at 3 fires —
        // below MAINT_MAX_ATTEMPTS — so even the same record panicking
        // every time still completes on a later attempt.
        dgl_faults::register(
            "maint/deferred",
            FaultSpec::panic().one_in(3, seed ^ 0xA8).max_fires(3),
        ),
        // Pager: slow page reads stretch latch holds.
        dgl_faults::register(
            "pager/read",
            FaultSpec::delay(us(2)).one_in(1_500, seed ^ 0xA9),
        ),
    ]
}

fn chaos_run(seed: u64) {
    let _serial = CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _watchdog = Watchdog::arm(&format!("chaos seed {seed:#x}"));

    let db = DglRTree::new(DglConfig {
        // Small fanout: more splits, more granule negotiation.
        rtree: RTreeConfig::with_fanout(5),
        policy: InsertPolicy::Modified,
        // Short waits: injected delays and panic recovery must never
        // stretch into a hang; timeouts are retried by the executor.
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(250),
        },
        ..Default::default()
    });

    // CHAOS_OBS=1 turns the full structured event stream on for the
    // storm (CI runs one seed this way): span and lock-event emission
    // must survive the same fault schedule as the data path.
    let obs_detail = std::env::var("CHAOS_OBS").is_ok_and(|v| v == "1");
    if obs_detail {
        db.obs().set_detail(true);
    }

    let fires_before = dgl_faults::total_fires();
    let schedule = arm_schedule(seed);

    let drive_cfg = DriveConfig {
        txns: TXNS_PER_THREAD,
        ops_per_txn: OPS_PER_TXN,
        policy: RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(10),
            jitter_seed: seed,
        },
        oracle: true,
    };

    let (report, live): (DriveReport, BTreeSet<u64>) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = &db;
            let cfg = drive_cfg;
            handles.push(s.spawn(move || {
                let mut stream = OpStream::new(OpMix::balanced(), 100 + tid, seed);
                let report = drive(db, &mut stream, &cfg);
                let live: BTreeSet<u64> = stream.live_objects().iter().map(|(o, _)| o.0).collect();
                (report, live)
            }));
        }
        let mut total = DriveReport::default();
        let mut live = BTreeSet::new();
        for h in handles {
            let (r, l) = h.join().expect("worker thread survives chaos");
            total.ops += r.ops;
            total.commits += r.commits;
            total.retries += r.retries;
            total.giveups += r.giveups;
            total.duplicates += r.duplicates;
            total.oracle_failures += r.oracle_failures;
            total.fatal += r.fatal;
            live.extend(l);
        }
        (total, live)
    });
    // Disarm before verifying: quiesce, the final scan, its commit and
    // validate below must not meet a fault that belonged to the storm.
    drop(schedule);

    let fires = dgl_faults::total_fires() - fires_before;
    let stats = db.obs().snapshot();
    eprintln!(
        "chaos seed {seed:#x}: {} commits, {} retries, {} giveups, \
         {} injected faults, {} exec panics, {} maint panics",
        report.commits,
        report.retries,
        report.giveups,
        fires,
        stats.ctr(Ctr::ExecPanics),
        stats.ctr(Ctr::MaintPanics)
    );

    // Every fault resolved cleanly: nothing fatal, no phantoms.
    assert_eq!(report.fatal, 0, "seed {seed:#x}: non-retryable error");
    assert_eq!(
        report.oracle_failures, 0,
        "seed {seed:#x}: repeatable-read oracle saw a phantom"
    );
    assert!(
        report.commits + report.giveups == THREADS * (TXNS_PER_THREAD as u64),
        "seed {seed:#x}: every transaction accounted for"
    );
    assert!(fires > 0, "seed {seed:#x}: the schedule never fired");

    // Every deferred deletion was applied — retried ones included.
    db.quiesce()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: quiesce failed: {e}"));
    assert_eq!(db.active_txns(), 0, "seed {seed:#x}");
    assert_eq!(
        db.lock_manager().resource_count(),
        0,
        "seed {seed:#x}: lock table must be empty at quiesce"
    );
    assert_eq!(db.latch_probe(), (true, true), "seed {seed:#x}");

    // The index contains exactly the committed live set.
    let txn = db.begin();
    let seen: BTreeSet<u64> = db
        .read_scan(txn, Rect2::unit())
        .expect("final scan")
        .iter()
        .map(|h| h.oid.0)
        .collect();
    db.commit(txn).expect("final commit");
    assert_eq!(
        seen, live,
        "seed {seed:#x}: index content diverged from the committed set"
    );
    db.validate()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: validation failed: {e}"));

    if obs_detail {
        // The event stream ran through the whole storm: it must have
        // recorded it (the ring may drop oldest entries — that's fine).
        assert!(
            db.obs().events_len() > 0,
            "seed {seed:#x}: CHAOS_OBS=1 but no events were captured"
        );
        eprintln!(
            "chaos seed {seed:#x}: {} events buffered, {} dropped",
            db.obs().events_len(),
            db.obs().events_dropped()
        );
    }
}

/// Multi-shard chaos leg: cross-shard cycles form mid-storm and are
/// refused at block time, on whichever shard the victim is parked. The
/// invariants:
///
/// * **no lost victims** — every victim observes its `Deadlock` verdict
///   and rolls back (a lost victim would leave a live transaction or a
///   held lock behind after quiesce, or wedge the run into the
///   watchdog);
/// * **no double-aborts** — every driven transaction is accounted for
///   exactly once as a commit or a giveup, and nothing surfaces as a
///   non-retryable error (a second abort of an already-dead victim
///   would turn into `NotActive`, which is fatal to the executor);
/// * the repeatable-read oracle still sees zero phantoms across shards.
fn chaos_sharded_run(seed: u64) {
    let _serial = CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _watchdog = Watchdog::arm(&format!("chaos sharded seed {seed:#x}"));

    let db = ShardedDglRTree::new(
        DglConfig {
            rtree: RTreeConfig::with_fanout(5),
            policy: InsertPolicy::Modified,
            // Backstop only: genuine cross-shard cycles are refused as
            // deadlocks; this bound keeps a wait behind an injected
            // delay from dragging the storm out. Timeout retries are
            // budget-free in the executor.
            lock: LockManagerConfig {
                wait_timeout: Duration::from_millis(250),
            },
            ..Default::default()
        },
        ShardingConfig {
            shards: 4,
            max_object_extent: 0.05,
        },
    );

    let fires_before = dgl_faults::total_fires();
    let schedule = arm_schedule(seed);

    let drive_cfg = DriveConfig {
        txns: TXNS_PER_THREAD,
        ops_per_txn: OPS_PER_TXN,
        policy: RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(10),
            jitter_seed: seed,
        },
        oracle: true,
    };

    let (report, live): (DriveReport, BTreeSet<u64>) = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for tid in 0..THREADS {
            let db = &db;
            let cfg = drive_cfg;
            handles.push(s.spawn(move || {
                let mut stream = OpStream::new(OpMix::balanced(), 100 + tid, seed);
                let report = drive(db, &mut stream, &cfg);
                let live: BTreeSet<u64> = stream.live_objects().iter().map(|(o, _)| o.0).collect();
                (report, live)
            }));
        }
        let mut total = DriveReport::default();
        let mut live = BTreeSet::new();
        for h in handles {
            let (r, l) = h.join().expect("worker thread survives chaos");
            total.ops += r.ops;
            total.commits += r.commits;
            total.retries += r.retries;
            total.giveups += r.giveups;
            total.duplicates += r.duplicates;
            total.oracle_failures += r.oracle_failures;
            total.fatal += r.fatal;
            live.extend(l);
        }
        (total, live)
    });
    drop(schedule);

    let fires = dgl_faults::total_fires() - fires_before;
    let obs = db.obs_snapshot();
    let watchdog_fires = obs.ctr(dgl_obs::Ctr::WatchdogStalls);
    eprintln!(
        "chaos sharded seed {seed:#x}: {} commits, {} retries, {} giveups, \
         {fires} injected faults, {watchdog_fires} watchdog stalls",
        report.commits, report.retries, report.giveups,
    );

    // No double-aborts: a verdict landing on an already-dead transaction
    // surfaces as fatal `NotActive`; exact once-each accounting below.
    assert_eq!(report.fatal, 0, "seed {seed:#x}: non-retryable error");
    assert_eq!(
        report.oracle_failures, 0,
        "seed {seed:#x}: repeatable-read oracle saw a phantom across shards"
    );
    assert!(
        report.commits + report.giveups == THREADS * (TXNS_PER_THREAD as u64),
        "seed {seed:#x}: every transaction accounted for exactly once"
    );
    assert!(fires > 0, "seed {seed:#x}: the schedule never fired");

    // No lost victims: every verdict was observed and rolled back — a
    // victim that never saw its verdict would still be live (or still
    // hold locks) here.
    db.quiesce()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: quiesce failed: {e}"));
    for (i, shard) in db.shard_handles().iter().enumerate() {
        assert_eq!(
            shard.active_txns(),
            0,
            "seed {seed:#x}: shard {i} has live transactions after the storm"
        );
        assert_eq!(
            shard.lock_manager().resource_count(),
            0,
            "seed {seed:#x}: shard {i} lock table not empty after the storm"
        );
    }

    let txn = db.begin();
    let seen: BTreeSet<u64> = db
        .read_scan(txn, Rect2::unit())
        .expect("final scan")
        .iter()
        .map(|h| h.oid.0)
        .collect();
    db.commit(txn).expect("final commit");
    assert_eq!(
        seen, live,
        "seed {seed:#x}: sharded index diverged from the committed set"
    );
    db.validate()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: validation failed: {e}"));
}

#[test]
fn chaos_seed_c0ffee() {
    chaos_run(0xC0FFEE);
}

#[test]
fn chaos_sharded_seed_d1ce() {
    chaos_sharded_run(0xD1CE);
}

#[test]
fn chaos_seed_dead_beef() {
    chaos_run(0xDEAD_BEEF);
}

#[test]
fn chaos_seed_5eed_5eed() {
    chaos_run(0x5EED_5EED);
}

/// A fresh seed per run (CI prints it; replay with `CHAOS_SEED=<n>`).
#[test]
fn chaos_randomized_seed() {
    let seed = match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock after epoch")
                .subsec_nanos() as u64
                ^ 0x5EED_0000
        }
    };
    eprintln!("chaos_randomized_seed: rerun with CHAOS_SEED={seed}");
    chaos_run(seed);
}
