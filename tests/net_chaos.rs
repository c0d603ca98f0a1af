//! Chaos over the wire: failpoints armed at every backend layer while
//! concurrent clients hammer a loopback server. The claim under test
//! is the session contract — **every** injected failure (error, delay,
//! even a panic under the exclusive latch) surfaces to clients as a
//! typed, retryable protocol error on a connection that keeps working;
//! never a dropped connection, a desynchronized stream, or a hang.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dgl_client::{Client, ClientError};
use dgl_faults::FaultSpec;
use dgl_server::{Backend, Server, ServerConfig};
use granular_rtree::core::{DglConfig, DglRTree, InsertPolicy, Rect2};
use granular_rtree::lockmgr::LockManagerConfig;
use granular_rtree::rtree::RTreeConfig;

/// The fault registry is process-global: runs must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const CLIENTS: u64 = 4;
const COMMITS_PER_CLIENT: u64 = 120;
const WATCHDOG_LIMIT: Duration = Duration::from_secs(120);

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
            eprintln!("net chaos watchdog: '{label}' wedged; aborting");
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

/// Survivable-by-construction fault schedule across the stack,
/// including panics on the write path (which the server must contain
/// per-request).
fn arm_schedule(seed: u64) -> Vec<dgl_faults::FaultGuard> {
    let us = Duration::from_micros;
    vec![
        dgl_faults::register(
            "lockmgr/acquire",
            FaultSpec::delay(us(100)).one_in(200, seed ^ 0xC1),
        ),
        dgl_faults::register(
            "lockmgr/timeout",
            FaultSpec::error().one_in(250, seed ^ 0xC2),
        ),
        dgl_faults::register("dgl/plan", FaultSpec::error().one_in(200, seed ^ 0xC3)),
        dgl_faults::register("dgl/validate", FaultSpec::error().one_in(200, seed ^ 0xC4)),
        dgl_faults::register("dgl/apply", FaultSpec::panic().one_in(300, seed ^ 0xC5)),
        dgl_faults::register("dgl/commit", FaultSpec::error().one_in(300, seed ^ 0xC6)),
    ]
}

#[test]
fn injected_faults_surface_as_typed_errors_not_drops() {
    let _serial = CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _watchdog = Watchdog::arm("net chaos");
    let seed = 0xDEC0DE;

    let backend = Backend::Single(DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(5),
        policy: InsertPolicy::Modified,
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(250),
        },
        ..Default::default()
    }));
    let mut server = Server::start(
        backend,
        ServerConfig {
            // Generous: chaos delays must not trip the liveness timers.
            txn_timeout: Duration::from_secs(30),
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.addr();

    let fires_before = dgl_faults::total_fires();
    let _schedule = arm_schedule(seed);

    let typed_errors = Arc::new(AtomicU64::new(0));
    let contained_panics = Arc::new(AtomicU64::new(0));

    let committed: BTreeSet<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|cid| {
                let typed_errors = Arc::clone(&typed_errors);
                let contained_panics = Arc::clone(&contained_panics);
                s.spawn(move || {
                    // ONE connection for the whole storm: any drop
                    // would fail the next call loudly.
                    let mut c = Client::connect(addr).expect("connect");
                    let mut committed = Vec::new();
                    let mut serial = 0u64;
                    while committed.len() < COMMITS_PER_CLIENT as usize {
                        serial += 1;
                        let oid = (cid << 40) | serial;
                        let x = 0.02 + ((oid.wrapping_mul(0x9E37_79B9)) % 900) as f64 / 1000.0;
                        let rect = Rect2::new([x, x], [x + 0.003, x + 0.003]);
                        let outcome = (|| {
                            let txn = c.begin()?;
                            c.insert(txn, oid, rect)?;
                            if serial.is_multiple_of(5) {
                                c.search(txn, Rect2::new([x, x], [x + 0.05, x + 0.05]))?;
                            }
                            c.commit(txn)
                        })();
                        match outcome {
                            Ok(()) => committed.push(oid),
                            Err(e @ ClientError::Server { .. }) => {
                                // The whole point: failure is typed and
                                // retryable, the connection lives on.
                                assert!(
                                    e.is_retryable(),
                                    "client {cid}: non-retryable injected failure: {e}"
                                );
                                typed_errors.fetch_add(1, Ordering::Relaxed);
                                if e.code() == Some(dgl_proto::ErrorCode::Internal) {
                                    contained_panics.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(other) => {
                                panic!("client {cid}: connection-level failure: {other}")
                            }
                        }
                    }
                    committed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chaos client"))
            .collect()
    });

    // Anti-vacuity: the schedule actually fired, and clients actually
    // saw typed failures.
    drop(_schedule);
    assert!(
        dgl_faults::total_fires() > fires_before,
        "chaos run was a no-op: no fault fired"
    );
    assert!(
        typed_errors.load(Ordering::Relaxed) > 0,
        "no injected failure ever reached a client as a typed error"
    );

    // After the storm the server is healthy: every connection survived
    // (asserted per-client above), and the backend converges to
    // exactly the committed content.
    let tree = server.backend().tree();
    tree.validate().expect("invariants after chaos");
    assert_eq!(
        tree.len(),
        committed.len(),
        "backend content diverged from committed history"
    );
    eprintln!(
        "net chaos: {} commits, {} typed errors ({} contained panics)",
        committed.len(),
        typed_errors.load(Ordering::Relaxed),
        contained_panics.load(Ordering::Relaxed),
    );
    server.shutdown().expect("drain");
}

/// A request that panics inside the backend must produce `Internal` on
/// that request and leave the connection fully usable — pinpoint
/// version of the storm's contract, deterministic via `nth(1)`.
#[test]
fn contained_panic_keeps_connection_alive() {
    let _serial = CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _watchdog = Watchdog::arm("contained panic");

    let backend = Backend::Single(DglRTree::new(DglConfig::default()));
    let mut server =
        Server::start(backend, ServerConfig::default(), "127.0.0.1:0").expect("bind loopback");
    let mut c = Client::connect(server.addr()).expect("connect");

    let guard = dgl_faults::register("dgl/apply", FaultSpec::panic().nth(1));
    let txn = c.begin().expect("begin");
    let err = c
        .insert(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
        .expect_err("insert should hit the armed panic");
    assert_eq!(err.code(), Some(dgl_proto::ErrorCode::Internal));
    assert!(err.is_retryable());
    drop(guard);

    // Same connection, fresh transaction: everything works.
    let txn = c.begin().expect("begin after panic");
    c.insert(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
        .expect("insert after panic");
    c.commit(txn).expect("commit after panic");
    assert_eq!(c.count().expect("count"), 1);
    server.backend().tree().validate().expect("invariants");
    server.shutdown().expect("drain");
}
