//! Network front-end throughput: `dgl-client` connections driving a
//! loopback `dgl-server` over the wire protocol, swept over the
//! **connection count** — the axis the in-process sweep cannot have.
//!
//! Each connection is a real socket with its own session thread on the
//! server side, so a cell at N connections measures the whole stack:
//! framing, per-session dispatch, the kernel loopback path, and the DGL
//! protocol underneath. The run fails loudly if any connection sees a
//! non-retryable protocol error or a transport failure — the bench
//! doubles as a load-level conformance check (`--net` in CI).
//!
//! Rows reuse [`ThroughputRow`] with `protocol = "dgl-net"` and the
//! `connections` column set, so they land in the same
//! `BENCH_throughput.json` as the in-process contenders.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use dgl_client::{Client, ClientError};
use dgl_core::{
    DglConfig, DglRTree, InsertPolicy, Rect2, RetryPolicy, TransactionalRTree, TxnExecutor,
};
use dgl_obs::Ctr;
use dgl_rtree::RTreeConfig;
use dgl_server::{Backend, Server, ServerConfig};

use super::throughput::ThroughputRow;

/// Connection-count sweep shape.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Concurrent connections per cell. Every connection is a dedicated
    /// socket + client thread, held open for the whole cell.
    pub connections: Vec<u64>,
    /// Committed transactions per cell, split evenly across connections
    /// (each connection commits at least one).
    pub commits_total: u64,
    /// R-tree fanout for the server backend.
    pub fanout: usize,
    /// Objects preloaded into the backend before the cell starts.
    pub preload: u64,
    /// Workload seed (rect placement).
    pub seed: u64,
    /// Minimum measured duration per cell, seconds; connections that
    /// finish their quota early keep committing until the floor is met.
    pub min_cell_secs: f64,
    /// Transactions in flight at once across the whole cell (see
    /// [`Gate`]): connections beyond this wait their turn while their
    /// sockets and sessions stay open.
    pub inflight: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            connections: vec![8, 64, 256, 1000],
            commits_total: 4_000,
            fanout: 16,
            preload: 4_000,
            seed: 42,
            min_cell_secs: 0.25,
            inflight: 32,
        }
    }
}

impl NetConfig {
    /// Tiny run for CI smoke checks — still real sockets and sessions.
    pub fn smoke() -> Self {
        Self {
            connections: vec![4, 16],
            commits_total: 120,
            preload: 200,
            min_cell_secs: 0.05,
            ..Self::default()
        }
    }
}

/// Deterministic tiny rect for object `oid`, scattered over the unit
/// square away from the edges.
fn rect_for(oid: u64, seed: u64) -> Rect2 {
    let h = oid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed.wrapping_mul(0xD134_2543_DE82_EF95));
    let x = 0.02 + (h % 900) as f64 / 1000.0;
    let y = 0.02 + ((h >> 32) % 900) as f64 / 1000.0;
    Rect2::new([x, y], [x + 0.004, y + 0.004])
}

/// Preload oids live far above the worker oid space (`cid << 40 |
/// serial`): the cell's inserts never collide with them.
const PRELOAD_BASE: u64 = 1 << 56;

fn preloaded_backend(cfg: &NetConfig) -> Backend {
    let tree = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(cfg.fanout),
        policy: InsertPolicy::Modified,
        ..Default::default()
    });
    let exec = TxnExecutor::new(&tree, RetryPolicy::default());
    let mut loaded = 0u64;
    while loaded < cfg.preload {
        let batch = (cfg.preload - loaded).min(128);
        exec.run(|txn| {
            for i in 0..batch {
                let oid = PRELOAD_BASE + loaded + i;
                tree.insert(txn, dgl_rtree::ObjectId(oid), rect_for(oid, cfg.seed))?;
            }
            Ok(())
        })
        .expect("net bench preload");
        loaded += batch;
    }
    Backend::Single(tree)
}

/// A counting semaphore gating two phases of a cell:
///
/// - **Connects.** A thousand simultaneous SYNs overflow the listener's
///   accept backlog (128 on Linux); the dropped ones come back on the
///   kernel's exponential SYN-retry schedule — seconds to minutes of
///   artificial ramp-up. Gating the attempts keeps the backlog fed but
///   never overflowed, so a thousand connections establish in seconds.
/// - **In-flight transactions.** The cell's subject is the network
///   front-end, not the locking protocol's contention collapse: a
///   thousand *simultaneous write transactions* against one small tree
///   just thrash the granule-lock space (every point of the in-process
///   sweep stays ≤ 8 writers). Every connection stays open for the
///   whole cell, but only `NetConfig::inflight` of them are inside a
///   transaction at any instant — the admission cap any real server
///   front-end puts between its sessions and its storage engine.
struct Gate {
    permits: Mutex<u64>,
    freed: Condvar,
}

impl Gate {
    fn new(permits: u64) -> Self {
        Self {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut n = self.permits.lock().expect("bench gate");
        while *n == 0 {
            n = self.freed.wait(n).expect("bench gate");
        }
        *n -= 1;
        drop(n);
        let out = f();
        *self.permits.lock().expect("bench gate") += 1;
        self.freed.notify_one();
        out
    }
}

/// One connection's share of a cell: small insert + periodic scan
/// transactions over its own socket, retrying retryable verdicts.
/// Returns `(ops, commits, aborts)`; any non-retryable or transport
/// failure lands in `hard_errors` (the cell asserts it stays zero).
fn drive_connection(
    mut c: Client,
    cfg: &NetConfig,
    cid: u64,
    quota: u64,
    ready: &Barrier,
    work: &Gate,
    hard_errors: &AtomicU64,
) -> (u64, u64, u64) {
    ready.wait();
    let start = Instant::now();
    let (mut ops, mut commits, mut aborts) = (0u64, 0u64, 0u64);
    let mut serial = 0u64;
    while commits < quota || start.elapsed().as_secs_f64() < cfg.min_cell_secs {
        serial += 1;
        let oid = (cid << 40) | serial;
        let rect = rect_for(oid, cfg.seed);
        let attempt = work.with(|| {
            let mut txn_ops = 1u64;
            let txn = c.begin()?;
            c.insert(txn, oid, rect)?;
            if serial.is_multiple_of(4) {
                let query = Rect2::new(
                    [rect.lo[0] - 0.02, rect.lo[1] - 0.02],
                    [rect.hi[0] + 0.02, rect.hi[1] + 0.02],
                );
                c.search(txn, query)?;
                txn_ops += 1;
            }
            c.commit(txn)?;
            Ok::<u64, ClientError>(txn_ops)
        });
        match attempt {
            Ok(txn_ops) => {
                ops += txn_ops;
                commits += 1;
            }
            Err(e) if e.is_retryable() => aborts += 1,
            Err(e) => {
                eprintln!("net bench: connection {cid}: hard error: {e}");
                hard_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    (ops, commits, aborts)
}

/// Runs one cell: a fresh preloaded server, `conns` concurrent client
/// connections, all live before the measured interval starts (a barrier
/// releases them together). When `dump` is given, the server's combined
/// net-layer + backend Prometheus text is appended to it after the load
/// but before shutdown.
fn run_cell(cfg: &NetConfig, conns: u64, dump: Option<&mut String>) -> ThroughputRow {
    let server = Server::start(
        preloaded_backend(cfg),
        ServerConfig {
            // Connections idle at the start barrier until the whole
            // fleet is up; the reaper must not cull them meanwhile.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback bench server");
    let addr = server.addr();
    let quota = (cfg.commits_total / conns).max(1);
    let ready = Arc::new(Barrier::new(conns as usize + 1));
    let connect_gate = Arc::new(Gate::new(64));
    let work = Arc::new(Gate::new(cfg.inflight.max(1)));
    let hard_errors = Arc::new(AtomicU64::new(0));

    let mut server = server;
    let start = Instant::now();
    let (ops, commits, aborts) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|cid| {
                let ready = Arc::clone(&ready);
                let connect_gate = Arc::clone(&connect_gate);
                let work = Arc::clone(&work);
                let hard_errors = Arc::clone(&hard_errors);
                std::thread::Builder::new()
                    .name(format!("net-bench-{cid}"))
                    .stack_size(256 * 1024)
                    .spawn_scoped(s, move || {
                        let c = connect_gate
                            .with(|| Client::connect(addr).expect("connect bench client"));
                        drive_connection(c, cfg, cid, quota, &ready, &work, &hard_errors)
                    })
                    .expect("spawn bench connection")
            })
            .collect();
        // Every connection is established and handshaken before the
        // barrier releases: the cell really does hold `conns` live
        // sessions concurrently.
        ready.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench connection thread"))
            .fold((0, 0, 0), |(o, c, a), (do_, dc, da)| {
                (o + do_, c + dc, a + da)
            })
    });
    let elapsed = start.elapsed().as_secs_f64();

    assert_eq!(
        hard_errors.load(Ordering::Relaxed),
        0,
        "net bench cell at {conns} connections saw non-retryable protocol errors"
    );
    let net = server.obs().snapshot();
    assert!(
        net.ctr(Ctr::NetRequests) > 0,
        "server counted no requests — the cell measured nothing"
    );
    if let Some(dump) = dump {
        dump.push_str(&format!("# net connections {conns}\n"));
        dump.push_str(&server.prometheus_dump());
        dump.push('\n');
    }
    server.shutdown().expect("drain bench server");

    ThroughputRow {
        protocol: "dgl-net".to_string(),
        mix: "net-write-scan".to_string(),
        threads: conns,
        shards: 1,
        connections: Some(conns),
        ops_per_sec: ops as f64 / elapsed,
        commits,
        aborts,
        timeout_aborts: None,
        deadlock_aborts: None,
        elapsed_secs: elapsed,
        plan_validation_failures: None,
        avg_x_latch_nanos: None,
        x_latch_total_nanos: None,
        lock_wait_p50_nanos: None,
        lock_wait_p95_nanos: None,
        lock_wait_p99_nanos: None,
        lock_wait_scan_count: None,
        lock_wait_scan_p95_nanos: None,
        lock_wait_point_count: None,
        lock_wait_point_p95_nanos: None,
        lock_wait_write_count: None,
        lock_wait_write_p95_nanos: None,
        snapshot_scans: None,
        hash_hits: None,
        hash_misses: None,
        hash_hit_rate: None,
        x_latch_p50_nanos: None,
        x_latch_p95_nanos: None,
        x_latch_p99_nanos: None,
        commit_p50_nanos: None,
        commit_p95_nanos: None,
        commit_p99_nanos: None,
    }
}

/// Runs the connection sweep. Also returns each cell's combined
/// net-layer + backend Prometheus dump, one `# net connections N`
/// section per cell, for the CI artifact (the `dgl_net_*` series live
/// there).
pub fn run_net_sweep_with_dump(cfg: &NetConfig) -> (Vec<ThroughputRow>, String) {
    let mut rows = Vec::new();
    let mut dump = String::new();
    for &conns in &cfg.connections {
        eprintln!("net cell: {conns} connections");
        rows.push(run_cell(cfg, conns, Some(&mut dump)));
    }
    (rows, dump)
}

/// Runs the connection sweep without capturing Prometheus text.
pub fn run_net_sweep(cfg: &NetConfig) -> Vec<ThroughputRow> {
    cfg.connections
        .iter()
        .map(|&conns| {
            eprintln!("net cell: {conns} connections");
            run_cell(cfg, conns, None)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_net_sweep_runs_and_serializes() {
        let cfg = NetConfig {
            connections: vec![4, 16],
            commits_total: 60,
            preload: 120,
            min_cell_secs: 0.0,
            ..NetConfig::default()
        };
        let (rows, prom) = run_net_sweep_with_dump(&cfg);
        assert_eq!(rows.len(), 2);
        for (r, &conns) in rows.iter().zip(&cfg.connections) {
            assert_eq!(r.protocol, "dgl-net");
            assert_eq!(r.connections, Some(conns));
            assert_eq!(r.threads, conns);
            assert!(r.ops_per_sec > 0.0, "{r:?}");
            // Every connection commits at least its quota share.
            assert!(
                r.commits >= (cfg.commits_total / conns).max(1) * conns,
                "{r:?}"
            );
            // Metrics the wire cell structurally does not measure stay
            // null, never zero.
            assert!(r.lock_wait_p50_nanos.is_none(), "{r:?}");
        }
        // The artifact carries the net-layer series CI greps for.
        assert!(prom.contains("# net connections 16"));
        assert!(prom.contains("dgl_net_requests_total"));
        assert!(prom.contains("dgl_net_bytes_in_total"));
        assert!(prom.contains("dgl_session_aborts_total"));
        // Net rows serialize through the shared JSON emitter with the
        // connections column set (in-process rows emit null there).
        let json = super::super::throughput::to_json(
            &super::super::throughput::ThroughputConfig::smoke(),
            &rows,
        );
        assert!(json.contains("\"protocol\": \"dgl-net\""));
        assert!(json.contains("\"connections\": 4"));
        assert!(json.contains("\"connections\": 16"));
    }

    /// The acceptance cell: one thousand concurrent sessions — every
    /// socket connected and handshaken before the barrier drops — with
    /// zero non-retryable protocol errors (asserted inside the cell).
    #[test]
    fn sustains_thousand_concurrent_connections() {
        let cfg = NetConfig {
            connections: vec![1000],
            commits_total: 1000,
            preload: 100,
            min_cell_secs: 0.0,
            ..NetConfig::default()
        };
        let rows = run_net_sweep(&cfg);
        assert_eq!(rows[0].connections, Some(1000));
        assert!(rows[0].commits >= 1000, "{:?}", rows[0]);
    }
}
