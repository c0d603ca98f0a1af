//! Server throughput against **connection count** over loopback — the
//! one speed question `benchmark/` (a single pinned client) cannot ask.
//! ROADMAP item 4(b) wants it flat from 8 to 1000 connections.
//!
//! Each connection is a real `dgl-client` socket with its own session
//! thread in a preloaded `dgl-server`, so a cell at N connections
//! crosses framing, per-session dispatch, the kernel loopback path and
//! the DGL protocol underneath. A cell panics if any connection sees a
//! non-retryable protocol error or a transport failure.

use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use dgl_client::{Client, ClientError};
use dgl_core::{DglConfig, DglRTree, InsertPolicy, ObjectId, Rect2, TransactionalRTree};
use dgl_obs::Ctr;
use dgl_rtree::RTreeConfig;
use dgl_server::{Backend, Server, ServerConfig};

use crate::report;

/// One cell's reading.
#[derive(Debug)]
pub struct ConnectionsRow {
    /// Connections live for the whole cell.
    pub connections: u64,
    /// Operations (inserts + scans) completed per second, all connections.
    pub ops_per_sec: f64,
    /// Transactions committed.
    pub commits: u64,
    /// The server's `session_aborts`: transactions it rolled back on its
    /// own (timeout, contained panic, connection torn down mid-txn).
    pub session_aborts: u64,
}

/// Square of half-width `half` around `oid`'s deterministic centre, away
/// from the unit square's edges: 0.002 is the object, 0.022 a scan of its
/// neighbourhood.
fn rect_for(oid: u64, half: f64) -> Rect2 {
    let h = oid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let coord = |bits: u64| 0.03 + (bits % 900) as f64 / 1000.0;
    Rect2::from_center([coord(h), coord(h >> 32)], [half; 2])
}

/// Preload oids sit far above the connections' own (`cid << 40 | serial`).
const PRELOAD_BASE: u64 = 1 << 56;

fn preloaded_backend(preload: u64) -> Backend {
    let tree = DglRTree::new(DglConfig {
        rtree: RTreeConfig::with_fanout(16),
        policy: InsertPolicy::Modified,
        ..Default::default()
    });
    let txn = tree.begin();
    for oid in PRELOAD_BASE..PRELOAD_BASE + preload {
        tree.insert(txn, ObjectId(oid), rect_for(oid, 0.002))
            .expect("preload");
    }
    tree.commit(txn).expect("preload");
    Backend::Single(tree)
}

/// A counting semaphore (free permits, "one was freed") gating two
/// phases of a cell.
struct Gate(Mutex<u64>, Condvar);

/// Connects in flight at once. A thousand simultaneous SYNs overflow the
/// listener's accept backlog (128 on Linux) and the dropped ones come
/// back on the kernel's exponential SYN-retry schedule — seconds to
/// minutes of artificial ramp-up.
const CONNECT_PERMITS: u64 = 64;

/// Transactions in flight at once. The subject is the network front-end,
/// not the locking protocol's contention collapse: every connection stays
/// open for the whole cell, but a thousand simultaneous write
/// transactions against one small tree would only thrash the granule-lock
/// space — this is the admission cap any real front-end puts between its
/// sessions and its storage engine.
const INFLIGHT_PERMITS: u64 = 32;

impl Gate {
    fn new(permits: u64) -> Self {
        Gate(Mutex::new(permits), Condvar::new())
    }

    fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut free = self.0.lock().expect("gate");
        while *free == 0 {
            free = self.1.wait(free).expect("gate");
        }
        *free -= 1;
        drop(free);
        let out = f();
        *self.0.lock().expect("gate") += 1;
        self.1.notify_one();
        out
    }
}

/// One connection's share of a cell: an insert, plus a scan around it in
/// every fourth transaction, retrying retryable verdicts until `quota`
/// commits are in and `min_secs` have passed. Returns `(ops, commits)`,
/// or the first non-retryable or transport error.
fn drive_connection(
    mut c: Client,
    cid: u64,
    quota: u64,
    min_secs: f64,
    inflight: &Gate,
) -> Result<(u64, u64), ClientError> {
    let start = Instant::now();
    let (mut ops, mut commits, mut serial) = (0u64, 0u64, 0u64);
    while commits < quota || start.elapsed().as_secs_f64() < min_secs {
        serial += 1;
        let oid = (cid << 40) | serial;
        let scan = serial.is_multiple_of(4);
        let attempt = inflight.with(|| {
            let txn = c.begin()?;
            c.insert(txn, oid, rect_for(oid, 0.002))?;
            if scan {
                c.search(txn, rect_for(oid, 0.022))?;
            }
            c.commit(txn)
        });
        match attempt {
            Ok(()) => {
                ops += 1 + u64::from(scan);
                commits += 1;
            }
            Err(e) if e.is_retryable() => {}
            Err(e) => return Err(e),
        }
    }
    Ok((ops, commits))
}

/// Runs one cell: a fresh server preloaded with `preload` objects and
/// `conns` client connections, all connected and handshaken before the
/// barrier starts the measured interval, committing `commits_total`
/// transactions between them (at least one each) for at least `min_secs`.
pub fn run_cell(conns: u64, commits_total: u64, preload: u64, min_secs: f64) -> ConnectionsRow {
    let mut server = Server::start(
        preloaded_backend(preload),
        ServerConfig {
            // Connections idle at the barrier until the whole fleet is
            // up; the idle timeout must not close them meanwhile.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback server");
    let addr = server.addr();
    let quota = (commits_total / conns).max(1);
    let ready = Barrier::new(conns as usize + 1);
    let (connect, inflight) = (Gate::new(CONNECT_PERMITS), Gate::new(INFLIGHT_PERMITS));

    let (start, ops, commits) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|cid| {
                let (ready, connect, inflight) = (&ready, &connect, &inflight);
                s.spawn(move || {
                    let c = connect.with(|| Client::connect(addr).expect("connect"));
                    ready.wait();
                    drive_connection(c, cid, quota, min_secs, inflight).unwrap_or_else(|e| {
                        panic!("connection {cid} of {conns}: non-retryable error: {e}")
                    })
                })
            })
            .collect();
        ready.wait();
        let start = Instant::now();
        let joined = handles.into_iter().map(|h| h.join().expect("connection"));
        joined.fold((start, 0, 0), |(start, ops, commits), (o, c)| {
            (start, ops + o, commits + c)
        })
    });
    let elapsed = start.elapsed().as_secs_f64();
    let session_aborts = server.obs().snapshot().ctr(Ctr::SessionAborts);
    server.shutdown().expect("drain server");
    ConnectionsRow {
        connections: conns,
        ops_per_sec: ops as f64 / elapsed,
        commits,
        session_aborts,
    }
}

/// Runs the sweep: 8 / 64 / 256 / 1000 connections sharing 4,000 commits
/// over 250 ms or more per cell, or a seconds-scale `quick` form (still
/// real sockets).
pub fn run_sweep(quick: bool) -> Vec<ConnectionsRow> {
    if quick {
        return [4, 16].map(|n| run_cell(n, 120, 200, 0.05)).into();
    }
    [8, 64, 256, 1000]
        .map(|n| run_cell(n, 4_000, 4_000, 0.25))
        .into()
}

/// Renders the sweep as a markdown table.
pub fn render(rows: &[ConnectionsRow]) -> String {
    let header = ["Connections", "Ops/s", "Commits", "Session aborts"];
    let cells = |r: &ConnectionsRow| {
        vec![
            r.connections.to_string(),
            format!("{:.0}", r.ops_per_sec),
            r.commits.to_string(),
            r.session_aborts.to_string(),
        ]
    };
    report::markdown_table(&header, &rows.iter().map(cells).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_commits_every_share() {
        let rows = run_sweep(true);
        for r in &rows {
            assert!(r.ops_per_sec > 0.0, "{r:?}");
            assert!(r.commits >= 120 / r.connections * r.connections, "{r:?}");
            assert_eq!(r.session_aborts, 0, "{r:?}");
        }
        assert_eq!(render(&rows).lines().count(), 4);
    }
}
