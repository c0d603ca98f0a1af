//! TCP front-end for the DGL R-tree: sessions, transactions and
//! snapshots over the `dgl-proto` wire protocol.
//!
//! # Model
//!
//! One OS thread per connection over `std::net` (the workspace is
//! offline — no async runtime). Threads are spawned with small stacks
//! so thousands of mostly-idle connections stay cheap, and the kernel
//! socket buffers provide write backpressure: a client that stops
//! reading eventually blocks its session thread, never the server.
//!
//! A *session* (one connection) owns at most one open transaction and a
//! bounded set of MVCC snapshots. Request frames are processed strictly
//! in order; each gets exactly one response echoing its request id, so
//! clients may pipeline. Sessions police their own liveness, on their
//! own thread, with one socket read timeout (the shorter of the two
//! below): a transaction whose session sends nothing for
//! [`ServerConfig::txn_timeout`] is aborted server-side (subsequent uses
//! answer `TxnTimedOut`), a transactionless connection silent for
//! [`ServerConfig::idle_timeout`] is closed, and a frame that stalls
//! mid-way past the timeout drops the connection.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] drains: new connections and `Begin` requests
//! are refused with [`ErrorCode::Draining`], in-flight transactions get
//! [`ServerConfig::drain_grace`] to finish, stragglers are aborted, and
//! the backend is quiesced before the call returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dgl_core::{
    DglRTree, ShardedDglRTree, ShardedSnapshot, Snapshot, TransactionalRTree, TxnError,
};
use dgl_obs::{Registry, RegistrySnapshot};
use dgl_proto::{write_frame, ErrorCode, Response};
use parking_lot::Mutex;

pub use dgl_proto::PROTO_VERSION;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Close a connection with no open transaction after this much
    /// request silence.
    pub idle_timeout: Duration,
    /// Abort a session's transaction after this much request silence
    /// (the session stays connected and learns via `TxnTimedOut`).
    pub txn_timeout: Duration,
    /// How long `shutdown` lets in-flight transactions finish before
    /// force-aborting them.
    pub drain_grace: Duration,
    /// Concurrent MVCC snapshots one session may hold.
    pub max_snapshots: usize,
    /// Stack size for session threads (small: thousands of connections).
    pub session_stack: usize,
    /// Name sent in `HelloOk`.
    pub server_name: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            idle_timeout: Duration::from_secs(60),
            txn_timeout: Duration::from_secs(10),
            drain_grace: Duration::from_secs(5),
            max_snapshots: 16,
            session_stack: 256 * 1024,
            server_name: "dgl-server".to_string(),
        }
    }
}

/// The index a server fronts: a single DGL tree or the
/// space-partitioned sharded variant. Both speak the same protocol;
/// tests keep a handle for in-process anti-vacuity checks (lock tables,
/// validation).
// One Backend exists per server and is always behind an Arc, so the
// variant size gap never costs a copy.
#[allow(clippy::large_enum_variant)]
pub enum Backend {
    /// One [`DglRTree`].
    Single(DglRTree),
    /// A [`ShardedDglRTree`] (2PC across shards).
    Sharded(ShardedDglRTree),
}

/// A session-held MVCC snapshot over either backend flavor.
pub(crate) enum BackendSnapshot<'a> {
    Single(Snapshot<'a>),
    Sharded(ShardedSnapshot<'a>),
}

impl Backend {
    /// The backend as the common transactional interface.
    pub fn tree(&self) -> &dyn TransactionalRTree {
        match self {
            Backend::Single(t) => t,
            Backend::Sharded(t) => t,
        }
    }

    pub(crate) fn begin_snapshot(&self) -> BackendSnapshot<'_> {
        match self {
            Backend::Single(t) => BackendSnapshot::Single(t.begin_snapshot()),
            Backend::Sharded(t) => BackendSnapshot::Sharded(t.begin_snapshot()),
        }
    }

    /// One snapshot over the backend's own registries (per-shard
    /// registries merged for a sharded index).
    pub fn obs_snapshot(&self) -> RegistrySnapshot {
        match self {
            Backend::Single(t) => t.obs().snapshot(),
            Backend::Sharded(t) => t.obs_snapshot(),
        }
    }

    /// The fallible quiesce (surfaces deferred deletions dropped after
    /// their retry budget).
    pub fn quiesce(&self) -> Result<(), TxnError> {
        match self {
            Backend::Single(t) => t.quiesce(),
            Backend::Sharded(t) => t.quiesce(),
        }
    }
}

impl<'a> BackendSnapshot<'a> {
    pub(crate) fn ts(&self) -> u64 {
        match self {
            BackendSnapshot::Single(s) => s.ts(),
            BackendSnapshot::Sharded(s) => s.ts(),
        }
    }

    pub(crate) fn read_scan(&self, query: dgl_geom::Rect2) -> Vec<dgl_core::ScanHit> {
        match self {
            BackendSnapshot::Single(s) => s.read_scan(query),
            BackendSnapshot::Sharded(s) => s.read_scan(query),
        }
    }

    pub(crate) fn read_single(&self, oid: dgl_rtree::ObjectId) -> Option<u64> {
        match self {
            BackendSnapshot::Single(s) => s.read_single(oid),
            BackendSnapshot::Sharded(s) => s.read_single(oid),
        }
    }
}

/// What the server shares with every session thread.
pub(crate) struct Shared {
    pub(crate) backend: Arc<Backend>,
    pub(crate) cfg: ServerConfig,
    /// Net-layer metrics (request counts/latencies, bytes, session
    /// aborts) — separate from the backend's registries so the wire
    /// overhead is attributable.
    pub(crate) obs: Arc<Registry>,
    /// Drain mode: refuse new connections and `Begin`s.
    pub(crate) draining: AtomicBool,
    /// Hard stop: sessions abort their transaction and exit.
    pub(crate) stopping: AtomicBool,
    /// Live sessions, by session id, with a cloned stream handle so
    /// shutdown can unblock a session parked in `read`.
    pub(crate) sessions: Mutex<HashMap<u64, TcpStream>>,
    pub(crate) next_session: AtomicU64,
    /// Sessions currently holding an open transaction.
    pub(crate) open_txns: AtomicUsize,
    /// Live session threads (drain completion signal).
    pub(crate) live_sessions: AtomicUsize,
}

impl Shared {
    /// Net-layer + backend metrics as one Prometheus exposition: the two
    /// registries are merged metric-wise (each records what the other
    /// leaves at zero), so every series appears exactly once.
    pub(crate) fn prometheus_dump(&self) -> String {
        let merged = self.backend.obs_snapshot().merge(&self.obs.snapshot());
        dgl_obs::prometheus_text(&merged)
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`])
/// drains and stops it.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    done: bool,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start(
        backend: Backend,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend: Arc::new(backend),
            cfg,
            obs: Arc::new(Registry::new()),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            open_txns: AtomicUsize::new(0),
            live_sessions: AtomicUsize::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("dgl-accept".into())
                .spawn(move || accept_loop(listener, shared))?
        };
        Ok(Server {
            shared,
            addr: local,
            accept: Some(accept),
            done: false,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend, for in-process inspection (tests, stats).
    pub fn backend(&self) -> &Arc<Backend> {
        &self.shared.backend
    }

    /// The server's own (net-layer) metrics registry.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.shared.obs
    }

    /// Net-layer + backend metrics as one Prometheus text dump.
    pub fn prometheus_dump(&self) -> String {
        self.shared.prometheus_dump()
    }

    /// Enters drain mode without waiting: new connections and `Begin`s
    /// start getting [`ErrorCode::Draining`]; existing transactions
    /// continue.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether any session currently holds an open transaction.
    pub fn has_open_txns(&self) -> bool {
        self.shared.open_txns.load(Ordering::SeqCst) > 0
    }

    /// Drains and stops: refuses new work, waits up to the configured
    /// grace for in-flight transactions, force-aborts stragglers,
    /// closes every connection, then quiesces the backend. Idempotent.
    pub fn shutdown(&mut self) -> Result<(), TxnError> {
        if self.done {
            return Ok(());
        }
        self.done = true;
        self.begin_drain();

        // Grace period: let sessions finish their open transactions.
        let deadline = Instant::now() + self.shared.cfg.drain_grace;
        while self.shared.open_txns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }

        // Hard stop: sessions abort whatever is left and exit. Unblock
        // any session parked in a blocking read.
        self.shared.stopping.store(true, Ordering::SeqCst);
        for (_, stream) in self.shared.sessions.lock().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.shared.live_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        self.shared.backend.quiesce()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            refuse(stream, &shared);
            continue;
        }
        let id = shared.next_session.fetch_add(1, Ordering::SeqCst);
        if let Ok(clone) = stream.try_clone() {
            shared.sessions.lock().insert(id, clone);
        }
        shared.live_sessions.fetch_add(1, Ordering::SeqCst);
        let sh = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name(format!("dgl-sess-{id}"))
            .stack_size(shared.cfg.session_stack)
            .spawn(move || {
                session::run(&sh, id, stream);
                sh.sessions.lock().remove(&id);
                sh.live_sessions.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            shared.sessions.lock().remove(&id);
            shared.live_sessions.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Answers a connection arriving during drain with a typed refusal
/// (request id 0 — the client has not spoken yet) and closes it.
fn refuse(mut stream: TcpStream, shared: &Shared) {
    let body = Response::Error {
        code: ErrorCode::Draining,
        message: "server is draining".to_string(),
    }
    .encode(0);
    let _ = write_frame(&mut stream, &body);
    let _ = stream.flush();
    shared
        .obs
        .add(dgl_obs::Ctr::NetBytesOut, (body.len() + 4) as u64);
    let _ = stream.shutdown(Shutdown::Both);
}
