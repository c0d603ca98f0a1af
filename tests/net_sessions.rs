//! Session-failure behavior of the network server: a dead client's
//! transaction is aborted and its granule locks released; silent
//! transactions are timed out with a typed error, silent connections
//! closed, and a frame stalled mid-way drops its connection; drain lets
//! in-flight commits finish while refusing new work; session/transaction
//! ownership violations get typed errors, not connection drops.

use std::collections::BTreeSet;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dgl_client::{Client, ClientError};
use dgl_proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, MAX_RESPONSE_FRAME,
    PROTO_VERSION,
};
use dgl_server::{Backend, Server, ServerConfig};
use granular_rtree::core::{DglConfig, DglRTree, Rect2, TransactionalRTree};
use granular_rtree::lockmgr::LockManagerConfig;

const REGION: Rect2 = Rect2 {
    lo: [0.3, 0.3],
    hi: [0.7, 0.7],
};

fn start_server(cfg: ServerConfig) -> Server {
    let backend = Backend::Single(DglRTree::new(DglConfig {
        lock: LockManagerConfig {
            wait_timeout: Duration::from_millis(100),
            ..Default::default()
        },
        ..Default::default()
    }));
    Server::start(backend, cfg, "127.0.0.1:0").expect("bind loopback")
}

fn single(server: &Server) -> &DglRTree {
    match &**server.backend() {
        Backend::Single(t) => t,
        Backend::Sharded(_) => unreachable!("test uses single backend"),
    }
}

/// Total commit-duration grants held in the backend's lock table.
fn held_grants(server: &Server) -> usize {
    single(server)
        .lock_manager()
        .table_snapshot()
        .iter()
        .map(|e| e.grants.len())
        .sum()
}

fn preload(addr: std::net::SocketAddr, n: u64) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    let txn = c.begin().expect("begin");
    for i in 0..n {
        let x = 0.31 + (i as f64) * 0.3 / n as f64;
        c.insert(txn, i, Rect2::new([x, x], [x + 0.002, x + 0.002]))
            .expect("insert");
    }
    c.commit(txn).expect("commit");
    c
}

/// A client dying mid-transaction must not leave its granule locks
/// behind: the server aborts the orphaned transaction on disconnect.
#[test]
fn dead_client_releases_locks() {
    let mut server = start_server(ServerConfig::default());
    let addr = server.addr();
    let mut keeper = preload(addr, 50);

    // Victim: open a predicate (S locks on every granule overlapping
    // the region) and then vanish without commit.
    let mut victim = Client::connect(addr).expect("victim connect");
    let vtxn = victim.begin().expect("victim begin");
    let hits = victim.search(vtxn, REGION).expect("victim scan");
    assert!(!hits.is_empty(), "vacuous: predicate region is empty");
    assert!(held_grants(&server) > 0, "scan must hold granule locks");
    assert!(server.has_open_txns());
    drop(victim); // connection closes, no commit/abort

    // The server notices the disconnect and rolls back; the lock table
    // drains and a writer can enter the region again.
    let deadline = Instant::now() + Duration::from_secs(5);
    while (held_grants(&server) > 0 || server.has_open_txns()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        held_grants(&server),
        0,
        "orphaned locks were never released"
    );
    assert!(!server.has_open_txns(), "orphaned transaction still open");
    assert_eq!(server.obs().ctr(granular_rtree::obs::Ctr::SessionAborts), 1);

    let txn = keeper.begin().expect("writer begin");
    keeper
        .insert(txn, 9_999, Rect2::new([0.5, 0.5], [0.502, 0.502]))
        .expect("region is writable again");
    keeper.commit(txn).expect("writer commit");
    server.shutdown().expect("drain");
}

/// A transaction idling past the server's timeout is aborted
/// server-side; the session survives and learns via `TxnTimedOut`,
/// and a fresh `Begin` works.
#[test]
fn idle_transaction_times_out_with_typed_error() {
    let mut server = start_server(ServerConfig {
        txn_timeout: Duration::from_millis(150),
        ..Default::default()
    });
    let mut c = Client::connect(server.addr()).expect("connect");
    let txn = c.begin().expect("begin");
    c.insert(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
        .expect("insert");
    std::thread::sleep(Duration::from_millis(400));

    let err = c
        .insert(txn, 2, Rect2::new([0.5, 0.5], [0.51, 0.51]))
        .expect_err("transaction should have been timed out");
    assert_eq!(err.code(), Some(ErrorCode::TxnTimedOut));
    assert!(err.is_retryable(), "TxnTimedOut must be retryable");
    assert_eq!(held_grants(&server), 0, "timed-out txn must drop its locks");

    // The session is intact: begin anew, and the rolled-back insert
    // must not be visible.
    let txn = c.begin().expect("fresh begin");
    assert_eq!(
        c.read_single(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
            .expect("read"),
        None
    );
    c.commit(txn).expect("commit");
    server.shutdown().expect("drain");
}

/// `txn_timeout` measures request silence, not a transaction's age: a
/// transaction that keeps talking outlives it.
#[test]
fn a_busy_transaction_outlives_txn_timeout() {
    let mut server = start_server(ServerConfig {
        txn_timeout: Duration::from_secs(1),
        ..Default::default()
    });
    let mut c = preload(server.addr(), 10);
    let rect = Rect2::new([0.31, 0.31], [0.312, 0.312]); // object 0
    let txn = c.begin().expect("begin");
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(1200) {
        assert!(c.read_single(txn, 0, rect).expect("read").is_some());
        std::thread::sleep(Duration::from_millis(50));
    }
    std::thread::sleep(Duration::from_millis(200));
    c.commit(txn)
        .expect("a transaction never silent for txn_timeout must commit");
    assert_eq!(server.obs().ctr(granular_rtree::obs::Ctr::SessionAborts), 0);
    server.shutdown().expect("drain");
}

/// `idle_timeout` closes a connection with no open transaction after that
/// much silence, and spares one that holds a transaction.
#[test]
fn idle_timeout_closes_only_transactionless_connections() {
    let mut server = start_server(ServerConfig {
        idle_timeout: Duration::from_millis(200),
        txn_timeout: Duration::from_secs(30),
        ..Default::default()
    });
    let mut holder = Client::connect(server.addr()).expect("connect");
    let txn = holder.begin().expect("begin");
    holder
        .insert(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
        .expect("insert");

    let mut idle = raw_session(&server);
    let t0 = Instant::now();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let eof = read_frame(&mut idle, MAX_RESPONSE_FRAME).expect("clean close");
    let waited = t0.elapsed();
    assert!(eof.is_none(), "the server spoke instead of closing");
    assert!(
        waited >= Duration::from_millis(150) && waited < Duration::from_secs(5),
        "closed after {waited:?}, want about 200 ms"
    );

    std::thread::sleep(Duration::from_millis(600).saturating_sub(t0.elapsed()));
    holder
        .commit(txn)
        .expect("a connection holding a transaction outlives idle_timeout");
    assert_eq!(server.obs().ctr(granular_rtree::obs::Ctr::SessionAborts), 0);
    server.shutdown().expect("drain");
}

/// A request that reaches the server in pieces, cut inside its length
/// prefix and inside its body, is served as long as no pause reaches the
/// read timeout.
#[test]
fn a_request_split_in_pieces_is_served() {
    let mut server = start_server(ServerConfig {
        txn_timeout: Duration::from_millis(500),
        ..Default::default()
    });
    let mut s = raw_session(&server);
    let txn = raw_begin(&mut s);
    let insert = frame(
        3,
        &Request::Insert {
            txn,
            oid: 5,
            rect: Rect2::new([0.4, 0.4], [0.41, 0.41]),
        },
    );
    for piece in [&insert[..2], &insert[2..9], &insert[9..]] {
        s.write_all(piece).expect("send piece");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(matches!(reply(&mut s, 3), Response::Done));
    assert!(matches!(
        call(&mut s, 4, &Request::Commit { txn }),
        Response::Done
    ));
    assert_eq!(single(&server).len(), 1);
    server.shutdown().expect("drain");
}

/// A client that holds scan locks and then stalls inside a frame past the
/// read timeout is disconnected, and teardown releases its locks.
#[test]
fn a_stall_mid_frame_drops_the_connection_and_its_locks() {
    let mut server = start_server(ServerConfig {
        txn_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    preload(server.addr(), 50);
    let mut s = raw_session(&server);
    let txn = raw_begin(&mut s);
    match call(&mut s, 3, &Request::Search { txn, query: REGION }) {
        Response::Hits { hits } => assert!(!hits.is_empty(), "vacuous: region is empty"),
        other => panic!("expected Hits, got {other:?}"),
    }
    assert!(held_grants(&server) > 0, "scan must hold granule locks");

    let commit = frame(4, &Request::Commit { txn });
    s.write_all(&commit[..6]).expect("send half a frame");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    match read_frame(&mut s, MAX_RESPONSE_FRAME) {
        Ok(None) => {}
        Err(FrameError::Io(e))
            if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("expected the server to hang up, got {other:?}"),
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while (held_grants(&server) > 0 || server.has_open_txns()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(held_grants(&server), 0, "stalled session kept its locks");
    assert!(!server.has_open_txns());
    assert_eq!(server.obs().ctr(granular_rtree::obs::Ctr::SessionAborts), 1);
    server.shutdown().expect("drain");
}

/// A handshaken raw socket, for tests that control how a frame's bytes
/// reach the server.
fn raw_session(server: &Server) -> TcpStream {
    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_nodelay(true).expect("nodelay");
    let hello = Request::Hello {
        version: PROTO_VERSION,
        client: "raw".to_string(),
    };
    match call(&mut s, 1, &hello) {
        Response::HelloOk { .. } => s,
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

/// Opens a transaction on a raw session (request id 2).
fn raw_begin(s: &mut TcpStream) -> u64 {
    match call(s, 2, &Request::Begin) {
        Response::TxnBegun { txn } => txn,
        other => panic!("expected TxnBegun, got {other:?}"),
    }
}

/// Sends one whole request and reads its response.
fn call(s: &mut TcpStream, req_id: u32, req: &Request) -> Response {
    s.write_all(&frame(req_id, req)).expect("send");
    reply(s, req_id)
}

/// One request as the bytes on the wire: length prefix and body.
fn frame(req_id: u32, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &req.encode(req_id)).expect("encode");
    out
}

/// Reads the response to `req_id`.
fn reply(s: &mut TcpStream, req_id: u32) -> Response {
    let body = read_frame(s, MAX_RESPONSE_FRAME)
        .expect("read")
        .expect("response");
    let (got, resp) = Response::decode(&body).expect("decode");
    assert_eq!(got, req_id, "response out of order");
    resp
}

/// Drain: in-flight transactions commit, new `Begin`s and new
/// connections get typed `Draining` refusals, and `shutdown`
/// force-aborts stragglers after the grace period.
#[test]
fn drain_finishes_inflight_and_refuses_new_work() {
    let mut server = start_server(ServerConfig {
        drain_grace: Duration::from_millis(300),
        ..Default::default()
    });
    let addr = server.addr();
    let mut inflight = Client::connect(addr).expect("connect");
    let txn = inflight.begin().expect("begin");
    inflight
        .insert(txn, 7, Rect2::new([0.4, 0.4], [0.402, 0.402]))
        .expect("insert");

    server.begin_drain();

    // New connection: typed refusal at the handshake.
    match Client::connect(addr) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Draining),
        Err(other) => panic!("expected Draining refusal, got {other}"),
        Ok(_) => panic!("draining server accepted a connection"),
    }
    // New transaction on an existing session: typed refusal.
    let mut parked = Client::connect_as(addr, "parked");
    // (Connected before drain? No — refused. Race-free because drain
    // began above; accept both shapes but require the typed code.)
    if let Ok(ref mut p) = parked {
        let err = p.begin().expect_err("Begin during drain must fail");
        assert_eq!(err.code(), Some(ErrorCode::Draining));
    } else if let Err(ClientError::Server { code, .. }) = parked {
        assert_eq!(code, ErrorCode::Draining);
    } else {
        panic!("unexpected connect outcome");
    }

    // The in-flight transaction still commits during the grace window.
    inflight
        .insert(txn, 8, Rect2::new([0.5, 0.5], [0.502, 0.502]))
        .expect("in-flight op during drain");
    inflight.commit(txn).expect("in-flight commit during drain");

    server.shutdown().expect("drain");
    let tree = single(&server);
    assert_eq!(tree.len(), 2, "both in-flight inserts must have landed");
    tree.validate().expect("invariants after drain");
}

/// Shutdown with a straggler: after the grace period the server aborts
/// the open transaction rather than hanging.
#[test]
fn shutdown_force_aborts_stragglers() {
    let mut server = start_server(ServerConfig {
        drain_grace: Duration::from_millis(100),
        ..Default::default()
    });
    let mut c = Client::connect(server.addr()).expect("connect");
    let txn = c.begin().expect("begin");
    c.insert(txn, 1, Rect2::new([0.4, 0.4], [0.41, 0.41]))
        .expect("insert");

    let t0 = Instant::now();
    server.shutdown().expect("shutdown");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "shutdown hung on a straggler"
    );
    let tree = single(&server);
    assert_eq!(tree.len(), 0, "straggler's insert must be rolled back");
    assert_eq!(
        server.obs().ctr(granular_rtree::obs::Ctr::SessionAborts),
        1,
        "force-abort must be attributed"
    );
}

/// Ownership violations are typed errors and never kill the session.
#[test]
fn ownership_violations_are_typed() {
    let mut server = start_server(ServerConfig::default());
    let mut c = Client::connect(server.addr()).expect("connect");
    let rect = Rect2::new([0.1, 0.1], [0.11, 0.11]);

    // No transaction open.
    let err = c.insert(99, 1, rect).expect_err("no txn open");
    assert_eq!(err.code(), Some(ErrorCode::NotInTransaction));

    // Wrong id.
    let txn = c.begin().expect("begin");
    let err = c.insert(txn + 1, 1, rect).expect_err("wrong txn id");
    assert_eq!(err.code(), Some(ErrorCode::TxnMismatch));

    // Double begin.
    let err = c.begin().expect_err("double begin");
    assert_eq!(err.code(), Some(ErrorCode::TxnAlreadyOpen));

    // The session survived all three: the original txn still works.
    c.insert(txn, 1, rect).expect("insert");
    c.commit(txn).expect("commit");

    // Unknown snapshot id.
    let err = c.snapshot_scan(42, REGION).expect_err("unknown snapshot");
    assert_eq!(err.code(), Some(ErrorCode::UnknownSnapshot));
    server.shutdown().expect("drain");
}

/// A client speaking the wrong protocol version gets a typed
/// `BadHandshake` before the connection closes.
#[test]
fn version_mismatch_is_refused() {
    let mut server = start_server(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Request::Hello {
        version: 999,
        client: "time traveler".to_string(),
    };
    match call(&mut stream, 1, &hello) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadHandshake),
        other => panic!("expected BadHandshake, got {other:?}"),
    }
    server.shutdown().expect("drain");
}

/// Pipelined requests are answered strictly in order with their ids
/// echoed, mixing successes and typed errors in one batch.
#[test]
fn pipelined_batch_preserves_order_and_ids() {
    let mut server = start_server(ServerConfig::default());
    let mut c = Client::connect(server.addr()).expect("connect");
    let txn = c.begin().expect("begin");

    let mut pipe = c.pipeline();
    for i in 0..20u64 {
        let x = 0.1 + i as f64 * 0.01;
        pipe.submit(Request::Insert {
            txn,
            oid: i,
            rect: Rect2::new([x, x], [x + 0.005, x + 0.005]),
        })
        .expect("submit");
    }
    // A duplicate insert mid-batch: typed error in place, batch goes on.
    pipe.submit(Request::Insert {
        txn,
        oid: 0,
        rect: Rect2::new([0.9, 0.9], [0.91, 0.91]),
    })
    .expect("submit dup");
    let responses = pipe.finish().expect("batch");
    assert_eq!(responses.len(), 21);
    for resp in &responses[..20] {
        assert!(matches!(resp, Response::Done), "insert failed: {resp:?}");
    }
    match &responses[20] {
        Response::Error { code, .. } => assert_eq!(*code, ErrorCode::DuplicateObject),
        other => panic!("expected DuplicateObject, got {other:?}"),
    }

    // The duplicate-object error killed the transaction (uniform
    // op-error-means-dead rule); the session reports that, typed.
    let err = c.count().err();
    assert!(err.is_none(), "non-txn ops still fine: {err:?}");
    let e = c
        .insert(txn, 50, Rect2::new([0.8, 0.8], [0.81, 0.81]))
        .expect_err("txn died with the failed op");
    assert_eq!(e.code(), Some(ErrorCode::NotInTransaction));
    server.shutdown().expect("drain");
}

/// Hammering one server with many short-lived concurrent sessions
/// leaves no leaked transactions, locks, or sessions behind.
#[test]
fn session_churn_leaves_no_residue() {
    let mut server = start_server(ServerConfig::default());
    let addr = server.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for round in 0..10u64 {
                    let mut c = Client::connect(addr).expect("connect");
                    let oid = (t << 32) | round;
                    let x = 0.05 + ((t * 13 + round * 7) % 80) as f64 / 100.0;
                    let rect = Rect2::new([x, x], [x + 0.004, x + 0.004]);
                    // Concurrent inserts may pick a deadlock victim; its
                    // transaction is already rolled back, so run it again.
                    // Any other error fails the test.
                    let mut tries = 0;
                    let txn = loop {
                        let txn = c.begin().expect("begin");
                        match c.insert(txn, oid, rect) {
                            Ok(()) => break txn,
                            Err(e) if e.code() == Some(ErrorCode::Deadlock) && tries < 10 => {
                                tries += 1;
                            }
                            Err(e) => panic!("insert: {e}"),
                        }
                    };
                    if round % 3 == 0 {
                        c.abort(txn).expect("abort");
                    } else {
                        c.commit(txn).expect("commit");
                    }
                    // Half the rounds just drop the connection with no
                    // open transaction — the cheap goodbye.
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("churn thread");
    }

    let committed: BTreeSet<u64> = (0..8u64)
        .flat_map(|t| {
            (0..10u64)
                .filter(|r| r % 3 != 0)
                .map(move |r| (t << 32) | r)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.has_open_txns() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(!server.has_open_txns());
    assert_eq!(held_grants(&server), 0, "locks leaked by session churn");
    let tree = single(&server);
    assert_eq!(tree.len(), committed.len());
    tree.validate().expect("invariants");
    server.shutdown().expect("drain");
}

/// The wire `Stats` reply (and `Server::prometheus_dump`) is one
/// exposition over the backend and net-layer registries merged — not two
/// expositions concatenated, which repeated every `# TYPE` line and left
/// each fact split across a zero copy and a real one.
#[test]
fn stats_reply_exposes_every_series_exactly_once() {
    let mut server = start_server(ServerConfig::default());
    let mut client = preload(server.addr(), 4);
    let text = client.stats().expect("stats");

    let mut seen = BTreeSet::new();
    for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
        assert!(seen.insert(line), "series declared twice: {line}");
    }
    assert!(!seen.is_empty(), "stats reply carries no series");
    let sample = |name: &str| -> u64 {
        let mut values = text
            .lines()
            .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .map(|v| v.parse::<u64>().expect("counter value"));
        let value = values.next().unwrap_or_else(|| panic!("no {name} sample"));
        assert!(values.next().is_none(), "{name} sampled twice");
        value
    };
    assert!(sample("dgl_net_requests_total") > 0, "net layer merged in");
    assert!(
        sample("dgl_lock_requests_commit_total") > 0,
        "core layer merged in"
    );
    server.shutdown().expect("drain");
}
