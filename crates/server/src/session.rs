//! Per-connection session loop: handshake, ordered request dispatch,
//! transaction/snapshot ownership, timeouts, and panic containment.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dgl_core::{ObjectId, TxnId};
use dgl_obs::{Ctr, Hist};
use dgl_proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, WireError,
    MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME, PROTO_VERSION,
};

use crate::{BackendSnapshot, Shared, MAX_SNAPSHOTS};

/// Everything a session mutates while serving one connection. The
/// snapshot map borrows the backend, which the caller keeps alive for
/// the whole loop.
struct Session<'a> {
    /// The open transaction, if any.
    txn: Option<TxnId>,
    /// A transaction the server aborted for idling — later uses get
    /// [`ErrorCode::TxnTimedOut`] until the next `Begin`.
    timed_out: Option<TxnId>,
    snapshots: HashMap<u64, BackendSnapshot<'a>>,
    next_snap: u64,
    handshaken: bool,
}

/// Serves one connection to completion. On any exit path the session's
/// open transaction is aborted and its snapshots dropped.
pub(crate) fn run(shared: &Shared, _id: u64, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // One read timeout for the session's life, the tighter of its two
    // timers (`set_read_timeout` rejects zero). A wait between frames that
    // times out checks them; a frame that stalls past it drops the
    // connection, and teardown below aborts the transaction.
    let timeout = shared.cfg.idle_timeout.min(shared.cfg.txn_timeout);
    let _ = reader.set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
    // Buffered, so one `recv` normally carries a whole frame — prefix and
    // body — instead of one call for each.
    let mut reader = BufReader::new(reader);
    let _ = stream.set_nodelay(true);
    let mut writer = BufWriter::new(stream);

    let mut sess = Session {
        txn: None,
        timed_out: None,
        snapshots: HashMap::new(),
        next_snap: 1,
        handshaken: false,
    };
    let mut last_activity = Instant::now();

    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        // Wait for the next frame's first byte without consuming it.
        match reader.fill_buf() {
            Ok([]) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let silence = last_activity.elapsed();
                match sess.txn {
                    Some(txn) if silence >= shared.cfg.txn_timeout => {
                        let _ = shared.backend.tree().abort(txn);
                        shared.open_txns.fetch_sub(1, Ordering::SeqCst);
                        shared.obs.incr(Ctr::SessionAborts);
                        sess.txn = None;
                        sess.timed_out = Some(txn);
                    }
                    None if silence >= shared.cfg.idle_timeout => break,
                    _ => {}
                }
                continue;
            }
            Err(_) => break,
        }
        let body = match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(Some(body)) => body,
            Err(e @ FrameError::TooLarge { .. }) => {
                // The stream is desynchronized; reply (best effort) and
                // drop the connection.
                let resp = err(ErrorCode::FrameTooLarge, e.to_string());
                let _ = send(shared, &mut writer, &resp, 0);
                break;
            }
            // The peer died, or stalled mid-frame past the timeout.
            Ok(None) | Err(FrameError::Io(_)) => break,
        };
        last_activity = Instant::now();
        shared.obs.incr(Ctr::NetRequests);
        shared
            .obs
            .add(Ctr::NetBytesIn, (body.len() + dgl_proto::LEN_PREFIX) as u64);

        let started = Instant::now();
        let (req_id, req) = match Request::decode(&body) {
            Ok(pair) => pair,
            Err(err) => {
                // Salvage the request id when the frame got that far so
                // a pipelining client can still correlate the error.
                let req_id = salvage_req_id(&body);
                let code = match err {
                    WireError::BadOpcode(_) => ErrorCode::UnknownOpcode,
                    _ => ErrorCode::BadFrame,
                };
                let resp = Response::Error {
                    code,
                    message: err.to_string(),
                };
                if send(shared, &mut writer, &resp, req_id).is_err() {
                    break;
                }
                continue;
            }
        };

        // Per-request panic containment: a panicking backend op must
        // surface as a typed, retryable error — never a dropped
        // connection taking unrelated pipelined requests with it.
        let kind = hist_kind(&req);
        let outcome = catch_unwind(AssertUnwindSafe(|| handle(shared, &mut sess, req)));
        let resp = match outcome {
            Ok(resp) => resp,
            Err(_) => {
                // The op panicked: the transaction's unwind guards have
                // restored tree invariants; make sure it is dead and
                // the session forgets it.
                if let Some(txn) = sess.txn.take() {
                    let _ = shared.backend.tree().abort(txn);
                    shared.open_txns.fetch_sub(1, Ordering::SeqCst);
                    shared.obs.incr(Ctr::SessionAborts);
                }
                Response::Error {
                    code: ErrorCode::Internal,
                    message: "request panicked; transaction rolled back".to_string(),
                }
            }
        };
        shared.obs.record(kind, started.elapsed().as_nanos() as u64);
        let hello_failed = !sess.handshaken && matches!(resp, Response::Error { .. });
        if send(shared, &mut writer, &resp, req_id).is_err() {
            break;
        }
        if hello_failed {
            break; // bad handshake: typed reply sent, then hang up
        }
    }

    // Session teardown: whatever the exit path, release everything the
    // connection owned.
    if let Some(txn) = sess.txn.take() {
        let _ = shared.backend.tree().abort(txn);
        shared.open_txns.fetch_sub(1, Ordering::SeqCst);
        shared.obs.incr(Ctr::SessionAborts);
    }
    drop(sess.snapshots);
    if let Ok(stream) = writer.into_inner() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// Extracts the request id from a frame body that at least carried
/// opcode + id, so decode errors stay correlatable.
fn salvage_req_id(body: &[u8]) -> u32 {
    match body.get(1..5) {
        Some(b) => u32::from_le_bytes(b.try_into().unwrap()),
        None => 0,
    }
}

/// Which latency histogram a request records into.
fn hist_kind(req: &Request) -> Hist {
    match req {
        Request::Search { .. } | Request::UpdateScan { .. } | Request::SnapshotScan { .. } => {
            Hist::NetReqScan
        }
        Request::ReadSingle { .. } | Request::SnapshotRead { .. } | Request::Count => {
            Hist::NetReqPoint
        }
        Request::Insert { .. } | Request::Delete { .. } | Request::Update { .. } => {
            Hist::NetReqWrite
        }
        _ => Hist::NetReqTxn,
    }
}

fn send(
    shared: &Shared,
    writer: &mut BufWriter<TcpStream>,
    resp: &Response,
    req_id: u32,
) -> std::io::Result<()> {
    let body = resp.encode(req_id);
    shared.obs.add(
        Ctr::NetBytesOut,
        (body.len() + dgl_proto::LEN_PREFIX) as u64,
    );
    write_frame(writer, &body)?;
    writer.flush()
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

/// Checks that `named` is the session's open transaction; the error
/// distinguishes "never begun", "server timed it out" and "stale id".
fn check_txn(sess: &Session<'_>, named: u64) -> Result<TxnId, Response> {
    match sess.txn {
        Some(txn) if txn.0 == named => Ok(txn),
        Some(_) => Err(err(
            ErrorCode::TxnMismatch,
            format!("transaction {named} is not this session's open transaction"),
        )),
        None => {
            if sess.timed_out.map(|t| t.0) == Some(named) {
                Err(err(
                    ErrorCode::TxnTimedOut,
                    format!("transaction {named} idled past the server's timeout and was aborted"),
                ))
            } else {
                Err(err(
                    ErrorCode::NotInTransaction,
                    "session has no open transaction",
                ))
            }
        }
    }
}

/// Executes one decoded request against the backend. Any `Err` from a
/// transactional operation leaves the transaction **dead** (mirroring
/// [`dgl_core::TxnExecutor`]'s defensive abort) and the session
/// transactionless.
fn handle<'a>(shared: &'a Shared, sess: &mut Session<'a>, req: Request) -> Response {
    // Handshake gate: the first request must be a compatible Hello.
    if !sess.handshaken {
        return match req {
            Request::Hello { version, .. } => {
                if version != PROTO_VERSION {
                    err(
                        ErrorCode::BadHandshake,
                        format!("server speaks protocol {PROTO_VERSION}, client offered {version}"),
                    )
                } else {
                    sess.handshaken = true;
                    Response::HelloOk {
                        version: PROTO_VERSION,
                        server: shared.cfg.server_name.clone(),
                    }
                }
            }
            _ => err(ErrorCode::BadHandshake, "first request must be Hello"),
        };
    }

    let tree = shared.backend.tree();
    // Clears session transaction state after an op-level error (the
    // backend rolled back on Deadlock/Timeout/Injected; for the rest a
    // defensive abort releases the locks).
    macro_rules! txn_op {
        ($txn:expr, $res:expr) => {
            match $res {
                Ok(v) => Ok(v),
                Err(e) => {
                    let _ = tree.abort($txn);
                    sess.txn = None;
                    shared.open_txns.fetch_sub(1, Ordering::SeqCst);
                    Err(err(ErrorCode::from(e), e.to_string()))
                }
            }
        };
    }

    macro_rules! get_txn {
        ($named:expr) => {
            match check_txn(sess, $named) {
                Ok(t) => t,
                Err(resp) => return resp,
            }
        };
    }

    match req {
        Request::Hello { .. } => err(ErrorCode::BadHandshake, "Hello after handshake"),
        Request::Begin => {
            if shared.draining.load(Ordering::SeqCst) {
                return err(ErrorCode::Draining, "server is draining");
            }
            if sess.txn.is_some() {
                return err(
                    ErrorCode::TxnAlreadyOpen,
                    "session already owns an open transaction",
                );
            }
            let txn = tree.begin();
            sess.txn = Some(txn);
            sess.timed_out = None;
            shared.open_txns.fetch_add(1, Ordering::SeqCst);
            Response::TxnBegun { txn: txn.0 }
        }
        Request::Insert { txn, oid, rect } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.insert(t, ObjectId(oid), rect)) {
                Ok(()) => Response::Done,
                Err(resp) => resp,
            }
        }
        Request::Delete { txn, oid, rect } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.delete(t, ObjectId(oid), rect)) {
                Ok(existed) => Response::Existed { existed },
                Err(resp) => resp,
            }
        }
        Request::Update { txn, oid, rect } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.update_single(t, ObjectId(oid), rect)) {
                Ok(existed) => Response::Existed { existed },
                Err(resp) => resp,
            }
        }
        Request::ReadSingle { txn, oid, rect } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.read_single(t, ObjectId(oid), rect)) {
                Ok(version) => Response::Version { version },
                Err(resp) => resp,
            }
        }
        Request::Search { txn, query } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.read_scan(t, query)) {
                Ok(hits) => hits_response(hits),
                Err(resp) => resp,
            }
        }
        Request::UpdateScan { txn, query } => {
            let t = get_txn!(txn);
            match txn_op!(t, tree.update_scan(t, query)) {
                Ok(hits) => hits_response(hits),
                Err(resp) => resp,
            }
        }
        Request::Commit { txn } => {
            let t = get_txn!(txn);
            sess.txn = None;
            shared.open_txns.fetch_sub(1, Ordering::SeqCst);
            match tree.commit(t) {
                Ok(()) => Response::Done,
                // A failed commit rolled the transaction back; the
                // session is already transactionless.
                Err(e) => err(ErrorCode::from(e), e.to_string()),
            }
        }
        Request::Abort { txn } => {
            let t = get_txn!(txn);
            sess.txn = None;
            shared.open_txns.fetch_sub(1, Ordering::SeqCst);
            match tree.abort(t) {
                Ok(()) => Response::Done,
                Err(e) => err(ErrorCode::from(e), e.to_string()),
            }
        }
        Request::BeginSnapshot => {
            if sess.snapshots.len() >= MAX_SNAPSHOTS {
                return err(
                    ErrorCode::SnapshotLimit,
                    format!("session holds {} snapshots already", sess.snapshots.len()),
                );
            }
            let snap = shared.backend.begin_snapshot();
            let ts = snap.ts();
            let id = sess.next_snap;
            sess.next_snap += 1;
            sess.snapshots.insert(id, snap);
            Response::SnapshotBegun { snap: id, ts }
        }
        Request::SnapshotScan { snap, query } => match sess.snapshots.get(&snap) {
            Some(s) => hits_response(s.read_scan(query)),
            None => err(ErrorCode::UnknownSnapshot, format!("no snapshot {snap}")),
        },
        Request::SnapshotRead { snap, oid } => match sess.snapshots.get(&snap) {
            Some(s) => Response::Version {
                version: s.read_single(ObjectId(oid)),
            },
            None => err(ErrorCode::UnknownSnapshot, format!("no snapshot {snap}")),
        },
        Request::EndSnapshot { snap } => match sess.snapshots.remove(&snap) {
            Some(_) => Response::Done,
            None => err(ErrorCode::UnknownSnapshot, format!("no snapshot {snap}")),
        },
        Request::Stats => Response::StatsText {
            text: shared.prometheus_dump(),
        },
        Request::Count => Response::CountIs {
            count: tree.len() as u64,
        },
    }
}

/// Wraps scan hits, enforcing the response frame cap with a typed error
/// instead of an oversized frame the client would refuse.
fn hits_response(hits: Vec<dgl_core::ScanHit>) -> Response {
    const PER_HIT: usize = 48;
    let bytes = 16 + hits.len() * PER_HIT;
    if bytes > MAX_RESPONSE_FRAME {
        return err(
            ErrorCode::ResponseTooLarge,
            format!("{} hits exceed the response frame cap", hits.len()),
        );
    }
    Response::Hits { hits }
}
