//! Per-connection session loop: handshake, ordered request dispatch,
//! transaction/snapshot ownership, timeouts, and panic containment.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use dgl_core::{ObjectId, TxnId};
use dgl_obs::{Ctr, Hist};
use dgl_proto::{
    write_frame, ErrorCode, Request, Response, WireError, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME,
    PROTO_VERSION,
};

use crate::{BackendSnapshot, Shared};

/// Bounds on how often a parked session wakes to check its timers. The
/// actual tick scales with the configured timeouts (an eighth of the
/// tightest one): a session only needs to wake often enough to enforce
/// its own deadlines, and at thousands of connections a fixed fast tick
/// turns into a scheduler storm that starves the accept path. Shutdown
/// does not depend on the tick at all — `Server::shutdown` closes the
/// sockets, which fails the blocked reads immediately.
const POLL_TICK_MIN: Duration = Duration::from_millis(25);
const POLL_TICK_MAX: Duration = Duration::from_millis(500);

/// The poll interval for the given timer configuration.
fn poll_tick(cfg: &crate::ServerConfig) -> Duration {
    (cfg.idle_timeout.min(cfg.txn_timeout) / 8).clamp(POLL_TICK_MIN, POLL_TICK_MAX)
}

/// One attempt to make progress on an incoming frame.
enum ReadStep {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The read timed out — run the poll-tick bookkeeping and retry.
    Poll,
    /// Clean EOF on a frame boundary.
    Eof,
    /// The declared length exceeds the request cap.
    TooLarge(usize),
    /// The peer died mid-frame or the socket failed.
    Dead,
}

/// A resumable frame reader: partial bytes survive read timeouts, so a
/// session can keep enforcing its timers mid-frame without ever
/// corrupting the stream.
struct FrameAccum {
    prefix: [u8; 4],
    prefix_got: usize,
    body: Option<Vec<u8>>,
    body_got: usize,
}

impl FrameAccum {
    fn new() -> Self {
        Self {
            prefix: [0; 4],
            prefix_got: 0,
            body: None,
            body_got: 0,
        }
    }

    fn step(&mut self, r: &mut impl Read) -> ReadStep {
        loop {
            if self.body.is_none() {
                if self.prefix_got < 4 {
                    match r.read(&mut self.prefix[self.prefix_got..]) {
                        Ok(0) if self.prefix_got == 0 => return ReadStep::Eof,
                        Ok(0) => return ReadStep::Dead,
                        Ok(n) => {
                            self.prefix_got += n;
                            continue;
                        }
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            return ReadStep::Poll
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => return ReadStep::Dead,
                    }
                }
                let len = u32::from_le_bytes(self.prefix) as usize;
                if len > MAX_REQUEST_FRAME {
                    return ReadStep::TooLarge(len);
                }
                self.body = Some(vec![0; len]);
                self.body_got = 0;
            }
            let body = self.body.as_mut().expect("body allocated above");
            if self.body_got < body.len() {
                match r.read(&mut body[self.body_got..]) {
                    Ok(0) => return ReadStep::Dead,
                    Ok(n) => {
                        self.body_got += n;
                        continue;
                    }
                    Err(e)
                        if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
                    {
                        return ReadStep::Poll
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return ReadStep::Dead,
                }
            }
            let frame = self.body.take().expect("body present");
            self.prefix_got = 0;
            self.body_got = 0;
            return ReadStep::Frame(frame);
        }
    }
}

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
    let _ = reader.set_read_timeout(Some(poll_tick(&shared.cfg)));
    // Buffered, so one `recv` normally carries a whole frame — prefix and
    // body — instead of one call for each. A timed-out read loses no
    // bytes: they wait in the buffer or in `FrameAccum`.
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
    let mut txn_started: Option<Instant> = None;
    let mut accum = FrameAccum::new();

    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let body = match accum.step(&mut reader) {
            ReadStep::Frame(body) => body,
            ReadStep::Eof | ReadStep::Dead => break,
            ReadStep::TooLarge(len) => {
                // The stream is desynchronized; reply (best effort) and
                // drop the connection.
                let resp = Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame length {len} exceeds cap {MAX_REQUEST_FRAME}"),
                };
                let _ = send(shared, &mut writer, &resp, 0);
                break;
            }
            ReadStep::Poll => {
                // Poll tick: enforce timeouts, then keep waiting.
                if let (Some(txn), Some(started)) = (sess.txn, txn_started) {
                    if started.elapsed() >= shared.cfg.txn_timeout {
                        let _ = shared.backend.tree().abort(txn);
                        shared.open_txns.fetch_sub(1, Ordering::SeqCst);
                        shared.obs.incr(Ctr::SessionAborts);
                        sess.txn = None;
                        sess.timed_out = Some(txn);
                        txn_started = None;
                    }
                } else if sess.txn.is_none() && last_activity.elapsed() >= shared.cfg.idle_timeout {
                    break;
                }
                continue;
            }
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle(shared, &mut sess, &mut txn_started, req)
        }));
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
                    txn_started = None;
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
fn handle<'a>(
    shared: &'a Shared,
    sess: &mut Session<'a>,
    txn_started: &mut Option<Instant>,
    req: Request,
) -> Response {
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
                    *txn_started = None;
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
            *txn_started = Some(Instant::now());
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
            *txn_started = None;
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
            *txn_started = None;
            shared.open_txns.fetch_sub(1, Ordering::SeqCst);
            match tree.abort(t) {
                Ok(()) => Response::Done,
                Err(e) => err(ErrorCode::from(e), e.to_string()),
            }
        }
        Request::BeginSnapshot => {
            if sess.snapshots.len() >= shared.cfg.max_snapshots {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A socket stand-in: each `read` delivers the next scripted chunk (cut
    /// to the caller's buffer) or fails with the scripted error kind.
    struct Script(VecDeque<Result<Vec<u8>, ErrorKind>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn a_buffered_frame_survives_timeouts_anywhere_in_it() {
        let (a, b) = (frame(b"first"), frame(b"second frame"));
        let mut chunks: VecDeque<_> = VecDeque::new();
        // Two frames in one chunk, then a frame split inside its prefix
        // and inside its body, with a timeout at each cut.
        chunks.push_back(Ok([a.clone(), b.clone()].concat()));
        chunks.push_back(Ok(b[..2].to_vec()));
        chunks.push_back(Err(ErrorKind::WouldBlock));
        chunks.push_back(Ok(b[2..7].to_vec()));
        chunks.push_back(Err(ErrorKind::TimedOut));
        chunks.push_back(Ok(b[7..].to_vec()));
        let mut reader = BufReader::new(Script(chunks));
        let mut accum = FrameAccum::new();
        let mut got = Vec::new();
        loop {
            match accum.step(&mut reader) {
                ReadStep::Frame(body) => got.push(body),
                ReadStep::Poll => got.push(b"poll".to_vec()),
                ReadStep::Eof => break,
                ReadStep::TooLarge(_) | ReadStep::Dead => panic!("stream corrupted"),
            }
        }
        let want: Vec<&[u8]> = vec![b"first", b"second frame", b"poll", b"poll", b"second frame"];
        assert_eq!(got, want);
    }
}
