//! Client side of the dgl-proto wire protocol.
//!
//! Two layers:
//!
//! - [`Client`] — one blocking connection: a method per request kind,
//!   strict request/response alternation.
//! - [`Pipeline`] — batches requests on a [`Client`] and collects the
//!   in-order responses in one round trip (the server processes a
//!   connection's frames strictly in order and echoes request ids).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use dgl_core::ScanHit;
use dgl_geom::Rect2;
use dgl_proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, WireError,
    MAX_RESPONSE_FRAME, PROTO_VERSION,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed (includes mid-frame EOF).
    Io(io::Error),
    /// The server sent an oversized frame.
    FrameTooLarge {
        /// Declared length.
        len: usize,
    },
    /// The server's frame body failed to decode.
    Proto(WireError),
    /// The server answered with a typed error.
    Server {
        /// The error code (carries the retry classification).
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The server answered with a response kind this call cannot accept
    /// (protocol desync — treat the connection as dead).
    Unexpected(String),
}

impl ClientError {
    /// Whether retrying the whole transaction can be expected to work.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Server { code, .. } if code.is_retryable())
    }

    /// The server error code, when this is a typed server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection: {e}"),
            ClientError::FrameTooLarge { len } => {
                write!(f, "server frame of {len} bytes exceeds the response cap")
            }
            ClientError::Proto(e) => write!(f, "malformed server frame: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooLarge { len, .. } => ClientError::FrameTooLarge { len },
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Proto(e)
    }
}

/// Shorthand result.
pub type Result<T> = std::result::Result<T, ClientError>;

/// One blocking protocol connection, already past the handshake.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u32,
    /// Name the server sent in `HelloOk`.
    server_name: String,
}

impl Client {
    /// Connects, handshakes, and returns a ready client.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Self::connect_as(addr, "dgl-client")
    }

    /// [`Client::connect`] with an explicit client name (diagnostics).
    pub fn connect_as(addr: impl ToSocketAddrs, name: &str) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            server_name: String::new(),
        };
        let resp = client.call(Request::Hello {
            version: PROTO_VERSION,
            client: name.to_string(),
        })?;
        match resp {
            Response::HelloOk { server, .. } => {
                client.server_name = server;
                Ok(client)
            }
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// The server's self-reported name.
    pub fn server_name(&self) -> &str {
        &self.server_name
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Sends `req` without waiting for the response; returns the
    /// request id. Pair with [`Client::recv`].
    pub fn send(&mut self, req: Request) -> Result<u32> {
        let id = self.fresh_id();
        write_frame(&mut self.writer, &req.encode(id))?;
        Ok(id)
    }

    /// Flushes buffered requests to the socket.
    pub fn flush(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Receives the next response frame (in server order).
    pub fn recv(&mut self) -> Result<(u32, Response)> {
        let body = read_frame(&mut self.reader, MAX_RESPONSE_FRAME)?
            .ok_or_else(|| ClientError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        Ok(Response::decode(&body)?)
    }

    /// One request, one response; checks the id echo. `Error` responses
    /// come back as [`ClientError::Server`].
    pub fn call(&mut self, req: Request) -> Result<Response> {
        let id = self.send(req)?;
        self.flush()?;
        let (got, resp) = self.recv()?;
        match resp {
            // Request id 0 marks a connection-level error (the server
            // refused before reading a request, e.g. while draining).
            Response::Error { code, message } if got == id || got == 0 => {
                Err(ClientError::Server { code, message })
            }
            _ if got != id => Err(ClientError::Unexpected(format!(
                "response for request {got}, expected {id}"
            ))),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Ok(other),
        }
    }

    /// Starts a pipelined batch on this connection.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            client: self,
            sent: Vec::new(),
        }
    }

    // ----- one method per operation -----

    /// `Begin` → the new transaction id.
    pub fn begin(&mut self) -> Result<u64> {
        match self.call(Request::Begin)? {
            Response::TxnBegun { txn } => Ok(txn),
            other => Err(unexpected("TxnBegun", &other)),
        }
    }

    /// `Insert`.
    pub fn insert(&mut self, txn: u64, oid: u64, rect: Rect2) -> Result<()> {
        match self.call(Request::Insert { txn, oid, rect })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// `Delete` → whether the object existed.
    pub fn delete(&mut self, txn: u64, oid: u64, rect: Rect2) -> Result<bool> {
        match self.call(Request::Delete { txn, oid, rect })? {
            Response::Existed { existed } => Ok(existed),
            other => Err(unexpected("Existed", &other)),
        }
    }

    /// `Update` → whether the object existed.
    pub fn update(&mut self, txn: u64, oid: u64, rect: Rect2) -> Result<bool> {
        match self.call(Request::Update { txn, oid, rect })? {
            Response::Existed { existed } => Ok(existed),
            other => Err(unexpected("Existed", &other)),
        }
    }

    /// `ReadSingle` → the payload version, if visible.
    pub fn read_single(&mut self, txn: u64, oid: u64, rect: Rect2) -> Result<Option<u64>> {
        match self.call(Request::ReadSingle { txn, oid, rect })? {
            Response::Version { version } => Ok(version),
            other => Err(unexpected("Version", &other)),
        }
    }

    /// `Search` (phantom-protected region scan).
    pub fn search(&mut self, txn: u64, query: Rect2) -> Result<Vec<ScanHit>> {
        match self.call(Request::Search { txn, query })? {
            Response::Hits { hits } => Ok(hits),
            other => Err(unexpected("Hits", &other)),
        }
    }

    /// `UpdateScan` → hits with their new versions.
    pub fn update_scan(&mut self, txn: u64, query: Rect2) -> Result<Vec<ScanHit>> {
        match self.call(Request::UpdateScan { txn, query })? {
            Response::Hits { hits } => Ok(hits),
            other => Err(unexpected("Hits", &other)),
        }
    }

    /// `Commit`.
    pub fn commit(&mut self, txn: u64) -> Result<()> {
        match self.call(Request::Commit { txn })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// `Abort`.
    pub fn abort(&mut self, txn: u64) -> Result<()> {
        match self.call(Request::Abort { txn })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// `BeginSnapshot` → `(snapshot id, commit timestamp)`.
    pub fn begin_snapshot(&mut self) -> Result<(u64, u64)> {
        match self.call(Request::BeginSnapshot)? {
            Response::SnapshotBegun { snap, ts } => Ok((snap, ts)),
            other => Err(unexpected("SnapshotBegun", &other)),
        }
    }

    /// `SnapshotScan` (zero-lock MVCC scan).
    pub fn snapshot_scan(&mut self, snap: u64, query: Rect2) -> Result<Vec<ScanHit>> {
        match self.call(Request::SnapshotScan { snap, query })? {
            Response::Hits { hits } => Ok(hits),
            other => Err(unexpected("Hits", &other)),
        }
    }

    /// `SnapshotRead` → the payload version, if visible at the snapshot.
    pub fn snapshot_read(&mut self, snap: u64, oid: u64) -> Result<Option<u64>> {
        match self.call(Request::SnapshotRead { snap, oid })? {
            Response::Version { version } => Ok(version),
            other => Err(unexpected("Version", &other)),
        }
    }

    /// `EndSnapshot`.
    pub fn end_snapshot(&mut self, snap: u64) -> Result<()> {
        match self.call(Request::EndSnapshot { snap })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// `Stats` → the server's Prometheus text dump (backend + net).
    pub fn stats(&mut self) -> Result<String> {
        match self.call(Request::Stats)? {
            Response::StatsText { text } => Ok(text),
            other => Err(unexpected("StatsText", &other)),
        }
    }

    /// `Count` → physically present objects.
    pub fn count(&mut self) -> Result<u64> {
        match self.call(Request::Count)? {
            Response::CountIs { count } => Ok(count),
            other => Err(unexpected("CountIs", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Unexpected(format!("wanted {wanted}, got {got:?}"))
}

/// A batch of pipelined requests on one connection: submit any number,
/// then [`Pipeline::finish`] flushes once and collects every response
/// in order. Typed errors are returned in place, not raised — a batch
/// can mix successes and failures.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    sent: Vec<u32>,
}

impl Pipeline<'_> {
    /// Queues `req`; returns its request id.
    pub fn submit(&mut self, req: Request) -> Result<u32> {
        let id = self.client.send(req)?;
        self.sent.push(id);
        Ok(id)
    }

    /// Flushes the batch and reads one response per submitted request,
    /// checking the id echo order.
    pub fn finish(self) -> Result<Vec<Response>> {
        self.client.flush()?;
        let mut out = Vec::with_capacity(self.sent.len());
        for expect in &self.sent {
            let (got, resp) = self.client.recv()?;
            if got != *expect {
                return Err(ClientError::Unexpected(format!(
                    "response for request {got}, expected {expect}"
                )));
            }
            out.push(resp);
        }
        Ok(out)
    }
}
