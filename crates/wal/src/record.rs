//! Log records and their on-disk framing.
//!
//! Every record is framed as `len: u32 LE | crc: u32 LE | payload`,
//! where `crc` is the CRC32-IEEE of the payload and `len` its byte
//! length. The payload starts with a one-byte tag; integers are
//! little-endian, rectangles are four `f64` (lo.x lo.y hi.x hi.y).
//! A reader that hits a frame whose length header runs past the end of
//! the file, or whose CRC does not match, treats it as the torn tail of
//! an interrupted write: the valid prefix is the log.
//!
//! A segment file is zero-filled ahead of its writes (see [`crate::log`]),
//! so the log usually ends in a run of zero bytes rather than at the end
//! of the file. No record has an empty payload, so a frame position from
//! which every remaining byte is zero reads as the clean end
//! ([`FrameRead::End`]); a zero `len` with any nonzero byte after it is
//! torn like any other damaged frame. A file without a zero tail reads
//! exactly as it always did.
//!
//! Each segment file opens with a 16-byte header
//! (`"DGLW" | version u32 | generation u64`) so a directory scan can
//! order segments without trusting file names alone.

/// Magic of a segment file header ("DGLW" little-endian).
pub const SEGMENT_MAGIC: u32 = 0x4447_4C57;
/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Byte length of a segment header.
pub const SEGMENT_HEADER_LEN: usize = 16;
/// Byte length of a record frame header (`len` + `crc`).
pub const FRAME_HEADER_LEN: usize = 8;
/// Upper bound on a single record's payload; anything larger in a `len`
/// field is treated as corruption (or a torn frame header), never
/// allocated.
pub const MAX_RECORD_LEN: usize = 64 << 20;

const TAG_BEGIN: u8 = 1;
const TAG_INSERT: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_CHECKPOINT: u8 = 6;
const TAG_PREPARE: u8 = 7;

const UNDO_INSERT: u8 = 1;
const UNDO_DELETE: u8 = 2;

/// One reversible operation of a transaction that was still active when
/// a checkpoint cut the log — enough for recovery to peel the
/// transaction's applied effects back out of the snapshot image if it
/// never commits.
#[derive(Debug, Clone, PartialEq)]
pub enum UndoOp {
    /// The transaction inserted `oid`; undo removes the entry.
    Insert {
        /// Object id.
        oid: u64,
        /// Object rectangle (`[lo.x, lo.y, hi.x, hi.y]`).
        rect: [f64; 4],
    },
    /// The transaction tombstoned `oid`; undo clears the tombstone.
    Delete {
        /// Object id.
        oid: u64,
        /// Object rectangle (`[lo.x, lo.y, hi.x, hi.y]`).
        rect: [f64; 4],
    },
}

/// The undo list of one transaction active at a checkpoint cut, ops in
/// execution order (recovery applies them in reverse).
#[derive(Debug, Clone, PartialEq)]
pub struct UndoEntry {
    /// Transaction id.
    pub txn: u64,
    /// Applied tree mutations, in execution order.
    pub ops: Vec<UndoOp>,
}

/// A logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First write of a transaction.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// An applied insert.
    Insert {
        /// Transaction id.
        txn: u64,
        /// Object id.
        oid: u64,
        /// Object rectangle (`[lo.x, lo.y, hi.x, hi.y]`).
        rect: [f64; 4],
    },
    /// An applied logical delete (tombstone).
    Delete {
        /// Transaction id.
        txn: u64,
        /// Object id.
        oid: u64,
        /// Object rectangle (`[lo.x, lo.y, hi.x, hi.y]`).
        rect: [f64; 4],
    },
    /// Commit point; durable once its batch is fsynced.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// Rollback marker (informational: absence of `Commit` is what makes
    /// a loser).
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// Two-phase-commit prepare: this participant's writes are durable
    /// and it will commit iff the coordinator logged a decision for
    /// `gtxn`. A prepared transaction is in doubt until a local `Commit`
    /// or `Abort` follows — recovery consults the coordinator log.
    Prepare {
        /// Local (per-shard) transaction id.
        txn: u64,
        /// Global transaction id the coordinator decides on.
        gtxn: u64,
    },
    /// First record of a segment: anchors the segment to the snapshot of
    /// the same generation and carries the undo lists of transactions
    /// active at the cut.
    Checkpoint {
        /// Generation this checkpoint (segment + snapshot pair) belongs to.
        gen: u64,
        /// Undo lists of transactions with applied-but-uncommitted ops.
        undo: Vec<UndoEntry>,
        /// `(txn, gtxn)` pairs of transactions prepared under 2PC but
        /// undecided at the cut. Their undo lists ride in `undo`; the
        /// mapping here lets recovery resolve them against the
        /// coordinator log even after the `Prepare` record itself was
        /// rotated away.
        prepared: Vec<(u64, u64)>,
    },
}

impl WalRecord {
    /// Whether this is a commit record (group-commit accounting).
    pub fn is_commit(&self) -> bool {
        matches!(self, WalRecord::Commit { .. })
    }
}

/// Errors of the log layer.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The log is poisoned: a flush failed or a simulated crash fired.
    /// Nothing further will be made durable.
    Crashed,
    /// Structural damage that cannot be read past (distinct from a torn
    /// final record, which readers tolerate silently).
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Crashed => write!(f, "wal crashed: log is poisoned, nothing durable"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

// --- CRC32 (IEEE 802.3, reflected) -----------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slice-by-8 tables: `[0]` is the bytewise table, and `[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes — so eight table reads
/// advance the register over eight bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    t[0] = crc32_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32-IEEE of `data` (the polynomial `zlib`/Ethernet use), eight bytes
/// per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for b in words.remainder() {
        c = t[0][((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The byte-at-a-time reference [`crc32`] must equal.
#[cfg(test)]
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for b in data {
        c = CRC_TABLES[0][((c ^ u32::from(*b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- encoding ---------------------------------------------------------

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_rect(buf: &mut Vec<u8>, r: &[f64; 4]) {
    for v in r {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the record payload (no frame) to `buf`.
fn put_payload(buf: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Begin { txn } => {
            buf.push(TAG_BEGIN);
            put_u64(buf, *txn);
        }
        WalRecord::Insert { txn, oid, rect } => {
            buf.push(TAG_INSERT);
            put_u64(buf, *txn);
            put_u64(buf, *oid);
            put_rect(buf, rect);
        }
        WalRecord::Delete { txn, oid, rect } => {
            buf.push(TAG_DELETE);
            put_u64(buf, *txn);
            put_u64(buf, *oid);
            put_rect(buf, rect);
        }
        WalRecord::Commit { txn } => {
            buf.push(TAG_COMMIT);
            put_u64(buf, *txn);
        }
        WalRecord::Abort { txn } => {
            buf.push(TAG_ABORT);
            put_u64(buf, *txn);
        }
        WalRecord::Prepare { txn, gtxn } => {
            buf.push(TAG_PREPARE);
            put_u64(buf, *txn);
            put_u64(buf, *gtxn);
        }
        WalRecord::Checkpoint {
            gen,
            undo,
            prepared,
        } => {
            buf.push(TAG_CHECKPOINT);
            put_u64(buf, *gen);
            put_u64(buf, undo.len() as u64);
            for entry in undo {
                put_u64(buf, entry.txn);
                put_u64(buf, entry.ops.len() as u64);
                for op in &entry.ops {
                    match op {
                        UndoOp::Insert { oid, rect } => {
                            buf.push(UNDO_INSERT);
                            put_u64(buf, *oid);
                            put_rect(buf, rect);
                        }
                        UndoOp::Delete { oid, rect } => {
                            buf.push(UNDO_DELETE);
                            put_u64(buf, *oid);
                            put_rect(buf, rect);
                        }
                    }
                }
            }
            put_u64(buf, prepared.len() as u64);
            for (txn, gtxn) in prepared {
                put_u64(buf, *txn);
                put_u64(buf, *gtxn);
            }
        }
    }
}

/// Appends a record's framed form (`len | crc | payload`) to `out`: the
/// header is reserved, the payload encoded in place behind it, then
/// `len` and `crc` patched in — no intermediate buffer.
pub fn encode_record_into(rec: &WalRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    put_payload(out, rec);
    let payload = &out[start + FRAME_HEADER_LEN..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + FRAME_HEADER_LEN].copy_from_slice(&crc);
}

/// Serializes a record into its framed form (`len | crc | payload`).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(rec, &mut out);
    out
}

/// Serializes a segment header.
pub fn encode_segment_header(gen: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
    out.extend_from_slice(&SEGMENT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&gen.to_le_bytes());
    out
}

/// Parses a segment header, returning its generation. `None` if the
/// data is too short, the magic is wrong, or the version is unknown —
/// i.e. the header itself is torn or foreign.
pub fn read_segment_header(data: &[u8]) -> Option<u64> {
    if data.len() < SEGMENT_HEADER_LEN {
        return None;
    }
    let magic = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if magic != SEGMENT_MAGIC || version != SEGMENT_VERSION {
        return None;
    }
    Some(u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")))
}

// --- decoding ---------------------------------------------------------

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        if self.data.len() - self.pos < n {
            return Err(WalError::Corrupt(format!("record truncated at {what}")));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WalError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn rect(&mut self, what: &str) -> Result<[f64; 4], WalError> {
        let mut r = [0.0f64; 4];
        for v in &mut r {
            *v = f64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes"));
        }
        Ok(r)
    }
}

/// Parses a record payload (frame already validated by the reader).
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut c = Cursor {
        data: payload,
        pos: 0,
    };
    let tag = c.u8("tag")?;
    let rec = match tag {
        TAG_BEGIN => WalRecord::Begin { txn: c.u64("txn")? },
        TAG_INSERT => WalRecord::Insert {
            txn: c.u64("txn")?,
            oid: c.u64("oid")?,
            rect: c.rect("rect")?,
        },
        TAG_DELETE => WalRecord::Delete {
            txn: c.u64("txn")?,
            oid: c.u64("oid")?,
            rect: c.rect("rect")?,
        },
        TAG_COMMIT => WalRecord::Commit { txn: c.u64("txn")? },
        TAG_ABORT => WalRecord::Abort { txn: c.u64("txn")? },
        TAG_PREPARE => WalRecord::Prepare {
            txn: c.u64("txn")?,
            gtxn: c.u64("gtxn")?,
        },
        TAG_CHECKPOINT => {
            let gen = c.u64("gen")?;
            let n = c.u64("undo count")?;
            // The count is untrusted: bound the pre-allocation by what the
            // payload could physically hold (each entry is >= 16 bytes).
            let cap = usize::try_from(n.min(payload.len() as u64 / 16 + 1)).unwrap_or(0);
            let mut undo = Vec::with_capacity(cap);
            for _ in 0..n {
                let txn = c.u64("undo txn")?;
                let ops_n = c.u64("undo op count")?;
                let ops_cap =
                    usize::try_from(ops_n.min(payload.len() as u64 / 41 + 1)).unwrap_or(0);
                let mut ops = Vec::with_capacity(ops_cap);
                for _ in 0..ops_n {
                    let kind = c.u8("undo op tag")?;
                    let oid = c.u64("undo oid")?;
                    let rect = c.rect("undo rect")?;
                    ops.push(match kind {
                        UNDO_INSERT => UndoOp::Insert { oid, rect },
                        UNDO_DELETE => UndoOp::Delete { oid, rect },
                        other => {
                            return Err(WalError::Corrupt(format!("unknown undo op tag {other}")))
                        }
                    });
                }
                undo.push(UndoEntry { txn, ops });
            }
            let p_n = c.u64("prepared count")?;
            let p_cap = usize::try_from(p_n.min(payload.len() as u64 / 16 + 1)).unwrap_or(0);
            let mut prepared = Vec::with_capacity(p_cap);
            for _ in 0..p_n {
                let txn = c.u64("prepared txn")?;
                let gtxn = c.u64("prepared gtxn")?;
                prepared.push((txn, gtxn));
            }
            WalRecord::Checkpoint {
                gen,
                undo,
                prepared,
            }
        }
        other => return Err(WalError::Corrupt(format!("unknown record tag {other}"))),
    };
    if c.pos != payload.len() {
        return Err(WalError::Corrupt(format!(
            "{} trailing payload bytes",
            payload.len() - c.pos
        )));
    }
    Ok(rec)
}

/// Outcome of reading one frame from `data` at `pos`.
pub enum FrameRead {
    /// A valid record; `next` is the offset just past its frame.
    Record(WalRecord, usize),
    /// End of the log at a frame boundary: no bytes left, or only the
    /// segment's zero tail.
    End,
    /// The bytes from `pos` on are an incomplete or corrupt final frame —
    /// the torn tail of an interrupted write. Contains the number of
    /// bytes discarded.
    Torn(usize),
}

/// Reads the frame starting at `pos`. Incomplete/corrupt frames are
/// reported as [`FrameRead::Torn`], never an error: the caller decides
/// whether a torn frame is tolerable (last segment) or fatal.
pub fn read_frame(data: &[u8], pos: usize) -> FrameRead {
    // A segment's unwritten tail is zero-filled ahead of the writes. No
    // record has an empty payload, so a zero `len` with nothing but
    // zeros behind it is the clean end of the log; a zero `len` followed
    // by any nonzero byte still falls through to `Torn` below.
    if data[pos..].iter().all(|&b| b == 0) {
        return FrameRead::End;
    }
    let remaining = data.len() - pos;
    if remaining < FRAME_HEADER_LEN {
        return FrameRead::Torn(remaining);
    }
    let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
    if len > MAX_RECORD_LEN || remaining - FRAME_HEADER_LEN < len {
        return FrameRead::Torn(remaining);
    }
    let payload = &data[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len];
    if crc32(payload) != crc {
        return FrameRead::Torn(remaining);
    }
    match decode_payload(payload) {
        Ok(rec) => FrameRead::Record(rec, pos + FRAME_HEADER_LEN + len),
        // CRC passed but the payload does not parse: structural damage,
        // not a torn write — still reported as torn so the valid prefix
        // survives, but a caller checking non-final segments will reject.
        Err(_) => FrameRead::Torn(remaining),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::Insert {
                txn: 7,
                oid: 42,
                rect: [0.1, 0.2, 0.3, 0.4],
            },
            WalRecord::Delete {
                txn: 9,
                oid: 1,
                rect: [-1.0, 0.0, 1.0, 2.0],
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::Abort { txn: 9 },
            WalRecord::Prepare { txn: 13, gtxn: 99 },
            WalRecord::Checkpoint {
                gen: 3,
                undo: vec![
                    UndoEntry {
                        txn: 11,
                        ops: vec![
                            UndoOp::Insert {
                                oid: 5,
                                rect: [0.0; 4],
                            },
                            UndoOp::Delete {
                                oid: 6,
                                rect: [0.5, 0.5, 0.6, 0.6],
                            },
                        ],
                    },
                    UndoEntry {
                        txn: 12,
                        ops: vec![],
                    },
                ],
                prepared: vec![(11, 99), (12, 100)],
            },
        ]
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical check value of CRC32-IEEE, for both forms.
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-8 equals the bytewise loop at every length, with the
        /// data starting at every offset within an eight-byte word.
        #[test]
        fn crc32_equals_the_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..4096),
            start in 0..8usize,
        ) {
            let buf = [vec![0xA5; start], data].concat();
            let tail = &buf[start..];
            prop_assert_eq!(crc32(tail), crc32_bytewise(tail));
        }
    }

    #[test]
    fn records_roundtrip() {
        for rec in samples() {
            let framed = encode_record(&rec);
            match read_frame(&framed, 0) {
                FrameRead::Record(got, next) => {
                    assert_eq!(got, rec);
                    assert_eq!(next, framed.len());
                }
                _ => panic!("frame did not read back: {rec:?}"),
            }
        }
    }

    #[test]
    fn stream_of_records_reads_in_order() {
        let recs = samples();
        let mut data = Vec::new();
        for r in &recs {
            data.extend_from_slice(&encode_record(r));
        }
        let mut pos = 0;
        let mut got = Vec::new();
        loop {
            match read_frame(&data, pos) {
                FrameRead::Record(r, next) => {
                    got.push(r);
                    pos = next;
                }
                FrameRead::End => break,
                FrameRead::Torn(_) => panic!("clean stream read as torn"),
            }
        }
        assert_eq!(got, recs);
    }

    #[test]
    fn torn_tail_is_reported_not_error() {
        let rec = WalRecord::Insert {
            txn: 1,
            oid: 2,
            rect: [0.0, 0.0, 1.0, 1.0],
        };
        let framed = encode_record(&rec);
        for cut in 1..framed.len() {
            match read_frame(&framed[..cut], 0) {
                FrameRead::Torn(n) => assert_eq!(n, cut),
                _ => panic!("cut at {cut} not torn"),
            }
        }
    }

    #[test]
    fn corrupt_crc_is_torn() {
        let mut framed = encode_record(&WalRecord::Commit { txn: 3 });
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        assert!(matches!(read_frame(&framed, 0), FrameRead::Torn(_)));
    }

    #[test]
    fn framing_into_a_buffer_appends_the_same_bytes() {
        let mut buf = vec![0xEE; 3];
        for rec in samples() {
            let before = buf.len();
            encode_record_into(&rec, &mut buf);
            assert_eq!(&buf[before..], &encode_record(&rec)[..], "{rec:?}");
        }
    }

    /// Every frame of `recs`, back to back, then `tail`.
    fn stream(recs: &[WalRecord], tail: &[u8]) -> Vec<u8> {
        let mut data = Vec::new();
        for r in recs {
            encode_record_into(r, &mut data);
        }
        data.extend_from_slice(tail);
        data
    }

    /// Reads frames from 0 until something other than a record.
    fn read_all(data: &[u8]) -> (Vec<WalRecord>, FrameRead) {
        let (mut pos, mut got) = (0, Vec::new());
        loop {
            match read_frame(data, pos) {
                FrameRead::Record(r, next) => {
                    got.push(r);
                    pos = next;
                }
                end => return (got, end),
            }
        }
    }

    #[test]
    fn zero_tail_ends_the_log_cleanly() {
        // Shorter than a frame header, exactly one, and a whole page.
        for zeros in [1, 3, FRAME_HEADER_LEN, 4096] {
            let (got, end) = read_all(&stream(&samples(), &vec![0; zeros]));
            assert_eq!(got, samples(), "{zeros} zeros");
            assert!(matches!(end, FrameRead::End), "{zeros} zeros");
        }
    }

    #[test]
    fn zero_len_followed_by_a_nonzero_byte_is_torn() {
        // The nonzero byte inside the header's crc, right behind the
        // header, and far down the tail.
        for at in [4, 7, FRAME_HEADER_LEN, 100, 4095] {
            let mut tail = vec![0u8; 4096];
            tail[at] = 0x01;
            let (got, end) = read_all(&stream(&samples(), &tail));
            assert_eq!(got, samples(), "nonzero at {at}");
            assert!(
                matches!(end, FrameRead::Torn(n) if n == tail.len()),
                "nonzero at {at}"
            );
        }
    }

    #[test]
    fn half_written_frame_followed_by_zeros_is_torn() {
        let framed = encode_record(&WalRecord::Insert {
            txn: 1,
            oid: 2,
            rect: [0.5, 0.5, 0.75, 0.75],
        });
        for cut in 1..framed.len() {
            let mut tail = framed[..cut].to_vec();
            tail.resize(cut + 4096, 0);
            let (got, end) = read_all(&stream(&samples(), &tail));
            assert_eq!(got, samples(), "cut at {cut}");
            assert!(
                matches!(end, FrameRead::Torn(n) if n == tail.len()),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn absurd_length_header_is_torn_not_alloc() {
        let mut data = vec![0u8; 16];
        data[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&data, 0), FrameRead::Torn(_)));
    }
}
