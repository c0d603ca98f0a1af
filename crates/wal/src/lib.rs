//! # dgl-wal — logical write-ahead logging for the granular R-tree
//!
//! A minimal-but-honest durability layer beneath the DGL protocol:
//! commit-duration locks (paper Table 3) only mean something if commit
//! itself survives a crash.
//!
//! - [`record`]: CRC32-framed logical records
//!   (`Begin`/`Insert`/`Delete`/`Commit`/`Abort`/`Checkpoint`) in
//!   generation-numbered segment files.
//! - [`log`]: the [`Wal`] writer — an append buffer drained by one
//!   flusher thread that syncs whatever is pending as soon as it is free
//!   (commits that queue behind an `fsync` share the next) and writes in
//!   place into segments zero-filled ahead of it, plus segment rotation
//!   at checkpoint cuts and a page-cache-loss crash model for the chaos
//!   harness.
//! - [`replay`]: directory scans and a lenient reader that preserves a
//!   segment's valid prefix and reports (never errors on) a torn tail.
//!
//! The tree-level recovery algorithm (snapshot load + committed-tail
//! replay) lives in `dgl-core`, which owns the write path the replay
//! drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod record;
pub mod replay;

pub use crate::log::{RotateInfo, Wal, WalConfig};
pub use crate::record::{
    crc32, read_segment_header, UndoEntry, UndoOp, WalError, WalRecord, MAX_RECORD_LEN,
};
pub use crate::replay::{read_segment, scan_dir, segment_path, snapshot_path, SegmentData};
