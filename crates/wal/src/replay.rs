//! Reading the log back: file naming, directory scans, and a lenient
//! segment reader that reports — rather than errors on — a torn tail.
//!
//! Policy decisions (which generation to anchor recovery on, whether a
//! torn region mid-chain is fatal) belong to the caller; this module
//! only extracts what is structurally readable.
//!
//! Segment files are zero-filled ahead of the writer in 1 MiB chunks, so
//! a segment usually ends in a zero tail, not at the end of its file.
//! The reader treats an all-zero remainder at a frame boundary as the
//! clean end (`torn_bytes == 0`), which is what lets a sealed segment
//! sit mid-chain; anything else past the valid prefix is counted torn.
//! A segment written without a zero tail reads exactly as before.

use std::path::{Path, PathBuf};

use crate::record::{read_frame, WalError, WalRecord};
use crate::record::{read_segment_header, FrameRead, SEGMENT_HEADER_LEN};

/// Path of generation `gen`'s log segment (`wal-{gen:010}.log`).
pub fn segment_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:010}.log"))
}

/// Path of generation `gen`'s tree snapshot (`snapshot-{gen:010}.tree`).
pub fn snapshot_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("snapshot-{gen:010}.tree"))
}

/// Generations present in a log directory, each list sorted ascending.
#[derive(Debug, Default, Clone)]
pub struct DirListing {
    /// Generations with a snapshot file.
    pub snapshots: Vec<u64>,
    /// Generations with a segment file.
    pub segments: Vec<u64>,
}

fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Lists the snapshot and segment generations in `dir`. Unrelated files
/// are ignored.
pub fn scan_dir(dir: &Path) -> Result<DirListing, WalError> {
    let mut listing = DirListing::default();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = parse_gen(name, "wal-", ".log") {
            listing.segments.push(gen);
        } else if let Some(gen) = parse_gen(name, "snapshot-", ".tree") {
            listing.snapshots.push(gen);
        }
    }
    listing.snapshots.sort_unstable();
    listing.segments.sort_unstable();
    Ok(listing)
}

/// A segment file's readable content.
#[derive(Debug)]
pub struct SegmentData {
    /// Generation from the segment header; `None` if the header itself
    /// is torn or invalid (an interrupted rotation can leave a segment
    /// with nothing durable).
    pub gen: Option<u64>,
    /// The valid record prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes past the valid prefix (a torn final write); 0 for a clean
    /// segment.
    pub torn_bytes: usize,
}

/// Reads one segment file leniently: a torn header yields `gen: None`,
/// a torn or corrupt frame ends the record list and is counted in
/// `torn_bytes`. Only real I/O failures error.
pub fn read_segment(path: &Path) -> Result<SegmentData, WalError> {
    let data = std::fs::read(path)?;
    let Some(gen) = read_segment_header(&data) else {
        return Ok(SegmentData {
            gen: None,
            records: Vec::new(),
            torn_bytes: data.len(),
        });
    };
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    let torn_bytes = loop {
        match read_frame(&data, pos) {
            FrameRead::Record(rec, next) => {
                records.push(rec);
                pos = next;
            }
            FrameRead::End => break 0,
            FrameRead::Torn(n) => break n,
        }
    };
    Ok(SegmentData {
        gen: Some(gen),
        records,
        torn_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, encode_segment_header};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dgl-wal-replay-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn paths_are_zero_padded_and_sortable() {
        let dir = Path::new("/x");
        assert_eq!(segment_path(dir, 7), PathBuf::from("/x/wal-0000000007.log"));
        assert_eq!(
            snapshot_path(dir, 12),
            PathBuf::from("/x/snapshot-0000000012.tree")
        );
    }

    #[test]
    fn scan_dir_sorts_and_ignores_strangers() {
        let dir = temp_dir("scan");
        for gen in [3u64, 1, 2] {
            std::fs::write(segment_path(&dir, gen), b"").unwrap();
        }
        std::fs::write(snapshot_path(&dir, 2), b"").unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("wal-abc.log"), b"hi").unwrap();
        let listing = scan_dir(&dir).unwrap();
        assert_eq!(listing.segments, vec![1, 2, 3]);
        assert_eq!(listing.snapshots, vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_with_torn_header_reads_as_gen_none() {
        let dir = temp_dir("torn-header");
        let path = segment_path(&dir, 0);
        std::fs::write(&path, &encode_segment_header(0)[..7]).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.gen, None);
        assert!(seg.records.is_empty());
        assert_eq!(seg.torn_bytes, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_with_torn_tail_keeps_valid_prefix() {
        let dir = temp_dir("torn-tail");
        let path = segment_path(&dir, 4);
        let mut data = encode_segment_header(4);
        data.extend_from_slice(&encode_record(&WalRecord::Begin { txn: 1 }));
        data.extend_from_slice(&encode_record(&WalRecord::Commit { txn: 1 }));
        let torn = encode_record(&WalRecord::Begin { txn: 2 });
        data.extend_from_slice(&torn[..torn.len() - 3]);
        std::fs::write(&path, &data).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.gen, Some(4));
        assert_eq!(
            seg.records,
            vec![WalRecord::Begin { txn: 1 }, WalRecord::Commit { txn: 1 }]
        );
        assert_eq!(seg.torn_bytes, torn.len() - 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn committed_segment(gen: u64) -> Vec<u8> {
        let mut data = encode_segment_header(gen);
        data.extend_from_slice(&encode_record(&WalRecord::Begin { txn: 1 }));
        data.extend_from_slice(&encode_record(&WalRecord::Commit { txn: 1 }));
        data
    }

    #[test]
    fn sealed_segment_with_zero_tail_reads_clean() {
        let dir = temp_dir("zero-tail");
        let path = segment_path(&dir, 5);
        let mut data = committed_segment(5);
        data.resize(1 << 20, 0);
        std::fs::write(&path, &data).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.gen, Some(5));
        assert_eq!(
            seg.records,
            vec![WalRecord::Begin { txn: 1 }, WalRecord::Commit { txn: 1 }]
        );
        assert_eq!(seg.torn_bytes, 0, "a zero tail is not a torn tail");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_without_zero_tail_reads_as_before() {
        let dir = temp_dir("no-tail");
        let path = segment_path(&dir, 6);
        // Clean: ends exactly at a frame boundary.
        std::fs::write(&path, committed_segment(6)).unwrap();
        let seg = read_segment(&path).unwrap();
        assert_eq!(seg.gen, Some(6));
        assert_eq!(seg.records.len(), 2);
        assert_eq!(seg.torn_bytes, 0);
        // Torn: every cut of a trailing frame keeps the prefix and counts
        // exactly the cut bytes, as the reader always did.
        let extra = encode_record(&WalRecord::Abort { txn: 2 });
        for cut in 1..extra.len() {
            let mut data = committed_segment(6);
            data.extend_from_slice(&extra[..cut]);
            std::fs::write(&path, &data).unwrap();
            let seg = read_segment(&path).unwrap();
            assert_eq!(seg.records.len(), 2, "cut at {cut}");
            assert_eq!(seg.torn_bytes, cut, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
