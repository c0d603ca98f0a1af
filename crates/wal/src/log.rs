//! The append/flush half of the log: an in-memory append buffer per
//! segment, a single flusher thread, and a crash model for the chaos
//! harness.
//!
//! ## Durability contract
//!
//! [`Wal::append`] assigns the record a byte-offset LSN; the record is
//! *durable* once `flushed_lsn >= lsn`. A commit is acknowledged only
//! after [`Wal::wait_durable`] observes that, so an acked commit implies
//! every earlier record (across segment rotations — the flusher drains
//! segments strictly in order) is durable too.
//!
//! ## One flush rule
//!
//! The flusher writes and `fdatasync`s whatever is pending as soon as it
//! is free. A commit record wakes it, and so does a waiter in
//! [`Wal::wait_durable`] (a `Prepare`, a checkpoint cut or a coordinator
//! decision is not a commit record). There is no batching window: group
//! commit falls out of the rule, because every commit that queues behind
//! an in-flight `fsync` rides the next one.
//!
//! ## Writes in place
//!
//! A segment file is zero-filled ahead of the flusher in 1 MiB steps
//! (`CHUNK`), so a commit's flush overwrites bytes the file already has
//! (`pwrite` at the segment's durable end) and its `fdatasync` carries
//! only data: no new size, no new block allocation, no filesystem
//! journal commit. When a batch would run past the zero-filled end, the
//! same flush first extends the file with zeros to the next chunk
//! boundary — one flush in a few hundred pays for a size change.
//! [`Wal::create`] fills the first chunk before its `sync_all`; a
//! rotated segment gets its first chunk on its first flush (the
//! checkpoint's own wait for its cut). Readers take the all-zero remainder for
//! the end of the log ([`crate::record::read_frame`]).
//!
//! ## Crash model
//!
//! [`Wal::crash`] simulates losing the page cache: every segment file is
//! truncated back to its fsynced prefix and the log is poisoned. (A real
//! power loss keeps a zero-filled file's length and leaves its unsynced
//! range as zeros, or with any subset of its pages lost; recovery reads
//! those the same way as the truncation — the crash matrix pins that.)
//! The `wal/fsync` failpoint instead
//! writes *half* a batch before poisoning, leaving a genuinely torn frame
//! on disk for recovery to discard.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use dgl_faults::failpoint;
use dgl_obs::{Ctr, Hist, Registry};
use parking_lot::{Condvar, Mutex};

use crate::record::{encode_record_into, encode_segment_header, WalError, WalRecord};
use crate::replay::segment_path;

/// A segment file grows in steps of this many zero bytes, written ahead
/// of the records that will overwrite them.
const CHUNK: u64 = 1 << 20;

/// The source of every zero-fill write: a `static` block written
/// repeatedly, so extending a file allocates nothing. The lock is never
/// taken for writing; it gives the block interior mutability, which
/// places it in `.bss` rather than in the binary's read-only data. Read,
/// its pages are the kernel's shared zero page, so it costs no resident
/// memory, also in processes that never open a log.
static ZEROS: RwLock<[u8; 64 << 10]> = RwLock::new([0; 64 << 10]);

/// Writes zeros from `end` up to the next chunk boundary and returns
/// that boundary (`end` itself if it already is one).
fn zero_fill(file: &File, end: u64) -> std::io::Result<u64> {
    let zeros = ZEROS.read().unwrap_or_else(PoisonError::into_inner);
    let boundary = end.div_ceil(CHUNK) * CHUNK;
    let mut at = end;
    while at < boundary {
        let n = (boundary - at).min(zeros.len() as u64);
        file.write_all_at(&zeros[..n as usize], at)?;
        at += n;
    }
    Ok(boundary)
}

/// Log configuration. It has no fields: the log has one flush rule. The
/// type stays only because the repository benchmark's layer probe
/// (`benchmark/src/layers.rs`) names it in its [`Wal::create`] call.
#[derive(Debug, Clone, Default)]
pub struct WalConfig;

/// Result of sealing the log at a checkpoint cut.
#[derive(Debug, Clone, Copy)]
pub struct RotateInfo {
    /// Generation of the freshly opened segment.
    pub gen: u64,
    /// LSN just past the new segment's checkpoint record; once durable
    /// ([`Wal::wait_durable`]), everything the new generation depends on is on disk.
    pub cut_lsn: u64,
}

struct SegmentIo {
    gen: u64,
    /// Shared with the flusher's in-flight job: positional writes need
    /// no cursor, so no per-flush `dup`.
    file: Arc<File>,
    /// Bytes written and covered by an `fsync`; the next flush writes at
    /// this offset.
    synced: u64,
    /// File length: everything past `synced` up to here is zeros.
    allocated: u64,
    /// Appended bytes not yet written.
    pending: Vec<u8>,
    /// Commit records inside `pending` (group-commit accounting).
    pending_commits: u64,
    /// Global LSN at the end of `pending`.
    end_lsn: u64,
    /// Sealed by a rotation: no further appends land here.
    sealed: bool,
}

struct State {
    /// Front = oldest segment still draining; back = live tail.
    segments: VecDeque<SegmentIo>,
    appended_lsn: u64,
    flushed_lsn: u64,
    bytes_since_checkpoint: u64,
    crashed: bool,
    shutdown: bool,
}

struct Shared {
    obs: Arc<Registry>,
    state: Mutex<State>,
    /// Wakes the flusher (new commit, durability waiter, rotation,
    /// shutdown).
    work: Condvar,
    /// Wakes durability waiters (`flushed_lsn` advanced or poisoned).
    flushed: Condvar,
}

/// A write-ahead log over a directory of generation-numbered segment
/// files. Appends buffer in memory; a background flusher writes and
/// `fsync`s whatever is pending whenever it is free.
pub struct Wal {
    dir: PathBuf,
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Wal {
    /// Creates generation `gen`'s segment (header + `ckpt` record written,
    /// the rest of its first chunk zero-filled, and fsynced before
    /// returning) and starts the flusher. Fails if the segment file
    /// already exists.
    pub fn create(
        dir: &Path,
        gen: u64,
        ckpt: &WalRecord,
        _cfg: WalConfig,
        obs: Arc<Registry>,
    ) -> Result<Wal, WalError> {
        let path = segment_path(dir, gen);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        let mut head = encode_segment_header(gen);
        encode_record_into(ckpt, &mut head);
        file.write_all_at(&head, 0)?;
        let allocated = zero_fill(&file, head.len() as u64)?;
        file.sync_all()?;
        // Make the new segment's directory entry durable too.
        File::open(dir)?.sync_all()?;

        let base = head.len() as u64;
        obs.add(Ctr::WalAppendedBytes, base);
        obs.incr(Ctr::WalRecords);
        let shared = Arc::new(Shared {
            obs,
            state: Mutex::new(State {
                segments: VecDeque::from([SegmentIo {
                    gen,
                    file: Arc::new(file),
                    synced: base,
                    allocated,
                    pending: Vec::new(),
                    pending_commits: 0,
                    end_lsn: base,
                    sealed: false,
                }]),
                appended_lsn: base,
                flushed_lsn: base,
                bytes_since_checkpoint: 0,
                crashed: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            flushed: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dgl-wal-flush".into())
            .spawn(move || flusher_loop(&worker))
            .map_err(WalError::Io)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            shared,
            flusher: Mutex::new(Some(handle)),
        })
    }

    /// Appends a record to the live segment's buffer and returns its LSN
    /// (durable once `flushed_lsn` reaches it). The record is framed
    /// straight into the buffer, with no allocation of its own. The
    /// `wal/append` failpoint crashes the log before buffering — the
    /// record is lost, as if the process died just before the append.
    pub fn append(&self, rec: &WalRecord) -> Result<u64, WalError> {
        failpoint!("wal/append" => {
            self.crash();
            WalError::Crashed
        });
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        if st.crashed || st.shutdown {
            return Err(WalError::Crashed);
        }
        let seg = st.segments.back_mut().expect("live segment");
        let start = seg.pending.len();
        encode_record_into(rec, &mut seg.pending);
        let len = (seg.pending.len() - start) as u64;
        st.appended_lsn += len;
        st.bytes_since_checkpoint += len;
        let lsn = st.appended_lsn;
        let is_commit = rec.is_commit();
        seg.end_lsn = lsn;
        if is_commit {
            seg.pending_commits += 1;
        }
        self.shared.obs.incr(Ctr::WalRecords);
        self.shared.obs.add(Ctr::WalAppendedBytes, len);
        if is_commit {
            self.shared.work.notify_one();
        }
        Ok(lsn)
    }

    /// Appends a commit record. The `wal/commit` failpoint crashes the
    /// log first, modelling a crash at the commit point.
    pub fn append_commit(&self, txn: u64) -> Result<u64, WalError> {
        failpoint!("wal/commit" => {
            self.crash();
            WalError::Crashed
        });
        self.append(&WalRecord::Commit { txn })
    }

    /// Blocks until `lsn` is durable (its batch's `fsync` completed).
    /// Wakes the flusher first: only commit records wake it on append,
    /// so a waiter on any other record brings its own flush.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        let mut st = self.shared.state.lock();
        loop {
            if st.flushed_lsn >= lsn {
                return Ok(());
            }
            if st.crashed {
                return Err(WalError::Crashed);
            }
            self.shared.work.notify_one();
            self.shared.flushed.wait(&mut st);
        }
    }

    /// Seals the live segment and opens generation `gen + 1` headed by
    /// `ckpt`. Returns the new generation and the cut LSN that must be
    /// durable before the old generation's files may be deleted.
    pub fn rotate(&self, ckpt: &WalRecord) -> Result<RotateInfo, WalError> {
        let mut st = self.shared.state.lock();
        if st.crashed || st.shutdown {
            return Err(WalError::Crashed);
        }
        let gen = st.segments.back().expect("live segment").gen + 1;
        let path = segment_path(&self.dir, gen);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        // Directory entry durability for the new segment; data durability
        // (and the first chunk's zero-fill) is the caller's
        // `wait_durable(cut_lsn)`.
        File::open(&self.dir)?.sync_all()?;
        let mut pending = encode_segment_header(gen);
        encode_record_into(ckpt, &mut pending);
        let len = pending.len() as u64;
        st.segments.back_mut().expect("live segment").sealed = true;
        st.appended_lsn += len;
        let cut_lsn = st.appended_lsn;
        st.segments.push_back(SegmentIo {
            gen,
            file: Arc::new(file),
            synced: 0,
            allocated: 0,
            pending,
            pending_commits: 0,
            end_lsn: cut_lsn,
            sealed: false,
        });
        st.bytes_since_checkpoint = 0;
        self.shared.obs.incr(Ctr::WalRecords);
        self.shared.obs.add(Ctr::WalAppendedBytes, len);
        self.shared.work.notify_one();
        Ok(RotateInfo { gen, cut_lsn })
    }

    /// Bytes appended since the last rotation (auto-checkpoint trigger).
    pub fn bytes_since_checkpoint(&self) -> u64 {
        self.shared.state.lock().bytes_since_checkpoint
    }

    /// Generation of the live segment.
    pub fn current_gen(&self) -> u64 {
        self.shared.state.lock().segments.back().expect("live").gen
    }

    /// Highest durable LSN.
    pub fn flushed_lsn(&self) -> u64 {
        self.shared.state.lock().flushed_lsn
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the log is poisoned (flush failure or simulated crash).
    pub fn is_crashed(&self) -> bool {
        self.shared.state.lock().crashed
    }

    /// Simulates a process kill + page-cache loss: truncates every
    /// segment file back to its fsynced prefix and poisons the log. A
    /// no-op if already crashed (so a torn-write injection's half-frame
    /// survives a subsequent `crash()`). The append-side failpoints crash
    /// through here too: the process "dies" before anything new hits
    /// disk.
    pub fn crash(&self) {
        let mut st = self.shared.state.lock();
        if st.crashed {
            return;
        }
        for seg in &st.segments {
            let _ = seg.file.set_len(seg.synced);
        }
        poison_locked(&self.shared, &mut st);
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
    }
}

struct Job {
    gen: u64,
    file: Arc<File>,
    bytes: Vec<u8>,
    commits: u64,
    end_lsn: u64,
    /// The segment's `synced` at take time: where the bytes go, and the
    /// rollback point if a concurrent `crash()` wins the race against
    /// this job's write.
    offset: u64,
    /// The segment's `allocated` at take time.
    allocated: u64,
}

impl Job {
    /// Writes the batch in place, extends the zero-filled region if the
    /// batch ran past it, and makes both durable with one `fdatasync`.
    /// Returns the segment's new allocated length.
    fn write_and_sync(&self) -> std::io::Result<u64> {
        self.file.write_all_at(&self.bytes, self.offset)?;
        let end = self.offset + self.bytes.len() as u64;
        let allocated = if end > self.allocated {
            zero_fill(&self.file, end)?
        } else {
            self.allocated
        };
        self.file.sync_data()?;
        Ok(allocated)
    }
}

fn flusher_loop(shared: &Arc<Shared>) {
    // The previous batch's buffer, handed back to the segment as its next
    // `pending`: appends refill warm capacity instead of regrowing.
    let mut spare: Vec<u8> = Vec::new();
    loop {
        // --- take a job -----------------------------------------------
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.crashed {
                    return;
                }
                // Retire sealed segments that are fully drained.
                while st.segments.len() > 1 {
                    let s = &st.segments[0];
                    // The flusher is the only writer, so an empty
                    // `pending` means every byte is written and synced.
                    if s.sealed && s.pending.is_empty() {
                        st.segments.pop_front();
                    } else {
                        break;
                    }
                }
                // Drain strictly in segment order: never flush segment
                // k+1 while k still has pending bytes, so `flushed_lsn`
                // (and the commit ack it gates) is a true prefix.
                if let Some(seg) = st.segments.iter_mut().find(|s| !s.pending.is_empty()) {
                    break Job {
                        gen: seg.gen,
                        file: Arc::clone(&seg.file),
                        bytes: std::mem::replace(&mut seg.pending, std::mem::take(&mut spare)),
                        commits: std::mem::replace(&mut seg.pending_commits, 0),
                        end_lsn: seg.end_lsn,
                        offset: seg.synced,
                        allocated: seg.allocated,
                    };
                }
                if st.shutdown {
                    return;
                }
                shared.work.wait(&mut st);
            }
        };

        // --- execute I/O without the lock -----------------------------
        if dgl_faults::fired!("wal/fsync") {
            // Torn write: half the batch reaches the file, no fsync, and
            // the log dies. `crash()` is a no-op afterwards, so the torn
            // frame survives for recovery to discard.
            let half = job.bytes.len() / 2;
            let _ = job.file.write_all_at(&job.bytes[..half], job.offset);
            let mut st = shared.state.lock();
            if st.crashed {
                // An external crash() already truncated to the durable
                // prefix; honor its model and drop our half-write.
                let _ = job.file.set_len(job.offset);
            } else {
                poison_locked(shared, &mut st);
            }
            return;
        }
        let t0 = Instant::now();
        let io = job.write_and_sync();
        let nanos = t0.elapsed().as_nanos() as u64;

        // --- publish the result ---------------------------------------
        let mut st = shared.state.lock();
        if st.crashed {
            // crash() raced our write; its truncation may have happened
            // before our bytes landed. Re-truncate to the durable prefix.
            let _ = job.file.set_len(job.offset);
            return;
        }
        let Ok(allocated) = io else {
            poison_locked(shared, &mut st);
            return;
        };
        if let Some(seg) = st.segments.iter_mut().find(|s| s.gen == job.gen) {
            seg.synced = job.offset + job.bytes.len() as u64;
            seg.allocated = allocated;
        }
        if job.end_lsn > st.flushed_lsn {
            st.flushed_lsn = job.end_lsn;
        }
        shared.obs.incr(Ctr::WalFsyncs);
        shared.obs.record(Hist::WalFsync, nanos);
        shared.obs.add(Ctr::WalGroupCommitCommits, job.commits);
        shared.flushed.notify_all();
        drop(st);
        spare = job.bytes;
        spare.clear();
    }
}

fn poison_locked(shared: &Shared, st: &mut State) {
    st.crashed = true;
    shared.work.notify_all();
    shared.flushed.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::read_segment;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dgl-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ckpt(gen: u64) -> WalRecord {
        WalRecord::Checkpoint {
            gen,
            undo: Vec::new(),
            prepared: Vec::new(),
        }
    }

    #[test]
    fn append_commit_readback() {
        let dir = temp_dir("basic");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&WalRecord::Insert {
            txn: 1,
            oid: 7,
            rect: [0.0, 0.0, 1.0, 1.0],
        })
        .unwrap();
        let lsn = wal.append_commit(1).unwrap();
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        let seg = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(seg.gen, Some(0));
        assert_eq!(seg.torn_bytes, 0);
        assert_eq!(seg.records.len(), 4, "ckpt + begin + insert + commit");
        assert!(matches!(seg.records[3], WalRecord::Commit { txn: 1 }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_truncates_to_synced_prefix() {
        let dir = temp_dir("crash");
        let reg = Arc::new(Registry::new());
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, reg).unwrap();
        let lsn = wal.append_commit(1).unwrap();
        wal.wait_durable(lsn).unwrap();
        // Buffered but never flushed: no commit to trigger the flusher.
        wal.append(&WalRecord::Begin { txn: 2 }).unwrap();
        wal.append(&WalRecord::Insert {
            txn: 2,
            oid: 9,
            rect: [0.0; 4],
        })
        .unwrap();
        wal.crash();
        assert!(wal.is_crashed());
        assert!(matches!(wal.append_commit(3), Err(WalError::Crashed)));
        drop(wal);
        let seg = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(seg.records.len(), 2, "ckpt + committed txn only");
        assert_eq!(seg.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_drains_in_order_and_retires_old_segment() {
        let dir = temp_dir("rotate");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        for t in 1..=3u64 {
            wal.append(&WalRecord::Begin { txn: t }).unwrap();
            let lsn = wal.append_commit(t).unwrap();
            wal.wait_durable(lsn).unwrap();
        }
        let info = wal.rotate(&ckpt(1)).unwrap();
        assert_eq!(info.gen, 1);
        assert_eq!(wal.current_gen(), 1);
        assert_eq!(wal.bytes_since_checkpoint(), 0);
        wal.wait_durable(info.cut_lsn).unwrap();
        let lsn = {
            wal.append(&WalRecord::Begin { txn: 4 }).unwrap();
            wal.append_commit(4).unwrap()
        };
        wal.wait_durable(lsn).unwrap();
        drop(wal);
        let s0 = read_segment(&segment_path(&dir, 0)).unwrap();
        let s1 = read_segment(&segment_path(&dir, 1)).unwrap();
        assert_eq!(s0.records.len(), 7, "ckpt + 3 * (begin, commit)");
        assert_eq!(s1.records.len(), 3, "ckpt + begin + commit");
        assert!(matches!(
            s1.records[0],
            WalRecord::Checkpoint { gen: 1, .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Covers what the deleted `batch_policy_still_acks_every_commit`
    /// pinned (a waiter is never left behind an unflushed tail): a
    /// `Prepare` is not a commit record, so only `wait_durable` itself can
    /// wake the idle flusher for it. Without that wake-up this hangs.
    #[test]
    fn wait_durable_flushes_a_non_commit_record_on_an_idle_log() {
        let dir = temp_dir("prepare");
        let reg = Arc::new(Registry::new());
        let wal = Arc::new(Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::clone(&reg)).unwrap());
        let lsn = wal.append(&WalRecord::Prepare { txn: 1, gtxn: 9 }).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = Arc::clone(&wal);
        let handle = std::thread::spawn(move || tx.send(waiter.wait_durable(lsn)).unwrap());
        let res = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert!(
            matches!(res, Ok(Ok(()))),
            "wait_durable hung or failed: {res:?}"
        );
        handle.join().unwrap();
        assert!(wal.flushed_lsn() >= lsn);
        assert!(reg.ctr(Ctr::WalFsyncs) >= 1);
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn segment_len(dir: &Path, gen: u64) -> u64 {
        std::fs::metadata(segment_path(dir, gen)).unwrap().len()
    }

    fn insert(txn: u64, oid: u64) -> WalRecord {
        WalRecord::Insert {
            txn,
            oid,
            rect: [0.25, 0.25, 0.5, 0.5],
        }
    }

    #[test]
    fn small_commits_overwrite_the_first_chunk_in_place() {
        let dir = temp_dir("in-place");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        assert_eq!(segment_len(&dir, 0), CHUNK, "create fills one chunk");
        for t in 1..=100u64 {
            wal.append(&WalRecord::Begin { txn: t }).unwrap();
            wal.append(&insert(t, t)).unwrap();
            let lsn = wal.append_commit(t).unwrap();
            wal.wait_durable(lsn).unwrap();
            assert_eq!(segment_len(&dir, 0), CHUNK, "commit {t} grew the file");
        }
        drop(wal);
        let seg = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(seg.records.len(), 1 + 3 * 100);
        assert_eq!(seg.torn_bytes, 0, "the zero tail reads as the end");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_commit_crossing_a_chunk_boundary_grows_the_file_by_one_chunk() {
        let dir = temp_dir("grow");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        let mut txns = 0u64;
        loop {
            txns += 1;
            for oid in 0..100 {
                wal.append(&insert(txns, oid)).unwrap();
            }
            let lsn = wal.append_commit(txns).unwrap();
            wal.wait_durable(lsn).unwrap();
            // Generation 0's LSNs are its file offsets.
            if lsn <= CHUNK {
                assert_eq!(segment_len(&dir, 0), CHUNK, "commit {txns}");
            } else {
                assert_eq!(segment_len(&dir, 0), 2 * CHUNK, "commit {txns}");
                break;
            }
        }
        drop(wal);
        let seg = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(seg.records.len() as u64, 1 + 101 * txns);
        assert_eq!(seg.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotated_segment_is_one_chunk_after_its_first_flush() {
        let dir = temp_dir("rotate-chunk");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        let lsn = wal.append_commit(1).unwrap();
        wal.wait_durable(lsn).unwrap();
        let info = wal.rotate(&ckpt(1)).unwrap();
        wal.wait_durable(info.cut_lsn).unwrap();
        assert_eq!(segment_len(&dir, 1), CHUNK);
        drop(wal);
        let s1 = read_segment(&segment_path(&dir, 1)).unwrap();
        assert_eq!(s1.records.len(), 1, "the checkpoint record alone");
        assert_eq!(s1.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_drains_buffered_records() {
        let dir = temp_dir("drain");
        let wal = Wal::create(&dir, 0, &ckpt(0), WalConfig, Arc::new(Registry::new())).unwrap();
        // Non-commit records never notify the flusher; Drop must still
        // get them to disk.
        wal.append(&WalRecord::Begin { txn: 1 }).unwrap();
        wal.append(&WalRecord::Abort { txn: 1 }).unwrap();
        drop(wal);
        let seg = read_segment(&segment_path(&dir, 0)).unwrap();
        assert_eq!(seg.records.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
