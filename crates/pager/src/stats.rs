use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dgl_obs::{Ctr, Registry};

/// Page reads are mirrored into the observability registry once per this
/// many local reads (power of two). Writes are rare enough to mirror
/// exactly.
const OBS_READ_BATCH: u64 = 64;

/// I/O accounting for a page store.
///
/// Logical reads are counted with relaxed atomics so read paths stay
/// cheap. Whether a read would have hit a buffer is not this type's
/// question. Experiments that need per-phase numbers take a
/// [`StatsSnapshot`] before and after and subtract.
#[derive(Debug)]
pub struct IoStats {
    logical_reads: AtomicU64,
    writes: AtomicU64,
    allocations: AtomicU64,
    /// Workspace observability registry, attached (at most once) by the
    /// index that owns this store. Writes mirror into its `page_writes`
    /// counter exactly; reads mirror into `page_reads` in batches of
    /// [`OBS_READ_BATCH`] (the registry lags by up to one partial batch).
    obs: OnceLock<Arc<Registry>>,
}

/// A point-in-time copy of the counters in [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total page reads issued.
    pub logical_reads: u64,
    /// Page writes (mutable accesses).
    pub writes: u64,
    /// Pages allocated.
    pub allocations: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier` (for per-phase accounting).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            logical_reads: self.logical_reads - earlier.logical_reads,
            writes: self.writes - earlier.writes,
            allocations: self.allocations - earlier.allocations,
        }
    }
}

impl IoStats {
    /// Fresh counters, no registry attached.
    pub fn new() -> Self {
        Self {
            logical_reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
            obs: OnceLock::new(),
        }
    }

    /// Attaches the workspace observability registry; later page accesses
    /// also bump its `page_reads` (batched) and `page_writes` (exact)
    /// counters. The first attachment wins — an `IoStats` reports to at
    /// most one registry.
    pub fn attach_obs(&self, obs: Arc<Registry>) {
        let _ = self.obs.set(obs);
    }

    pub(crate) fn record_read(&self) {
        // Mirror into the registry in batches of 64: the read path is the
        // hottest counter in the workspace (~20 page touches per scan), so
        // the per-read cost must stay one branch on a value we already
        // have. The registry therefore lags the local counter by up to 63
        // reads — fine for a monitoring counter.
        let prev = self.logical_reads.fetch_add(1, Ordering::Relaxed);
        if prev & (OBS_READ_BATCH - 1) == OBS_READ_BATCH - 1 {
            if let Some(obs) = self.obs.get() {
                obs.add(Ctr::PageReads, OBS_READ_BATCH);
            }
        }
    }

    pub(crate) fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = self.obs.get() {
            obs.incr(Ctr::PageWrites);
        }
    }

    pub(crate) fn record_alloc(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
        }
    }
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_is_counted() {
        let stats = IoStats::new();
        stats.record_read();
        stats.record_read();
        assert_eq!(stats.snapshot().logical_reads, 2);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let stats = IoStats::new();
        stats.record_read();
        let before = stats.snapshot();
        stats.record_read();
        stats.record_write();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.logical_reads, 1);
        assert_eq!(delta.writes, 1);
    }

    #[test]
    fn attached_registry_mirrors_reads_and_writes() {
        let stats = IoStats::new();
        let reg = Arc::new(Registry::new());
        stats.attach_obs(Arc::clone(&reg));
        // Reads mirror in batches of OBS_READ_BATCH; writes are exact.
        for _ in 0..3 * OBS_READ_BATCH + 7 {
            stats.record_read();
        }
        stats.record_write();
        let snap = reg.snapshot();
        assert_eq!(
            snap.ctr(Ctr::PageReads),
            3 * OBS_READ_BATCH,
            "registry lags the local counter by the partial batch"
        );
        assert_eq!(snap.ctr(Ctr::PageWrites), 1);
        assert_eq!(stats.snapshot().logical_reads, 3 * OBS_READ_BATCH + 7);
    }
}
