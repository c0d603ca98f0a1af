//! The index's configuration.

use dgl_geom::Rect2;
use dgl_lockmgr::LockManagerConfig;
use dgl_rtree::RTreeConfig;

/// Which insertion policy the protocol runs (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InsertPolicy {
    /// Every inserter follows all paths overlapping the inserted object
    /// and takes short IX locks on every overlapping granule — the
    /// baseline cover-for-insert / overlap-for-search protocol of §3.3.
    /// This is what the paper's Table 2 measures the I/O overhead of.
    Base,
    /// Only inserters that *change a granule boundary* traverse overlapping
    /// paths, and only for the region the granule grew into — the paper's
    /// §3.4 "modified insertion policy" (encoded in its Table 3). With a
    /// reasonable fanout only 3–4 % of inserters pay the traversal.
    #[default]
    Modified,
}

/// Configuration for [`DglRTree`](crate::DglRTree).
#[derive(Debug, Clone)]
pub struct DglConfig {
    /// R-tree shape (fanout etc.).
    pub rtree: RTreeConfig,
    /// The embedded space `S` (granules must cover it).
    pub world: Rect2,
    /// Insertion policy.
    pub policy: InsertPolicy,
    /// Lock manager configuration. `lock.wait_timeout` is the single
    /// backstop behind deadlock detection: a wait that hits it surfaces as
    /// [`TxnError::Timeout`] (distinct from [`TxnError::Deadlock`]) with
    /// the transaction rolled back.
    ///
    /// [`TxnError::Timeout`]: crate::TxnError::Timeout
    /// [`TxnError::Deadlock`]: crate::TxnError::Deadlock
    pub lock: LockManagerConfig,
    /// Log bytes appended since the last checkpoint that trigger an
    /// automatic one, run at the end of the commit that crossed it.
    /// `None` disables auto-checkpointing; [`DglRTree::checkpoint`]
    /// remains. Only consulted by the directory-backed constructors
    /// ([`DglRTree::open`] / [`DglRTree::recover`]); purely in-memory
    /// indexes ([`DglRTree::new`]) never touch disk regardless.
    ///
    /// [`DglRTree::checkpoint`]: crate::DglRTree::checkpoint
    /// [`DglRTree::open`]: crate::DglRTree::open
    /// [`DglRTree::recover`]: crate::DglRTree::recover
    /// [`DglRTree::new`]: crate::DglRTree::new
    pub checkpoint_threshold: Option<u64>,
    /// ABLATION: collapse every external granule onto one shared resource
    /// — the "single extra lockable granule which covers the space that is
    /// not covered by the R-tree leaf granules" design that §3.1 rejects
    /// as a hot spot. Strictly coarser than per-node external granules, so
    /// still sound; measurably less concurrent.
    pub coarse_external_granule: bool,
}

impl Default for DglConfig {
    fn default() -> Self {
        Self {
            rtree: RTreeConfig::default(),
            world: Rect2::unit(),
            policy: InsertPolicy::default(),
            lock: LockManagerConfig::default(),
            checkpoint_threshold: Some(8 << 20),
            coarse_external_granule: false,
        }
    }
}
