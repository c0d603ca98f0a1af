//! Dynamic granular locking for phantom protection in R-trees.
//!
//! This crate is a from-scratch implementation of
//! *Chakrabarti & Mehrotra, "Dynamic Granular Locking Approach to Phantom
//! Protection in R-trees", ICDE 1998* — the first granular-locking (as
//! opposed to predicate-locking) solution to the phantom problem for
//! multidimensional access methods.
//!
//! # The protocol in one paragraph
//!
//! The embedded space is partitioned into *lockable granules*: the
//! lowest-level bounding rectangles of the R-tree (**leaf granules**, one
//! per leaf page) plus, for every non-leaf node `T`, the **external
//! granule** `ext(T) = T.space − ⋃ children(T)` — together they cover the
//! whole space and adapt to the data distribution. Each granule is locked
//! by its *page id*, so a logical region maps to a handful of cheap
//! physical locks. Searchers take commit-duration S locks on every granule
//! overlapping their predicate; inserters take a single commit-duration IX
//! lock on the granule that receives the object, plus carefully chosen
//! *short-duration* IX/SIX locks that compensate for the fact that granules
//! **grow, shrink, split and disappear** as the R-tree evolves (§3.3–§3.7
//! of the paper, summarized in its Table 3).
//!
//! # What is in this crate
//!
//! * [`DglRTree`] — the paper's protocol over `dgl-rtree`, with both the
//!   base *cover-for-insert / overlap-for-search* policy and the §3.4
//!   **modified insertion policy** ([`InsertPolicy`]).
//! * [`baseline`] — four comparators, one engine
//!   ([`baseline::Baseline`]) each over its own lock rule
//!   ([`baseline::Protocol`]): Postgres-style whole-index locking
//!   ([`baseline::TreeLockRTree`]), GiST-style predicate locking
//!   ([`baseline::PredicateRTree`], the approach of Kornacker et al. that
//!   §4/Table 4 compares against), Z-order key-range locking
//!   ([`baseline::ZOrderRTree`], the §2 straw man), and an intentionally
//!   unsound object-locks-only variant ([`baseline::ObjectOnlyRTree`])
//!   used to prove that the phantom tests can actually detect phantoms.
//! * [`TransactionalRTree`] — the common operation interface (the paper's
//!   six operations: Insert, Delete, ReadSingle, ReadScan, UpdateSingle,
//!   UpdateScan) so workloads and benchmarks run unchanged over every
//!   protocol.
//! * [`granules`] — the granule overlap computation (with per-level page
//!   access counting for the Table 2 experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod dgl;
mod error;
mod executor;
pub mod granules;
mod locks;
mod traits;

pub use dgl::{
    DglConfig, DglRTree, InsertPolicy, MvccStats, RecoverError, ShardedDglRTree, ShardedSnapshot,
    ShardingConfig, Snapshot,
};
pub use error::TxnError;
pub use executor::{ExecError, RetryPolicy, TxnExecutor};
pub use traits::{ScanHit, TransactionalRTree};

// Re-exports for downstream convenience.
pub use dgl_geom::{Rect, Rect2};
pub use dgl_lockmgr::TxnId;
pub use dgl_rtree::ObjectId;
