//! Transaction lifecycle management.
//!
//! The paper's protocol distinguishes *operations* (each ending with the
//! release of its short-duration locks) from *transactions* (whose
//! commit-duration locks are released only at commit/rollback, after any
//! deferred physical deletions have run). This crate provides the
//! machinery around that distinction:
//!
//! * [`TxnManager`] — id allocation, the active-transaction table, and the
//!   terminal transitions (commit / abort) that release all locks through
//!   the attached lock manager. Each active transaction carries one
//!   caller-defined record (the protocol layer's undo log and log state),
//!   which the terminal transition hands back;
//! * [`CommitClock`] — the MVCC commit-timestamp counter and
//!   active-snapshot registry (shared across shards so one snapshot
//!   timestamp is consistent index-wide).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod manager;
mod snapshot;

pub use dgl_lockmgr::TxnId;
pub use manager::TxnManager;
pub use snapshot::CommitClock;
