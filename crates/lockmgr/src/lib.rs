//! A standard multi-granularity lock manager.
//!
//! The ICDE-98 protocol assumes "the presence of a standard lock manager"
//! supporting (i) the five multi-granularity modes of Table 1 — `IS`, `IX`,
//! `S`, `SIX`, `X` — (ii) *conditional* and *unconditional* lock requests,
//! and (iii) *short* and *commit* lock durations. This crate provides
//! exactly that, plus what any production lock manager needs around it:
//! lock conversion (a transaction re-requesting a resource holds the
//! supremum of its modes), FIFO-fair grant queues, deadlock detection over
//! a waits-for graph (shared by the managers of one [`WaitDomain`]), a
//! waiter that reports its own long stall, and a wait timeout backstop.
//! Every request, wait and verdict is counted in the manager's
//! [`dgl_obs::Registry`]; in detail mode each grant is also an
//! [`dgl_obs::Event::LockGranted`], which the Table 3 conformance tests
//! assert against.
//!
//! Resources are named by [`ResourceId`]: a page id (leaf granule or
//! external granule — the paper's key trick is that granules map to purely
//! physical page locks), an object id, or the whole index (the Postgres-
//! style baseline).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadlock;
mod manager;
mod mode;
mod resource;

// The registry types appear in this crate's public API (`with_obs`,
// `obs()`); re-exported so dependents can name them.
pub use dgl_obs;
pub use manager::{
    obs_res, GrantEntry, LockManager, LockManagerConfig, LockOutcome, MixBuild, ResourceTableEntry,
    WaitDomain, WaitEdge, WaiterEntry, STALL_THRESHOLD,
};
pub use mode::LockMode;
pub use resource::{LockDuration, RequestKind, ResourceId, TxnId};
