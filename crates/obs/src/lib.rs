//! # dgl-obs — workspace-wide observability
//!
//! One `Arc<Registry>` is shared by every subsystem (lock manager, DGL
//! read/write paths, executor, deferred maintenance, pager) and collects:
//!
//! * **Sharded counters** ([`Ctr`]) — e.g. short- vs commit-duration
//!   lock requests, the Table-2 overhead signal.
//! * **Log2-bucket latency histograms** ([`Hist`]) — lock-wait,
//!   exclusive-latch hold, plan phase, commit, deferred-deletion
//!   drain, executor backoff. Recording is a few relaxed atomics and is
//!   intended to stay on in production (measured <3% on the read-heavy
//!   contended point; see EXPERIMENTS.md).
//! * **Structured events** ([`Event`]) — lock-grant/-block/-wait
//!   evidence and operation spans ([`span!`]), compiled in only under
//!   the `full` cargo feature and buffered only while the runtime
//!   `detail` flag is set. The phantom-protection oracle asserts the
//!   paper's Table-3 discipline against this stream.
//!
//! Two exporters read a [`RegistrySnapshot`]: [`prometheus_text`] and
//! [`json_snapshot`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod event;
mod export;
mod histogram;
mod opkind;
mod registry;

pub use counter::ShardedCounter;
pub use event::{Event, Res};
pub use export::{json_snapshot, prometheus_text};
pub use histogram::{
    bucket_lower_bound, bucket_of, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS,
    SHARDS,
};
pub use opkind::{current_op_kind, op_kind_scope, OpKind, OpKindGuard};
#[cfg(feature = "full")]
pub use registry::EVENT_RING_CAPACITY;
pub use registry::{Ctr, Hist, Registry, RegistrySnapshot};
