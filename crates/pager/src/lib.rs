//! Paged node storage with I/O accounting, and Table 2's buffer-pool model.
//!
//! The ICDE-98 paper evaluates its protocol in terms of *disk page
//! accesses* (Table 2) and argues, via the five-minute rule, that the top
//! levels of the R-tree stay buffer-resident. To reproduce those numbers
//! without real disks, this crate provides:
//!
//! * [`PageId`] — the physical page identifier. Crucially, the paper uses
//!   page ids as lock *resource ids* ("a logical range can be easily
//!   transferred into a sequence of purely physical locks"), so the same
//!   type flows into the lock manager.
//! * [`Store`] — a slotted in-memory page store with stable ids, free-list
//!   reuse, and per-access accounting.
//! * [`IoStats`] — logical-read, write and allocation counters of a
//!   store.
//! * [`BufferPool`] — a stand-alone LRU residency model of configurable
//!   capacity. No store embeds it: its one consumer is the Table 2
//!   experiment, which replays each insert's page accesses through a pool
//!   sized to the tree's top levels to classify them as buffer hits or
//!   simulated disk reads.
//!
//! Serialization is not this crate's business: `dgl-rtree`'s tree image
//! writes a store's slots ([`Store::slots`]) and rebuilds them with
//! [`Store::from_slots`], page ids intact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lru;
mod stats;
mod store;

pub use lru::BufferPool;
pub use stats::{IoStats, StatsSnapshot};
pub use store::{PageId, Store};
