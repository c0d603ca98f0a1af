//! Paged node storage with I/O accounting.
//!
//! The ICDE-98 paper evaluates its protocol in terms of *disk page
//! accesses* (Table 2). To count them without real disks, this crate
//! provides:
//!
//! * [`PageId`] — the physical page identifier. Crucially, the paper uses
//!   page ids as lock *resource ids* ("a logical range can be easily
//!   transferred into a sequence of purely physical locks"), so the same
//!   type flows into the lock manager.
//! * [`Store`] — a slotted in-memory page store with stable ids, free-list
//!   reuse, and per-access accounting.
//! * [`IoStats`] — logical-read, write and allocation counters of a
//!   store.
//!
//! Serialization is not this crate's business: `dgl-rtree`'s tree image
//! writes a store's slots ([`Store::slots`]) and rebuilds them with
//! [`Store::from_slots`], page ids intact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod stats;
mod store;

pub use stats::{IoStats, StatsSnapshot};
pub use store::{PageId, Store};
