//! A Guttman R-tree over a paged store, instrumented for the ICDE-98
//! dynamic granular locking protocol.
//!
//! Beyond the classic operations (insert with Guttman's quadratic node
//! split, delete with tree condensation and orphan re-insertion, range and
//! exact search), this implementation exposes what the locking protocol in
//! `dgl-core` needs:
//!
//! * **Planning** ([`RTree::plan_insert`], [`RTree::plan_delete`]): a pure
//!   read-only prediction of everything lock-relevant an operation will do
//!   — which leaf granule receives the object, whether its bounding
//!   rectangle grows (a *granule change*) and into which region, which
//!   ancestors' external granules shrink, and which nodes will split. The
//!   protocol acquires all its locks from the plan *before* any physical
//!   modification, so a conditional-lock failure can abort cleanly and
//!   retry.
//! * **Reported application** ([`RTree::apply_insert`],
//!   [`RTree::apply_delete`]): performs the mutation and reports what
//!   actually happened (split siblings, collected orphans, eliminated
//!   pages) for the post-split lock acquisitions of §3.5 of the paper.
//! * **Stable resource ids**: page ids never change meaning under an
//!   operation — a split keeps the old page id for one half, and a root
//!   split keeps the root's page id (the halves move to fresh pages), so
//!   the external granule of the root is a stable lock resource for the
//!   lifetime of the index.
//! * **Tombstones** for the paper's *logical delete*: a deleted object
//!   stays in the tree, marked, until the deleter commits and the deferred
//!   physical delete runs.
//! * **I/O accounting** via `dgl-pager`, so the Table 2 experiments can
//!   count page accesses per level.
//! * **One tree image** ([`image::encode`] / [`image::decode`]) that keeps
//!   every page on its id across a restart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod image;
mod node;
mod plan;
mod split;
mod tree;
mod validate;

pub use config::RTreeConfig;
pub use node::{Entry, Node, ObjectId};
pub use plan::{DeletePlan, InsertPlan};
pub use tree::{DeleteResult, InsertResult, Orphan, RTree, RTree2, SplitRecord};
pub use validate::ValidationError;
