//! Experiment harness for the ICDE-98 reproduction.
//!
//! Each experiment regenerates one quantitative artefact of the paper.
//! Speed questions belong to the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`); the last row is the one it cannot ask.
//!
//! | Paper artefact | Module |
//! |---|---|
//! | Table 2 — avg. disk accesses per insertion per level when inserters follow all overlapping paths | [`experiments::table2`] |
//! | §3.4 in-text — fraction of inserters that change a granule boundary vs fanout | [`experiments::granule_change`] |
//! | Table 4 — granular vs predicate (vs whole-tree) locking under multi-user load | [`experiments::table4`] |
//! | §2 — Z-order key-range locking vs granular locking: locks per scan, false conflicts | [`experiments::zorder`] |
//! | Design ablations — modified-vs-base insertion policy, per-node vs single external granule | [`experiments::ablation`] |
//! | (not in the paper) server throughput vs loopback connection count | [`experiments::connections`] |
//!
//! The `repro` binary runs everything and prints paper-style tables;
//! `tests/paper_tables.rs` checks the deterministic tables against the
//! blocks EXPERIMENTS.md quotes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
