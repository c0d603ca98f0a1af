//! The experiments, one module per artefact.

pub mod ablation;
pub mod connections;
pub mod granule_change;
pub mod table2;
pub mod table4;
pub mod zorder;
