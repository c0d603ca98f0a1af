//! Axis-aligned rectangle algebra for the granular-rtree project.
//!
//! This crate provides the geometric substrate for the dynamic granular
//! locking protocol of Chakrabarti & Mehrotra (ICDE 1998): n-dimensional
//! axis-aligned rectangles ([`Rect`]), points ([`Point`]), and the covering
//! algebra needed to reason about *external granules* — the part of a
//! bounding rectangle not covered by any of its children
//! (see [`coverage::covers`] and [`coverage::difference`]).
//!
//! The paper works in two dimensions; everything here is generic over the
//! dimensionality `D` with [`Rect2`] as the 2-D alias used throughout the
//! rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
mod point;
mod rect;

pub use point::Point;
pub use rect::{Rect, Rect2};
