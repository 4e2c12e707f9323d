//! Reproduction harness for every table and figure in the paper's evaluation.
//!
//! Each `figNN`/`tableN` function regenerates one artifact as plain data rows
//! (all `serde`-serialisable); [`render`] pretty-prints them and the `repro`
//! binary writes CSV/JSON under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod figures;
pub mod insights;
pub mod render;
pub mod sweep;
pub mod tables;

pub use common::{default_suite, EvalPoint, SEED};
