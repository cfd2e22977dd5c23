//! # tempo-bench
//!
//! Experiment harness for the GraphTempo reproduction: `exp_*` binaries
//! that print the paper-style series for every table and figure (Tables
//! 3–4, Figs. 5–14) and `exp_explore`, which checks the pruned exploration
//! against the naive one. Performance claims are measured by `benchmark/`,
//! not here. See EXPERIMENTS.md at the workspace root.
//!
//! Scale is controlled by `GRAPHTEMPO_SCALE` (default 0.1); 1.0 reproduces
//! the paper's dataset sizes.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod datasets;
pub mod explore_runner;
pub mod report;
