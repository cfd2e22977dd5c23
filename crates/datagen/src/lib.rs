//! # tempo-datagen
//!
//! Deterministic synthetic dataset generators for the GraphTempo
//! reproduction.
//!
//! The paper evaluates on two real datasets we cannot redistribute: a DBLP
//! collaboration graph (21 years, Table 3) and a MovieLens co-rating graph
//! (6 months, Table 4). [`DblpConfig`] and [`MovieLensConfig`] generate
//! graphs matching those tables' per-timepoint node/edge counts (exactly at
//! `scale = 1.0`), the published attribute schemas and cardinalities, and
//! realistic cross-snapshot persistence — preserving what the experiments
//! measure: array sizes, aggregate-domain sizes, and snapshot overlap.
//!
//! [`SchoolConfig`] builds the primary-school contact network of the
//! paper's epidemic-mitigation motivating scenario, and
//! [`RandomGraphConfig`] a fully parameterized evolving graph for tests.
//!
//! ```
//! use tempo_datagen::DblpConfig;
//!
//! let g = DblpConfig::scaled(0.01).generate().unwrap();
//! assert_eq!(g.domain().len(), 21);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod common;
mod dblp;
mod movielens;
mod random;
mod school;
pub mod tables;

pub use dblp::DblpConfig;
pub use movielens::{MovieLensConfig, AGE_GROUPS, OCCUPATIONS, RATING_BUCKETS};
pub use random::RandomGraphConfig;
pub use school::SchoolConfig;
