//! The repo's benchmark: four workloads against an in-process
//! `tempo-server`, end-to-end metrics at the client, and a per-layer
//! ledger timed from outside the program. See `README.md`.

#![warn(missing_docs)]

pub mod check;
pub mod client;
pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
