//! Session layer of the GraphTempo shell.
//!
//! The verbs (`generate`, `agg`, `explore`, `zoom`, …), their argument
//! grammar and their `help` / `usage:` text are one table,
//! [`command::COMMANDS`]; [`command::Args`] checks a request's tokens
//! against it once and [`session::Session`] runs the checked request,
//! answering a [`command::Reply`]. Two front ends drive it: the `graphtempo`
//! binary wraps [`Session::exec`] in a REPL, and `tempo-server` builds one
//! short-lived session per request over a shared `Arc<TemporalGraph>`
//! snapshot and registers the graph a reply yields.

#![warn(missing_docs)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod command;
pub mod error;
pub mod parser;
pub mod patch;
pub mod session;

pub use error::CliError;
pub use session::{QueryLimits, Session};
