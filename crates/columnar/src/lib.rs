//! # tempo-columnar
//!
//! A small labeled-array columnar engine: the storage substrate of the
//! GraphTempo reproduction.
//!
//! The GraphTempo paper (EDBT 2023, §4) represents a temporal attributed
//! graph with four kinds of labeled arrays:
//!
//! * **V** — one binary column per time point over the nodes
//!   ([`PresenceColumns`]),
//! * **E** — one binary column per time point over the edges
//!   ([`PresenceColumns`]),
//! * **S** — one row per node holding its static attribute values,
//! * **A_i** — for each time-varying attribute, one row per node and one
//!   column per time point ([`ValueMatrix`]).
//!
//! The presence arrays are bit-packed (a [`PresenceColumns`] list of hybrid
//! dense/sparse [`PresenceColumn`]s, masks as [`BitVec`]s) because every
//! temporal operator and every aggregation of the `graphtempo` crate is a
//! mask over them.
//! [`Frame`] is the row container the arrays are written to and read from
//! disk as (one delimited text file each).
//!
//! ```
//! use tempo_columnar::{Frame, Value};
//!
//! let mut pubs = Frame::new(vec!["id", "t0", "t1"]).unwrap();
//! pubs.push_row(vec![Value::Str("u1".into()), Value::Int(3), Value::Int(1)]).unwrap();
//! pubs.push_row(vec![Value::Str("u2".into()), Value::Int(1), Value::Null]).unwrap();
//! assert_eq!(pubs.get(1, "t0").unwrap(), &Value::Int(1));
//! assert!(pubs.get(1, "t1").unwrap().is_null());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod bitset;
mod csv;
mod error;
mod frame;
mod interner;
mod matrix;
mod sparse;
mod value;

pub use bitset::{word_ones, BitVec};
pub use csv::{read_frame, write_frame};
pub use error::ColumnarError;
pub use frame::Frame;
pub use interner::Interner;
pub use matrix::{ValueMatrix, NULL_CODE};
pub use sparse::{BlockWords, PresenceColumn, PresenceColumns, SparseMode};
pub use value::{Value, ValueTuple};
