//! # tempo-columnar
//!
//! A small labeled-array columnar engine: the storage substrate of the
//! GraphTempo reproduction.
//!
//! The GraphTempo paper (EDBT 2023, §4) represents a temporal attributed
//! graph with four kinds of labeled arrays:
//!
//! * **V** — one binary row per node over the time domain ([`BitMatrix`]),
//! * **E** — one binary row per edge over the time domain ([`BitMatrix`]),
//! * **S** — one row per node holding its static attribute values,
//! * **A_i** — for each time-varying attribute, one row per node and one
//!   column per time point ([`ValueMatrix`]).
//!
//! The paper's algorithms are phrased as dataframe programs (the authors'
//! implementation uses pandas/Modin): restrict arrays to interval columns,
//! *unpivot* attribute arrays, *merge*, *deduplicate*, *group by* and
//! *count*. [`Frame`] implements those primitives so the algorithms in the
//! `graphtempo` crate follow the paper line-for-line.
//!
//! ```
//! use tempo_columnar::{Frame, Value};
//!
//! let mut pubs = Frame::new(vec!["id", "t0", "t1"]).unwrap();
//! pubs.push_row(vec![Value::Str("u1".into()), Value::Int(3), Value::Int(1)]).unwrap();
//! pubs.push_row(vec![Value::Str("u2".into()), Value::Int(1), Value::Null]).unwrap();
//!
//! // Alg. 2, line 2: unpivot the attribute array
//! let long = pubs.unpivot(&["id"], "time", "publications").unwrap();
//! // Alg. 2, line 8: group by attribute value and count
//! let counts = long.group_count(&["publications"]).unwrap();
//! assert_eq!(counts.nrows(), 2); // publications value 1 and value 3
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bitset;
mod csv;
mod error;
mod frame;
mod interner;
mod matrix;
mod sparse;
mod value;

pub use bitset::{BitMatrix, BitVec, TransposedBitMatrix};
pub use csv::{read_frame, write_frame};
pub use error::ColumnarError;
pub use frame::Frame;
pub use interner::Interner;
pub use matrix::ValueMatrix;
pub use sparse::{PresenceColumn, SparseMode};
pub use value::{Value, ValueTuple};
