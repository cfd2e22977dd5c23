//! # tempo-graph
//!
//! The temporal attributed graph model of *GraphTempo* (EDBT 2023,
//! Definition 2.1): a graph `G(V, E, τu, τe, A)` over a finite ordered
//! [`TimeDomain`], where every node and edge carries a timestamp — a set of
//! time points represented as a [`TimeSet`] — and nodes carry static and
//! time-varying attributes declared in an [`AttributeSchema`].
//!
//! Storage follows §4 of the paper: binary presence arrays for nodes and
//! edges (one bit column per time point), a static attribute table, and one value matrix per time-varying
//! attribute (all built on `tempo-columnar`).
//!
//! ```
//! use tempo_graph::{AttributeSchema, GraphBuilder, Temporality, TimeDomain, TimePoint};
//! use tempo_columnar::Value;
//!
//! let domain = TimeDomain::new(vec!["2020", "2021"]).unwrap();
//! let mut schema = AttributeSchema::new();
//! let gender = schema.declare("gender", Temporality::Static).unwrap();
//!
//! let mut b = GraphBuilder::new(domain, schema);
//! let alice = b.add_node("alice").unwrap();
//! let bob = b.add_node("bob").unwrap();
//! let f = b.intern_category(gender, "f");
//! b.set_static(alice, gender, f).unwrap();
//! b.add_edge_at(alice, bob, TimePoint(0)).unwrap();
//!
//! let g = b.build().unwrap();
//! assert_eq!(g.n_nodes(), 2);
//! assert!(g.node_alive_at(alice, TimePoint(0)));
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod attrs;
mod builder;
mod error;
pub mod fixtures;
mod graph;
mod groups;
pub mod io;
pub mod metrics;
mod stats;
mod time;
mod versions;

pub use attrs::{AttrDef, AttrId, AttributeSchema, Temporality};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeId, NodeId, TemporalGraph};
pub use groups::{GroupColumns, MatchColumns, MatchKey, NO_GROUP};
pub use stats::GraphStats;
pub use time::{require_non_empty, Interval, TimeDomain, TimePoint, TimeSet};
pub use versions::{GraphVersions, TimepointPatch};
