//! # graphtempo
//!
//! A from-scratch Rust implementation of **GraphTempo** (Tsoukanara,
//! Koloniari, Pitoura — EDBT 2023): an aggregation framework for evolving
//! graphs.
//!
//! The crate provides, over the temporal attributed graph model of
//! [`tempo_graph`]:
//!
//! * **Temporal operators** (§2.1) — [`ops::project`], [`ops::union`],
//!   [`ops::intersection`], [`ops::difference`], plus the generalized
//!   [`ops::event_graph`] parameterized by union/intersection membership
//!   semantics;
//! * **Attribute aggregation** (§2.2) — distinct (DIST) and non-distinct
//!   (ALL) weights counted from interned group ids over the scope's presence
//!   columns, no graph built: [`aggregate::GroupTable::aggregate_union`] for
//!   the union graph, [`aggregate::GroupTable::aggregate_masked`] where an
//!   [`ops::EventMask`] narrows the scope; with the tuple-hashing oracle
//!   [`aggregate::aggregate`];
//! * **Evolution graphs** (§2.3) — [`evolution::EvolutionGraph`]
//!   classification and [`evolution::evolution_aggregate`] with
//!   stability/growth/shrinkage weights;
//! * **Partial materialization** (§4.3) — [`materialize::TimepointStore`]
//!   (T-distributive union of per-timepoint aggregates) and
//!   [`aggregate::rollup`] (D-distributive attribute roll-up);
//! * **Exploration** (§3) — [`explore::explore`] implementing U-Explore,
//!   I-Explore and the monotonicity shortcuts over all twelve cases of the
//!   paper's Table 1, with the naive oracle [`explore::explore_naive`] and
//!   §3.5 threshold initialization [`explore::suggest_k`].
//!
//! ```
//! use graphtempo::aggregate::{aggregate, AggMode};
//! use graphtempo::ops::{union, project_point};
//! use tempo_graph::fixtures::fig1;
//! use tempo_graph::{TimePoint, TimeSet};
//!
//! let g = fig1(); // the paper's Fig. 1 running example
//!
//! // Union graph of [t0, t1] (Fig. 2) ...
//! let t0 = TimeSet::point(3, TimePoint(0));
//! let t1 = TimeSet::point(3, TimePoint(1));
//! let u = union(&g, &t0, &t1).unwrap();
//!
//! // ... aggregated on (gender, publications) (Figs. 3d–e).
//! let attrs = vec![
//!     u.schema().id("gender").unwrap(),
//!     u.schema().id("publications").unwrap(),
//! ];
//! let dist = aggregate(&u, &attrs, AggMode::Distinct);
//! let all = aggregate(&u, &attrs, AggMode::All);
//! assert!(all.total_node_weight() >= dist.total_node_weight());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod aggregate;
pub mod cube;
pub mod evolution;
pub mod explore;
pub mod export;
pub mod materialize;
pub mod measures;
pub mod ops;
pub mod zoom;

pub use aggregate::{AggMode, Aggregate, AggregateGraph, GroupTable};
pub use cube::{GraphCube, Level};
pub use evolution::{EvolutionAggregate, EvolutionClass, EvolutionGraph, EvolutionWeights};
pub use explore::{
    explore, explore_naive, suggest_k, Direction, ExploreConfig, ExploreOutcome, ExtendSide,
    IntervalPair, Selector, Semantics, ThresholdStat,
};
pub use measures::{aggregate_measure, EdgeMeasure, MeasureAggregate, NodeMeasure};
pub use ops::{
    difference, event_graph, event_mask, intersection, project, project_point, union, Event,
    EventMask, SideTest,
};
pub use zoom::{zoom_out, Granularity};
