//! Reproduction package for *GraphTempo: An aggregation framework for
//! evolving graphs* (EDBT 2023).
//!
//! This crate re-exports the workspace's public surface as a prelude so the
//! examples and integration tests read like downstream user code:
//!
//! * [`tempo_columnar`] — the labeled-array columnar substrate (§4 storage),
//! * [`tempo_graph`] — the temporal attributed graph model (Definition 2.1),
//! * [`graphtempo`] — operators, aggregation, evolution, materialization
//!   and exploration (the paper's contribution),
//! * [`tempo_datagen`] — synthetic datasets calibrated to the paper's
//!   evaluation (Tables 3 and 4).

// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
// DESIGN §7.1: output belongs to the CLI and the bench binaries
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub use graphtempo;
pub use tempo_columnar;
pub use tempo_datagen;
pub use tempo_graph;

/// Convenience prelude used by the examples and integration tests.
pub mod prelude {
    pub use graphtempo::{
        aggregate::{aggregate, rollup, AggMode, AggregateGraph},
        cube::{GraphCube, Level},
        evolution::{evolution_aggregate, EvolutionClass, EvolutionGraph},
        explore::{
            explore, explore_naive, solve_problem, suggest_k, ExploreConfig, ExtendSide,
            ProblemReport, Selector, Semantics, ThresholdStat,
        },
        export::{aggregate_to_dot, evolution_to_dot},
        materialize::TimepointStore,
        measures::{aggregate_measure, EdgeMeasure, MeasureAggregate, NodeMeasure},
        ops::{
            difference, event_graph, intersection, project, project_point, union, Event, SideTest,
        },
        zoom::{zoom_out, Granularity},
    };
    pub use tempo_columnar::{Frame, Value};
    pub use tempo_datagen::{DblpConfig, MovieLensConfig, RandomGraphConfig, SchoolConfig};
    pub use tempo_graph::{
        AttrId, AttributeSchema, GraphBuilder, GraphStats, GraphVersions, TemporalGraph,
        Temporality, TimeDomain, TimePoint, TimeSet, TimepointPatch,
    };
}
