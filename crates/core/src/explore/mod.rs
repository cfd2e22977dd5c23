//! Evolution exploration (§3): find minimal / maximal interval pairs with
//! at least `k` events of stability, growth or shrinkage.
//!
//! One end of the pair is a fixed reference time point; the other is
//! extended through the union or intersection semi-lattice of consecutive
//! base intervals. Which algorithm applies follows from the monotonicity of
//! the event operator with respect to the extension (Lemmas 3.3, 3.9,
//! 3.10) — the twelve combinations are the rows of the paper's Table 1:
//!
//! | event | extend | semantics | direction | strategy |
//! |---|---|---|---|---|
//! | stability | either | ∪ | increasing | U-Explore (minimal) |
//! | stability | either | ∩ | decreasing | I-Explore (maximal) |
//! | growth | new | ∪ | increasing | U-Explore |
//! | growth | old | ∪ | decreasing | base pairs only |
//! | growth | new | ∩ | decreasing | I-Explore |
//! | growth | old | ∩ | increasing | longest-interval check |
//! | shrinkage | old | ∪ | increasing | U-Explore |
//! | shrinkage | new | ∪ | decreasing | base pairs only |
//! | shrinkage | old | ∩ | decreasing | I-Explore |
//! | shrinkage | new | ∩ | increasing | longest-interval check |
//!
//! Every strategy and the §3.5 threshold scan evaluate through one object
//! per run, the [`ChainCursor`]: it resolves the selector against the
//! snapshot's cached group table and walks the chains incrementally. The
//! oracles, [`evaluate_pair_materialized`] and [`explore_naive`], evaluate
//! each pair from a materialized event graph instead.

mod budget;
mod cursor;
mod engine;
mod naive;
mod solve;
mod threshold;

pub use budget::Budget;
pub use cursor::ChainCursor;
pub use engine::{explore, explore_budgeted, ExploreOutcome, IntervalPair};
pub use naive::{evaluate_pair_materialized, explore_naive};
pub use solve::{solve_problem, EventReport, ProblemReport};
pub use threshold::{initial_threshold, suggest_k, ThresholdStat};

use crate::aggregate::AggregateGraph;
use crate::ops::{Event, SideTest};
use tempo_columnar::{Value, ValueTuple};

/// Which side of the interval pair the exploration extends; the other side
/// is the fixed reference point.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ExtendSide {
    /// Extend 𝒯old backward in time (reference: 𝒯new).
    Old,
    /// Extend 𝒯new forward in time (reference: 𝒯old).
    New,
}

/// Semantics used to combine base intervals on the extended side (§3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Semantics {
    /// Union semi-lattice — relaxed membership, minimal pairs sought.
    Union,
    /// Intersection semi-lattice — strict membership, maximal pairs sought.
    Intersection,
}

impl Semantics {
    /// The membership test an interval under these semantics imposes.
    pub fn side_test(self) -> SideTest {
        match self {
            Semantics::Union => SideTest::Any,
            Semantics::Intersection => SideTest::All,
        }
    }
}

/// Monotonicity of `result(G)` as the extended side grows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Longer extension ⇒ result can only grow (Lemma 3.3 / 3.9 / 3.10).
    Increasing,
    /// Longer extension ⇒ result can only shrink.
    Decreasing,
}

/// The monotonicity table of §3.2–§3.4.
pub fn direction(event: Event, extend: ExtendSide, semantics: Semantics) -> Direction {
    use Direction::{Decreasing, Increasing};
    match (event, extend, semantics) {
        // Stability: both membership tests on the pair's two sides; only the
        // extended side changes, so union ⇒ more members, intersection ⇒ fewer.
        (Event::Stability, _, Semantics::Union) => Increasing,
        (Event::Stability, _, Semantics::Intersection) => Decreasing,
        // Growth = 𝒯new − 𝒯old (Lemmas 3.9 and 3.10).
        (Event::Growth, ExtendSide::New, Semantics::Union) => Increasing,
        (Event::Growth, ExtendSide::Old, Semantics::Union) => Decreasing,
        (Event::Growth, ExtendSide::New, Semantics::Intersection) => Decreasing,
        (Event::Growth, ExtendSide::Old, Semantics::Intersection) => Increasing,
        // Shrinkage = 𝒯old − 𝒯new (mirror of growth).
        (Event::Shrinkage, ExtendSide::Old, Semantics::Union) => Increasing,
        (Event::Shrinkage, ExtendSide::New, Semantics::Union) => Decreasing,
        (Event::Shrinkage, ExtendSide::Old, Semantics::Intersection) => Decreasing,
        (Event::Shrinkage, ExtendSide::New, Semantics::Intersection) => Increasing,
    }
}

/// Which entities of the event's aggregate graph count as events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Selector {
    /// Every aggregate node weight.
    AllNodes,
    /// Every aggregate edge weight.
    AllEdges,
    /// One aggregate node (attribute tuple), e.g. female authors.
    NodeTuple(ValueTuple),
    /// One aggregate edge (tuple pair), e.g. female→female collaborations.
    EdgeTuple(ValueTuple, ValueTuple),
}

impl Selector {
    /// Sums the matching weights — the paper's `result(G)`.
    pub fn count(&self, agg: &AggregateGraph) -> u64 {
        match self {
            Selector::AllNodes => agg.total_node_weight(),
            Selector::AllEdges => agg.total_edge_weight(),
            Selector::NodeTuple(t) => agg.node_weight(t),
            Selector::EdgeTuple(s, d) => agg.edge_weight(s, d),
        }
    }

    /// True if the selector concerns edges.
    pub fn is_edge(&self) -> bool {
        matches!(self, Selector::AllEdges | Selector::EdgeTuple(..))
    }

    /// Convenience constructor for a single-attribute edge selector such as
    /// the experiments' female→female relationships.
    pub fn edge_1attr(src: Value, dst: Value) -> Selector {
        Selector::EdgeTuple(vec![src], vec![dst])
    }
}

/// A fully specified exploration problem.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Event type to count.
    pub event: Event,
    /// Which side of the pair is extended.
    pub extend: ExtendSide,
    /// Semantics on the extended side (union ⇒ minimal, intersection ⇒
    /// maximal pairs).
    pub semantics: Semantics,
    /// Event-count threshold `k`.
    pub k: u64,
    /// Aggregation attributes defining the event entities.
    pub attrs: Vec<tempo_graph::AttrId>,
    /// Which aggregate entities count as events.
    pub selector: Selector,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_table_matches_lemmas() {
        use Direction::*;
        use ExtendSide::*;
        use Semantics::*;
        // Lemma 3.3
        assert_eq!(direction(Event::Stability, Old, Union), Increasing);
        assert_eq!(direction(Event::Stability, New, Intersection), Decreasing);
        // Lemma 3.9
        assert_eq!(direction(Event::Growth, Old, Union), Decreasing);
        assert_eq!(direction(Event::Growth, New, Union), Increasing);
        // Lemma 3.10
        assert_eq!(direction(Event::Growth, Old, Intersection), Increasing);
        assert_eq!(direction(Event::Growth, New, Intersection), Decreasing);
        // Shrinkage mirrors growth with the sides swapped
        assert_eq!(direction(Event::Shrinkage, Old, Union), Increasing);
        assert_eq!(direction(Event::Shrinkage, New, Union), Decreasing);
        assert_eq!(direction(Event::Shrinkage, Old, Intersection), Decreasing);
        assert_eq!(direction(Event::Shrinkage, New, Intersection), Increasing);
    }

    #[test]
    fn selector_counting() {
        let mut agg = AggregateGraph::new(vec!["gender".into()]);
        agg.add_node_weight(vec![Value::Cat(0)], 3);
        agg.add_node_weight(vec![Value::Cat(1)], 5);
        agg.add_edge_weight(vec![Value::Cat(1)], vec![Value::Cat(1)], 7);
        assert_eq!(Selector::AllNodes.count(&agg), 8);
        assert_eq!(Selector::AllEdges.count(&agg), 7);
        assert_eq!(Selector::NodeTuple(vec![Value::Cat(1)]).count(&agg), 5);
        assert_eq!(
            Selector::edge_1attr(Value::Cat(1), Value::Cat(1)).count(&agg),
            7
        );
        assert_eq!(
            Selector::edge_1attr(Value::Cat(0), Value::Cat(1)).count(&agg),
            0
        );
        assert!(Selector::AllEdges.is_edge());
        assert!(!Selector::AllNodes.is_edge());
    }
}
