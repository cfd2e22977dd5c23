//! Graph-OLAP cube over attribute dimensions and time (§4.3).
//!
//! Materializing every (attribute subset × interval) aggregate is
//! unrealistic; GraphTempo instead materializes the *finest* level — the
//! full attribute set at the unit of time — and derives everything else:
//!
//! * coarser attribute levels via D-distributive roll-up
//!   ([`crate::aggregate::rollup`]);
//! * coarser time via T-distributive union ([`crate::materialize`]).
//!
//! [`GraphCube`] answers any (subset, scope) OLAP query: a slice is a
//! one-point scope, and a roll-up or drill-down a query at a coarser or
//! finer [`Level`].
//! Distributivity says the finest-level store could answer it; the cube
//! evaluates the answer directly instead, as one ALL walk of the scope's
//! union graph ([`GroupTable::aggregate_union`]) at the *requested* level
//! on the snapshot's cached group ids (equal to rolling up the
//! T-distributive union of the store, and cheaper than building it — see
//! EXPERIMENTS.md, Fig. 10/11).

use crate::aggregate::{AggMode, AggregateGraph, GroupTable};
use tempo_graph::{require_non_empty, AttrId, GraphError, TemporalGraph, TimeSet};

/// A cuboid address: which attribute dimensions are kept, by name.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Level(Vec<String>);

impl Level {
    /// Creates a level from attribute names (order defines tuple order).
    pub fn new<S: Into<String>>(names: Vec<S>) -> Self {
        Level(names.into_iter().map(Into::into).collect())
    }

    /// The attribute names of this level.
    pub fn names(&self) -> &[String] {
        &self.0
    }
}

/// The OLAP cube over a graph and a dimension set (ALL semantics — the
/// T-distributive case).
///
/// ```
/// use graphtempo::cube::{GraphCube, Level};
/// use tempo_graph::{fixtures::fig1, TimePoint, TimeSet};
///
/// let g = fig1();
/// let attrs = vec![
///     g.schema().id("gender").unwrap(),
///     g.schema().id("publications").unwrap(),
/// ];
/// let cube = GraphCube::build(&g, &attrs, 1);
/// // slice t0 at the coarser (gender) level
/// let t0 = TimeSet::point(g.domain().len(), TimePoint(0));
/// let by_gender = cube.query(&Level::new(vec!["gender"]), &t0).unwrap();
/// assert_eq!(by_gender.total_node_weight(), 4); // four authors at t0
/// ```
pub struct GraphCube<'g> {
    g: &'g TemporalGraph,
    dimensions: Vec<String>,
}

impl<'g> GraphCube<'g> {
    /// The cube of `g` over all of `attrs`. Nothing is precomputed: every
    /// query reads the group ids cached on `g`.
    ///
    /// `_threads` is inert — it sized the worker pool of the per-timepoint
    /// store the cube used to build. The frozen `benchmark/src/layers.rs`
    /// passes it, so it stays until the next `[benchmark]` issue removes it
    /// together with that call.
    pub fn build(g: &'g TemporalGraph, attrs: &[AttrId], _threads: usize) -> Self {
        let dimensions = attrs
            .iter()
            .map(|&a| g.schema().def(a).name().to_owned())
            .collect();
        GraphCube { g, dimensions }
    }

    /// The aggregate over a time scope at a level (union semantics, ALL
    /// weights).
    ///
    /// # Errors
    /// Returns an error on an unknown level or an empty/mismatched scope.
    pub fn query(&self, level: &Level, scope: &TimeSet) -> Result<AggregateGraph, GraphError> {
        let ids = self.level_ids(level)?;
        require_non_empty(scope, "scope")?;
        if scope.domain_len() != self.g.domain().len() {
            return Err(GraphError::UnknownTimePoint(format!(
                "scope over domain of {} in cube of {}",
                scope.domain_len(),
                self.g.domain().len()
            )));
        }
        Ok(GroupTable::cached(self.g, &ids).aggregate_union(self.g, scope, AggMode::All))
    }

    /// The attribute ids of `level`, in its order.
    fn level_ids(&self, level: &Level) -> Result<Vec<AttrId>, GraphError> {
        level
            .names()
            .iter()
            .map(|n| {
                if self.dimensions.contains(n) {
                    self.g.schema().id(n)
                } else {
                    Err(GraphError::UnknownAttribute(n.clone()))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate, AggMode};
    use crate::ops::{project_point, union};
    use tempo_graph::fixtures::fig1;

    fn cube(g: &TemporalGraph) -> GraphCube<'_> {
        let attrs = vec![
            g.schema().id("gender").unwrap(),
            g.schema().id("publications").unwrap(),
        ];
        GraphCube::build(g, &attrs, 1)
    }

    /// Every non-empty subset of the cube's dimensions.
    fn levels() -> [Level; 3] {
        [
            Level::new(vec!["gender"]),
            Level::new(vec!["publications"]),
            Level::new(vec!["gender", "publications"]),
        ]
    }

    #[test]
    fn one_point_query_matches_direct_aggregation() {
        let g = fig1();
        let cube = cube(&g);
        for t in g.domain().iter() {
            for level in levels() {
                let scope = TimeSet::point(g.domain().len(), t);
                let from_cube = cube.query(&level, &scope).unwrap();
                let p = project_point(&g, t).unwrap();
                let ids: Vec<AttrId> = level
                    .names()
                    .iter()
                    .map(|n| p.schema().id(n).unwrap())
                    .collect();
                let direct = aggregate(&p, &ids, AggMode::All);
                assert_eq!(from_cube, direct, "level {level:?} at {t:?}");
            }
        }
    }

    #[test]
    fn query_matches_union_aggregate() {
        let g = fig1();
        let cube = cube(&g);
        let t1 = TimeSet::from_indices(3, [0]);
        let t2 = TimeSet::from_indices(3, [1, 2]);
        let scope = t1.union(&t2);
        let level = Level::new(vec!["gender"]);
        let from_cube = cube.query(&level, &scope).unwrap();
        let u = union(&g, &t1, &t2).unwrap();
        let direct = aggregate(&u, &[u.schema().id("gender").unwrap()], AggMode::All);
        assert_eq!(from_cube, direct);
    }

    #[test]
    fn unknown_level_rejected() {
        let g = fig1();
        let cube = cube(&g);
        let bad = Level::new(vec!["age"]);
        assert!(cube.query(&bad, &TimeSet::from_indices(3, [0])).is_err());
    }

    #[test]
    fn empty_scope_rejected() {
        let g = fig1();
        let cube = cube(&g);
        let base = Level::new(vec!["gender", "publications"]);
        assert!(cube.query(&base, &TimeSet::empty(3)).is_err());
    }
}
