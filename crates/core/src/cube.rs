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
//! [`GraphCube`] is the navigation over those levels — roll-up, drill-down,
//! the attribute lattice — and answers any (subset, scope) OLAP query.
//! Distributivity says the finest-level store could answer it; the cube
//! evaluates the answer directly instead, as one ALL walk of the scope's
//! union graph ([`GroupTable::aggregate_union`]) at the *requested* level
//! on the snapshot's cached group ids (equal to rolling up the
//! T-distributive union of the store, and cheaper than building it — see
//! EXPERIMENTS.md, Fig. 10/11).

use crate::aggregate::{AggMode, AggregateGraph, GroupTable};
use tempo_graph::{require_non_empty, AttrId, GraphError, TemporalGraph, TimePoint, TimeSet};

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
/// use tempo_graph::{fixtures::fig1, TimePoint};
///
/// let g = fig1();
/// let attrs = vec![
///     g.schema().id("gender").unwrap(),
///     g.schema().id("publications").unwrap(),
/// ];
/// let cube = GraphCube::build(&g, &attrs, 1);
/// // slice t0 at the coarser (gender) level
/// let by_gender = cube.slice(&Level::new(vec!["gender"]), TimePoint(0)).unwrap();
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

    /// The full dimension set (the cube's base level).
    pub fn base_level(&self) -> Level {
        Level(self.dimensions.clone())
    }

    /// The apex aggregate at one time point and one level.
    ///
    /// # Errors
    /// Returns an error if the level is not a subset of the dimensions.
    ///
    /// # Panics
    /// Panics if `t` is outside the graph's time domain.
    pub fn slice(&self, level: &Level, t: TimePoint) -> Result<AggregateGraph, GraphError> {
        self.query(level, &TimeSet::point(self.domain_len(), t))
    }

    /// The aggregate over a time scope at a level (union semantics, ALL
    /// weights).
    ///
    /// # Errors
    /// Returns an error on an unknown level or an empty/mismatched scope.
    pub fn query(&self, level: &Level, scope: &TimeSet) -> Result<AggregateGraph, GraphError> {
        let ids = self.level_ids(level)?;
        require_non_empty(scope, "scope")?;
        if scope.domain_len() != self.domain_len() {
            return Err(GraphError::UnknownTimePoint(format!(
                "scope over domain of {} in cube of {}",
                scope.domain_len(),
                self.domain_len()
            )));
        }
        Ok(GroupTable::cached(self.g, &ids).aggregate_union(self.g, scope, AggMode::All))
    }

    /// Rolls up one dimension (removes it), returning the coarser level.
    ///
    /// # Errors
    /// Returns an error if the dimension is not part of the level.
    pub fn roll_up(&self, level: &Level, drop: &str) -> Result<Level, GraphError> {
        if !level.names().iter().any(|n| n == drop) {
            return Err(GraphError::UnknownAttribute(drop.to_owned()));
        }
        Ok(Level(
            level
                .names()
                .iter()
                .filter(|n| n.as_str() != drop)
                .cloned()
                .collect(),
        ))
    }

    /// Drills down by adding one dimension back, returning the finer level.
    ///
    /// # Errors
    /// Returns an error if the dimension is unknown or already present.
    pub fn drill_down(&self, level: &Level, add: &str) -> Result<Level, GraphError> {
        if !self.dimensions.iter().any(|n| n == add) {
            return Err(GraphError::UnknownAttribute(add.to_owned()));
        }
        if level.names().iter().any(|n| n == add) {
            return Err(GraphError::DuplicateAttribute(add.to_owned()));
        }
        let mut names = level.names().to_vec();
        names.push(add.to_owned());
        Ok(Level(names))
    }

    /// Every level of the attribute lattice (all non-empty subsets of the
    /// dimensions, in declaration order within each subset).
    pub fn all_levels(&self) -> Vec<Level> {
        let k = self.dimensions.len();
        let mut out = Vec::new();
        for mask in 1u32..(1 << k) {
            let names: Vec<String> = (0..k)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| self.dimensions[i].clone())
                .collect();
            out.push(Level(names));
        }
        out
    }

    /// Size of the underlying time domain.
    pub fn domain_len(&self) -> usize {
        self.g.domain().len()
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

    #[test]
    fn levels_and_lattice() {
        let g = fig1();
        let cube = cube(&g);
        assert_eq!(cube.base_level().names(), &["gender", "publications"]);
        let levels = cube.all_levels();
        assert_eq!(levels.len(), 3); // {G}, {P}, {G,P}
    }

    #[test]
    fn slice_matches_direct_aggregation() {
        let g = fig1();
        let cube = cube(&g);
        for t in g.domain().iter() {
            for level in cube.all_levels() {
                let from_cube = cube.slice(&level, t).unwrap();
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
    fn rollup_drilldown_navigation() {
        let g = fig1();
        let cube = cube(&g);
        let base = cube.base_level();
        let coarse = cube.roll_up(&base, "publications").unwrap();
        assert_eq!(coarse.names(), &["gender"]);
        let fine = cube.drill_down(&coarse, "publications").unwrap();
        assert_eq!(fine.names(), &["gender", "publications"]);
        assert!(cube.roll_up(&coarse, "publications").is_err());
        assert!(cube.drill_down(&base, "publications").is_err());
        assert!(cube.drill_down(&base, "nope").is_err());
    }

    #[test]
    fn unknown_level_rejected() {
        let g = fig1();
        let cube = cube(&g);
        let bad = Level::new(vec!["age"]);
        assert!(cube.slice(&bad, TimePoint(0)).is_err());
        assert!(cube.query(&bad, &TimeSet::from_indices(3, [0])).is_err());
    }

    #[test]
    fn empty_scope_rejected() {
        let g = fig1();
        let cube = cube(&g);
        assert!(cube.query(&cube.base_level(), &TimeSet::empty(3)).is_err());
    }
}
