//! Partial materialization (§4.3).
//!
//! Materializing every combination of attributes × interval is unrealistic,
//! so GraphTempo precomputes only aggregates on the *unit of time* and on
//! the *full attribute set*, and derives coarser aggregates from them:
//!
//! * **T-distributivity** — the ALL-aggregate of a union graph over any
//!   scope is the pointwise sum of per-timepoint ALL-aggregates
//!   ([`TimepointStore::union_all`]). Distinct union aggregates are *not*
//!   T-distributive (distinct nodes must be identified across points).
//! * **D-distributivity** — the aggregate on a subset of attributes is a
//!   roll-up of the finer aggregate ([`crate::aggregate::rollup`]).
//!
//! The store is the paper's §4.3 as a library and what Fig. 10/11 measure;
//! each of its points is one [`GroupTable::aggregate_union`] walk over the
//! snapshot's cached group ids, the same evaluation the served `cube`
//! command runs directly at the requested level and scope.

use crate::aggregate::{AggMode, AggregateGraph, GroupTable};
use tempo_graph::{AttrId, GraphError, TemporalGraph, TimePoint, TimeSet};

/// Computes the ALL-aggregate of the single time point `t` directly from
/// the source graph (equivalent to aggregating the projection on `t`, but
/// without materializing it).
///
/// # Panics
/// Panics if `t` is outside `g`'s time domain or an id is not from `g`'s
/// schema.
pub fn aggregate_at_point(g: &TemporalGraph, attrs: &[AttrId], t: TimePoint) -> AggregateGraph {
    let point = TimeSet::point(g.domain().len(), t);
    GroupTable::cached(g, attrs).aggregate_union(g, &point, AggMode::All)
}

/// Precomputed per-timepoint ALL-aggregates on a fixed attribute set.
///
/// ```
/// use graphtempo::materialize::TimepointStore;
/// use graphtempo::aggregate::{aggregate, AggMode};
/// use graphtempo::ops::union;
/// use tempo_graph::{fixtures::fig1, TimePoint, TimeSet};
///
/// let g = fig1();
/// let gender = g.schema().id("gender").unwrap();
/// let store = TimepointStore::build(&g, &[gender]);
///
/// // T-distributivity: combining per-timepoint aggregates equals the
/// // from-scratch ALL aggregation of the union graph.
/// let t1 = TimeSet::point(3, TimePoint(0));
/// let t2 = TimeSet::range(3, 1, 2);
/// let fast = store.union_all(&t1.union(&t2)).unwrap();
/// let direct = aggregate(&union(&g, &t1, &t2).unwrap(), &[gender], AggMode::All);
/// assert_eq!(fast, direct);
/// ```
#[derive(Clone, Debug)]
pub struct TimepointStore {
    attrs: Vec<AttrId>,
    per_tp: Vec<AggregateGraph>,
}

impl TimepointStore {
    /// Builds the store: one aggregate per time point of `g`'s domain.
    pub fn build(g: &TemporalGraph, attrs: &[AttrId]) -> Self {
        let _span = tempo_instrument::metrics::MATERIALIZE_STORE_BUILD_NS.span();
        let per_tp = g
            .domain()
            .iter()
            .map(|t| aggregate_at_point(g, attrs, t))
            .collect();
        TimepointStore {
            attrs: attrs.to_vec(),
            per_tp,
        }
    }

    /// The attribute ids this store aggregates on.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Incrementally appends the aggregates of the time points the graph
    /// gained since the store was built (the maintenance path when a new
    /// snapshot arrives via `GraphVersions::append_timepoint`).
    ///
    /// # Errors
    /// Returns an error if the graph has fewer time points than the store
    /// (stores never shrink).
    pub fn append_new_points(&mut self, g: &TemporalGraph) -> Result<usize, GraphError> {
        let nt = g.domain().len();
        if nt < self.per_tp.len() {
            return Err(GraphError::UnknownTimePoint(format!(
                "graph has {nt} points but the store already covers {}",
                self.per_tp.len()
            )));
        }
        let added = nt - self.per_tp.len();
        let points = (self.per_tp.len()..nt).map(|t| TimePoint(t as u32));
        (self.per_tp).extend(points.map(|t| aggregate_at_point(g, &self.attrs, t)));
        Ok(added)
    }

    /// Number of time points covered.
    pub fn len(&self) -> usize {
        self.per_tp.len()
    }

    /// True if no time points are stored (never the case for a built store).
    pub fn is_empty(&self) -> bool {
        self.per_tp.is_empty()
    }

    /// The precomputed aggregate of time point `t`.
    ///
    /// # Panics
    /// Panics if `t` is out of range.
    pub fn at(&self, t: TimePoint) -> &AggregateGraph {
        &self.per_tp[t.index()]
    }

    /// T-distributive union (§4.3): the ALL-aggregate of the union graph
    /// over `scope`, computed by summing the per-timepoint aggregates —
    /// no access to the original temporal graph.
    ///
    /// # Errors
    /// Returns an error if `scope` is empty or exceeds the stored domain.
    pub fn union_all(&self, scope: &TimeSet) -> Result<AggregateGraph, GraphError> {
        tempo_graph::require_non_empty(scope, "scope")?;
        if scope.domain_len() != self.per_tp.len() {
            return Err(GraphError::UnknownTimePoint(format!(
                "scope over domain of {} in store of {}",
                scope.domain_len(),
                self.per_tp.len()
            )));
        }
        let mut acc = AggregateGraph::new(self.per_tp[0].attr_names().to_vec());
        for t in scope.iter() {
            acc.merge_add(&self.per_tp[t.index()]);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate, AggMode as M};
    use crate::ops::union;
    use tempo_graph::fixtures::fig1;

    fn attrs(g: &TemporalGraph, names: &[&str]) -> Vec<AttrId> {
        names.iter().map(|n| g.schema().id(n).unwrap()).collect()
    }

    #[test]
    fn point_aggregate_matches_projection() {
        let g = fig1();
        let ga = attrs(&g, &["gender", "publications"]);
        for t in g.domain().iter() {
            let fast = aggregate_at_point(&g, &ga, t);
            let proj = crate::ops::project_point(&g, t).unwrap();
            let slow = aggregate(&proj, &attrs(&proj, &["gender", "publications"]), M::All);
            assert_eq!(fast, slow, "time {t:?}");
        }
    }

    #[test]
    fn union_all_is_t_distributive() {
        let g = fig1();
        let ga = attrs(&g, &["gender", "publications"]);
        let store = TimepointStore::build(&g, &ga);
        let t1 = TimeSet::from_indices(3, [0]);
        let t2 = TimeSet::from_indices(3, [1, 2]);
        let scope = t1.union(&t2);
        let fast = store.union_all(&scope).unwrap();
        let u = union(&g, &t1, &t2).unwrap();
        let direct = aggregate(&u, &attrs(&u, &["gender", "publications"]), M::All);
        assert_eq!(fast, direct);
    }

    #[test]
    fn union_all_rejects_bad_scope() {
        let g = fig1();
        let store = TimepointStore::build(&g, &attrs(&g, &["gender"]));
        assert!(store.union_all(&TimeSet::empty(3)).is_err());
        assert!(store.union_all(&TimeSet::from_indices(5, [0])).is_err());
    }

    #[test]
    fn append_new_points_matches_rebuild() {
        use tempo_graph::{GraphVersions, TimepointPatch};
        let g = fig1();
        let ga = attrs(&g, &["gender", "publications"]);
        let mut store = TimepointStore::build(&g, &ga);

        // extend the graph with a new year and a new appearance
        let pubs = g.schema().id("publications").unwrap();
        let mut patch = TimepointPatch::new("t3");
        patch
            .set_time_varying("u2", pubs, tempo_columnar::Value::Int(2))
            .add_edge("u4", "u2");
        let g2 = GraphVersions::new(g).append_timepoint(&patch).unwrap();

        let added = store.append_new_points(&g2).unwrap();
        assert_eq!(added, 1);
        assert_eq!(store.len(), 4);
        let rebuilt = TimepointStore::build(&g2, &attrs(&g2, &["gender", "publications"]));
        for t in g2.domain().iter() {
            assert_eq!(store.at(t), rebuilt.at(t), "point {t:?}");
        }
        // appending again is a no-op
        assert_eq!(store.append_new_points(&g2).unwrap(), 0);
    }

    #[test]
    fn append_rejects_shrunken_graph() {
        let g = fig1();
        let ga = attrs(&g, &["gender"]);
        let mut store = TimepointStore::build(&g, &ga);
        // a graph over a smaller domain cannot back-fill the store
        let small = crate::ops::project_point(&g, tempo_graph::TimePoint(0)).unwrap();
        // project keeps the full domain, so build a truly smaller graph
        let tiny = tempo_datagen::RandomGraphConfig {
            timepoints: 2,
            ..Default::default()
        }
        .generate()
        .unwrap();
        assert!(store.append_new_points(&tiny).is_err());
        let _ = small;
    }
}
