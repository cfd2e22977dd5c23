//! The evolution graph (§2.3, Definition 2.7) and its aggregation.
//!
//! The evolution graph between 𝒯₁ and 𝒯₂ overlays three graphs — the
//! intersection `G∩` (stability), the difference `𝒯₁ − 𝒯₂` (shrinkage) and
//! the difference `𝒯₂ − 𝒯₁` (growth). [`EvolutionGraph`] classifies every
//! entity of the source graph accordingly.
//!
//! [`EvolutionAggregate`] reproduces Fig. 4b: for every attribute tuple it
//! carries three weights. Following the paper's worked example, weights are
//! counted at the *(entity, tuple)* granularity — node `u₄` of Fig. 1
//! contributes growth to `(f,1)` and shrinkage to `(f,2)` between `t0` and
//! `t1` because its #publications changed, even though the node itself is
//! stable.
//!
//! [`evolution_aggregate`] computes those weights on interned group ids
//! (the snapshot's cached [`GroupTable`]) in one DIST walk over 𝒯₁ ∪ 𝒯₂
//! that tags each (entity, tuple) with its sides; [`evolution_aggregate_naive`]
//! is the tuple-hashing oracle it is tested against.

use crate::aggregate::{
    Aggregate, Edges, GroupTable, NodeTimeFilter, Nodes, PairAccumulator, SIDE_1, SIDE_2,
};
use std::collections::HashMap;
use std::fmt;
use std::ops::Add;
use tempo_columnar::{BitVec, ValueTuple};
use tempo_graph::{
    require_non_empty, AttrId, EdgeId, GraphError, NodeId, TemporalGraph, TimePoint, TimeSet,
};

/// Classification of an entity in an evolution graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EvolutionClass {
    /// Present in both 𝒯₁ and 𝒯₂.
    Stability,
    /// Present in 𝒯₂ only (new entity).
    Growth,
    /// Present in 𝒯₁ only (deleted entity).
    Shrinkage,
}

/// The evolution graph `G>` of a pair of intervals: every node and edge of
/// the source graph that exists in 𝒯₁ ∪ 𝒯₂, labeled with its
/// [`EvolutionClass`]. Ids refer to the *source* graph.
#[derive(Clone, Debug)]
pub struct EvolutionGraph {
    t1: TimeSet,
    t2: TimeSet,
    nodes: Vec<(NodeId, EvolutionClass)>,
    edges: Vec<(EdgeId, EvolutionClass)>,
}

impl EvolutionGraph {
    /// Computes the evolution graph of `g` between `t1` and `t2`
    /// (Definition 2.7, with union membership semantics on each side).
    ///
    /// # Errors
    /// Returns an error if either interval is empty.
    pub fn compute(g: &TemporalGraph, t1: &TimeSet, t2: &TimeSet) -> Result<Self, GraphError> {
        require_non_empty(t1, "𝒯₁")?;
        require_non_empty(t2, "𝒯₂")?;
        let classify = |tau: &TimeSet| -> Option<EvolutionClass> {
            match (tau.intersects(t1), tau.intersects(t2)) {
                (true, true) => Some(EvolutionClass::Stability),
                (true, false) => Some(EvolutionClass::Shrinkage),
                (false, true) => Some(EvolutionClass::Growth),
                (false, false) => None,
            }
        };
        let mut nodes = Vec::new();
        for n in g.node_ids() {
            if let Some(c) = classify(&g.node_timestamp(n)) {
                nodes.push((n, c));
            }
        }
        let mut edges = Vec::new();
        for e in g.edge_ids() {
            if let Some(c) = classify(&g.edge_timestamp(e)) {
                edges.push((e, c));
            }
        }
        Ok(EvolutionGraph {
            t1: t1.clone(),
            t2: t2.clone(),
            nodes,
            edges,
        })
    }

    /// The earlier interval 𝒯₁.
    pub fn t1(&self) -> &TimeSet {
        &self.t1
    }

    /// The later interval 𝒯₂.
    pub fn t2(&self) -> &TimeSet {
        &self.t2
    }

    /// All classified nodes (source-graph ids).
    pub fn nodes(&self) -> &[(NodeId, EvolutionClass)] {
        &self.nodes
    }

    /// All classified edges (source-graph ids).
    pub fn edges(&self) -> &[(EdgeId, EvolutionClass)] {
        &self.edges
    }

    /// Number of nodes with the given class.
    pub fn count_nodes(&self, class: EvolutionClass) -> usize {
        self.nodes.iter().filter(|(_, c)| *c == class).count()
    }

    /// Number of edges with the given class.
    pub fn count_edges(&self, class: EvolutionClass) -> usize {
        self.edges.iter().filter(|(_, c)| *c == class).count()
    }
}

/// Stability / growth / shrinkage weights of one aggregate entity
/// (the three weights shown per node in Fig. 4b).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvolutionWeights {
    /// Distinct entities whose tuple appears in both intervals.
    pub stability: u64,
    /// Distinct entities whose tuple appears only in the later interval.
    pub growth: u64,
    /// Distinct entities whose tuple appears only in the earlier interval.
    pub shrinkage: u64,
}

/// The aggregated evolution graph: per attribute tuple (nodes) and tuple
/// pair (edges), the three evolution weights.
pub type EvolutionAggregate = Aggregate<EvolutionWeights>;

impl EvolutionWeights {
    /// Counts one (entity, tuple) by the sides the walk saw it on: 𝒯₂ only
    /// ([`SIDE_2`]) is growth, 𝒯₁ only ([`SIDE_1`]) shrinkage, both stability.
    fn count(&mut self, sides: u8) {
        *match sides {
            SIDE_2 => &mut self.growth,
            SIDE_1 => &mut self.shrinkage,
            _ => &mut self.stability,
        } += 1;
    }
}

impl Add for EvolutionWeights {
    type Output = EvolutionWeights;

    fn add(self, w: EvolutionWeights) -> EvolutionWeights {
        EvolutionWeights {
            stability: self.stability + w.stability,
            growth: self.growth + w.growth,
            shrinkage: self.shrinkage + w.shrinkage,
        }
    }
}

/// The weights as the `evolution` verb and the DOT export print them.
impl fmt::Display for EvolutionWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let EvolutionWeights {
            stability,
            growth,
            shrinkage,
        } = self;
        write!(f, "St={stability} Gr={growth} Shr={shrinkage}")
    }
}

/// Aggregates the evolution of `g` between `t1` and `t2` on `attrs`,
/// producing stability/growth/shrinkage weights per tuple (Fig. 4b) at the
/// (entity, tuple) granularity.
///
/// `filter` restricts which (node, time) appearances participate (Fig. 12's
/// "#Publications > 4"); an edge appearance requires both endpoints to pass.
///
/// ```
/// use graphtempo::evolution::evolution_aggregate;
/// use tempo_columnar::Value;
/// use tempo_graph::{fixtures::fig1, TimePoint, TimeSet};
///
/// let g = fig1();
/// let attrs = vec![
///     g.schema().id("gender").unwrap(),
///     g.schema().id("publications").unwrap(),
/// ];
/// let evo = evolution_aggregate(
///     &g,
///     &TimeSet::point(3, TimePoint(0)),
///     &TimeSet::point(3, TimePoint(1)),
///     &attrs,
///     None,
/// )
/// .unwrap();
/// // Fig. 4b: node (f,1) is stable on u2, grows on u4, shrinks on u3
/// let f = g.schema().category(attrs[0], "f").unwrap();
/// let w = evo.node_weight(&[f, Value::Int(1)]);
/// assert_eq!((w.stability, w.growth, w.shrinkage), (1, 1, 1));
/// ```
///
/// # Errors
/// Returns an error if either interval is empty.
pub fn evolution_aggregate(
    g: &TemporalGraph,
    t1: &TimeSet,
    t2: &TimeSet,
    attrs: &[AttrId],
    filter: Option<&NodeTimeFilter<'_>>,
) -> Result<EvolutionAggregate, GraphError> {
    require_non_empty(t1, "𝒯₁")?;
    require_non_empty(t2, "𝒯₂")?;
    let table = GroupTable::cached(g, attrs);
    let (node_cols, scope) = (g.node_presence_columns(), t1.union(t2));
    // The filter evaluated once per request: column `t` holds the nodes
    // that exist at scope point `t` and pass. A point outside the scope
    // gets an empty column, which allocates nothing: the walk reads none.
    let pass: Option<Vec<BitVec>> = filter.map(|f| {
        let passing = |t: usize| {
            let at = TimePoint(t as u32);
            if !scope.contains(at) {
                return BitVec::zeros(0);
            }
            let ones = node_cols.col(t).iter_ones();
            BitVec::from_indices(g.n_nodes(), ones.filter(|&n| f(g, NodeId(n as u32), at)))
        };
        (0..g.domain().len()).map(passing).collect()
    });
    let pass = pass.as_deref();
    // The sides an (entity, tuple) shows on are its class. The walk visits
    // what the two sides' columns show, not the Def. 2.5 event masks, which
    // also keep a deleted edge's endpoints.
    let mut nodes = vec![EvolutionWeights::default(); table.n_groups()];
    table.walk_distinct(Nodes(g), [t1, t2], None, pass, |_, gid, on| {
        nodes[gid as usize].count(on)
    });
    let mut edges = PairAccumulator::<EvolutionWeights>::new(table.n_groups());
    table.walk_distinct(Edges(g), [t1, t2], None, pass, |_, (s, d), on| {
        edges.slot(s, d).count(on)
    });

    let zero = EvolutionWeights::default();
    let shown = (0..).zip(nodes).filter(|&(_, w)| w != zero);
    Ok(Aggregate::from_groups(&table, shown, edges.nonzero()))
}

/// [`evolution_aggregate`] computed the direct way — a hash map of value
/// tuples per node and per edge, the filter called on every visit. Kept as
/// the oracle the group-id path is tested against; no served verb calls it.
///
/// # Errors
/// Returns an error if either interval is empty.
pub fn evolution_aggregate_naive(
    g: &TemporalGraph,
    t1: &TimeSet,
    t2: &TimeSet,
    attrs: &[AttrId],
    filter: Option<&NodeTimeFilter<'_>>,
) -> Result<EvolutionAggregate, GraphError> {
    require_non_empty(t1, "𝒯₁")?;
    require_non_empty(t2, "𝒯₂")?;
    let attr_names: Vec<String> = attrs
        .iter()
        .map(|&a| g.schema().def(a).name().to_owned())
        .collect();

    let passes = |n: NodeId, t: TimePoint| -> bool { filter.is_none_or(|f| f(g, n, t)) };
    let tuple_of = |n: NodeId, t: TimePoint| -> ValueTuple {
        attrs.iter().map(|&a| g.attr_value(n, a, t)).collect()
    };

    // For each node, the set of tuples it shows in each interval.
    let mut node_sets: Vec<HashMap<ValueTuple, (bool, bool)>> = Vec::with_capacity(g.n_nodes());
    for n in g.node_ids() {
        let mut tuples: HashMap<ValueTuple, (bool, bool)> = HashMap::new();
        for t in g.node_timestamp(n).iter() {
            let in1 = t1.contains(t);
            let in2 = t2.contains(t);
            if !in1 && !in2 {
                continue;
            }
            if !passes(n, t) {
                continue;
            }
            let entry = tuples.entry(tuple_of(n, t)).or_insert((false, false));
            entry.0 |= in1;
            entry.1 |= in2;
        }
        node_sets.push(tuples);
    }

    let mut out = EvolutionAggregate::new(attr_names);
    for tuples in &node_sets {
        for (tuple, &(in1, in2)) in tuples {
            let w = out.nodes.entry(tuple.clone()).or_default();
            match (in1, in2) {
                (true, true) => w.stability += 1,
                (true, false) => w.shrinkage += 1,
                (false, true) => w.growth += 1,
                (false, false) => {}
            }
        }
    }

    // Edges at the (edge, tuple-pair) granularity.
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let mut pairs: HashMap<(ValueTuple, ValueTuple), (bool, bool)> = HashMap::new();
        for t in g.edge_timestamp(e).iter() {
            let in1 = t1.contains(t);
            let in2 = t2.contains(t);
            if !in1 && !in2 {
                continue;
            }
            if !passes(u, t) || !passes(v, t) {
                continue;
            }
            let key = (tuple_of(u, t), tuple_of(v, t));
            let entry = pairs.entry(key).or_insert((false, false));
            entry.0 |= in1;
            entry.1 |= in2;
        }
        for (pair, (in1, in2)) in pairs {
            let w = out.edges.entry(pair).or_default();
            match (in1, in2) {
                (true, true) => w.stability += 1,
                (true, false) => w.shrinkage += 1,
                (false, true) => w.growth += 1,
                (false, false) => {}
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_columnar::Value;
    use tempo_graph::fixtures::fig1;

    fn ts(points: &[usize]) -> TimeSet {
        TimeSet::from_indices(3, points.iter().copied())
    }

    #[test]
    fn fig4a_classification() {
        let g = fig1();
        let evo = EvolutionGraph::compute(&g, &ts(&[0]), &ts(&[1])).unwrap();
        // nodes: u1,u2,u4 stable; u3 shrinks; u5 absent from both
        assert_eq!(evo.count_nodes(EvolutionClass::Stability), 3);
        assert_eq!(evo.count_nodes(EvolutionClass::Shrinkage), 1);
        assert_eq!(evo.count_nodes(EvolutionClass::Growth), 0);
        assert_eq!(evo.nodes().len(), 4);
        // edges: (u1,u2),(u4,u2) stable; (u3,u2) shrinks; (u5,u2) absent
        assert_eq!(evo.count_edges(EvolutionClass::Stability), 2);
        assert_eq!(evo.count_edges(EvolutionClass::Shrinkage), 1);
        assert_eq!(evo.count_edges(EvolutionClass::Growth), 0);
    }

    #[test]
    fn growth_appears_for_t1_t2() {
        let g = fig1();
        let evo = EvolutionGraph::compute(&g, &ts(&[1]), &ts(&[2])).unwrap();
        // u5 appears at t2
        assert_eq!(evo.count_nodes(EvolutionClass::Growth), 1);
        assert_eq!(evo.count_edges(EvolutionClass::Growth), 1); // (u5,u2)
                                                                // u1 disappears after t1; its edge (u1,u2) shrinks
        assert_eq!(evo.count_nodes(EvolutionClass::Shrinkage), 1);
        assert_eq!(evo.count_edges(EvolutionClass::Shrinkage), 1);
    }

    #[test]
    fn empty_interval_rejected() {
        let g = fig1();
        assert!(EvolutionGraph::compute(&g, &TimeSet::empty(3), &ts(&[1])).is_err());
        assert!(evolution_aggregate(&g, &ts(&[0]), &TimeSet::empty(3), &[], None).is_err());
    }

    #[test]
    fn fig4b_node_weights() {
        // The paper's worked example: node (f,1) between t0 and t1 has
        // stability 1 (u2), growth 1 (u4 moves from (f,2)), shrinkage 1 (u3).
        let g = fig1();
        let attrs: Vec<AttrId> = ["gender", "publications"]
            .iter()
            .map(|n| g.schema().id(n).unwrap())
            .collect();
        let evo = evolution_aggregate(&g, &ts(&[0]), &ts(&[1]), &attrs, None).unwrap();
        let f = g
            .schema()
            .category(g.schema().id("gender").unwrap(), "f")
            .unwrap();
        let m = g
            .schema()
            .category(g.schema().id("gender").unwrap(), "m")
            .unwrap();
        let w_f1 = evo.node_weight(&[f.clone(), Value::Int(1)]);
        assert_eq!(
            w_f1,
            EvolutionWeights {
                stability: 1,
                growth: 1,
                shrinkage: 1
            }
        );
        // (f,2): u4's t0 tuple disappears
        let w_f2 = evo.node_weight(&[f, Value::Int(2)]);
        assert_eq!(w_f2.shrinkage, 1);
        assert_eq!(w_f2.stability, 0);
        // (m,3): u1's t0 tuple disappears; (m,1) grows at t1
        assert_eq!(evo.node_weight(&[m.clone(), Value::Int(3)]).shrinkage, 1);
        assert_eq!(evo.node_weight(&[m, Value::Int(1)]).growth, 1);
    }

    #[test]
    fn fig4b_edge_weights() {
        let g = fig1();
        let attrs: Vec<AttrId> = ["gender", "publications"]
            .iter()
            .map(|n| g.schema().id(n).unwrap())
            .collect();
        let evo = evolution_aggregate(&g, &ts(&[0]), &ts(&[1]), &attrs, None).unwrap();
        let f = g
            .schema()
            .category(g.schema().id("gender").unwrap(), "f")
            .unwrap();
        // (f,1)->(f,1): u3->u2 shrinks at t0, u4->u2 grows at t1
        let w = evo.edge_weight(&[f.clone(), Value::Int(1)], &[f.clone(), Value::Int(1)]);
        assert_eq!(w.shrinkage, 1);
        assert_eq!(w.growth, 1);
        assert_eq!(w.stability, 0);
        // (f,2)->(f,1): u4->u2's t0 pair shrinks
        let w = evo.edge_weight(&[f.clone(), Value::Int(2)], &[f, Value::Int(1)]);
        assert_eq!(w.shrinkage, 1);
    }

    #[test]
    fn static_attrs_match_node_classification() {
        // When aggregating on a static attribute only, (entity, tuple)
        // granularity coincides with entity granularity.
        let g = fig1();
        let gender = vec![g.schema().id("gender").unwrap()];
        let evo_agg = evolution_aggregate(&g, &ts(&[0]), &ts(&[1]), &gender, None).unwrap();
        let evo = EvolutionGraph::compute(&g, &ts(&[0]), &ts(&[1])).unwrap();
        let totals = evo_agg.total_node_weight();
        assert_eq!(
            totals.stability as usize,
            evo.count_nodes(EvolutionClass::Stability)
        );
        assert_eq!(
            totals.shrinkage as usize,
            evo.count_nodes(EvolutionClass::Shrinkage)
        );
        assert_eq!(
            totals.growth as usize,
            evo.count_nodes(EvolutionClass::Growth)
        );
        let e_totals = evo_agg.total_edge_weight();
        assert_eq!(
            e_totals.stability as usize,
            evo.count_edges(EvolutionClass::Stability)
        );
    }

    #[test]
    fn group_id_path_matches_naive_on_fig1() {
        let g = fig1();
        let pubs = g.schema().id("publications").unwrap();
        let gender = g.schema().id("gender").unwrap();
        let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, pubs, t).as_int().unwrap_or(0) >= 2
        };
        let sides = [ts(&[0]), ts(&[1]), ts(&[2]), ts(&[0, 1]), ts(&[1, 2])];
        for attrs in [vec![], vec![gender], vec![pubs], vec![gender, pubs]] {
            for t1 in &sides {
                for t2 in &sides {
                    for f in [None, Some(&filter as &NodeTimeFilter<'_>)] {
                        assert_eq!(
                            evolution_aggregate(&g, t1, t2, &attrs, f).unwrap(),
                            evolution_aggregate_naive(&g, t1, t2, &attrs, f).unwrap(),
                            "attrs {attrs:?} t1 {t1:?} t2 {t2:?} filtered {}",
                            f.is_some()
                        );
                    }
                }
            }
        }
    }

    /// `u`'s tuple goes 1 → (absent) → 2 → 1; the filter drops the middle
    /// appearance, so the tuple 2 is gone and 1 is stable.
    #[test]
    fn returning_tuple_with_its_middle_filtered_out() {
        let g = tempo_testkit::returning_tuple();
        let level = tempo_testkit::level_attr(&g);
        let drop_middle = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, level, t).as_int() != Some(2)
        };
        let (t1, t2) = (TimeSet::range(4, 0, 1), TimeSet::range(4, 2, 3));
        for g in tempo_testkit::both_layouts(&g) {
            for f in [None, Some(&drop_middle as &NodeTimeFilter<'_>)] {
                let evo = evolution_aggregate(&g, &t1, &t2, &[level], f).unwrap();
                let naive = evolution_aggregate_naive(&g, &t1, &t2, &[level], f).unwrap();
                assert_eq!(evo, naive, "filtered {}", f.is_some());
                assert_eq!(evo.node_weight(&[Value::Int(1)]).stability, 1);
                // only unfiltered does u show 2, in 𝒯₂
                let grown = u64::from(f.is_none());
                assert_eq!(evo.node_weight(&[Value::Int(2)]).growth, grown);
            }
        }
    }

    #[test]
    fn filter_restricts_contributions() {
        let g = fig1();
        let pubs = g.schema().id("publications").unwrap();
        let gender = vec![g.schema().id("gender").unwrap()];
        let filter = move |gr: &TemporalGraph, n: NodeId, t: TimePoint| {
            gr.attr_value(n, pubs, t).as_int().unwrap_or(0) >= 2
        };
        let evo = evolution_aggregate(&g, &ts(&[0]), &ts(&[1]), &gender, Some(&filter)).unwrap();
        let totals = evo.total_node_weight();
        // only u1@t0 (m,3) and u4@t0 (f,2) pass; both vanish by t1
        assert_eq!(totals.stability, 0);
        assert_eq!(totals.shrinkage, 2);
        assert_eq!(totals.growth, 0);
    }
}
