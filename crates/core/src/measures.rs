//! Aggregate measures beyond COUNT.
//!
//! Definition 2.6 leaves the weight functions `f_V` / `f_E` open and the
//! paper notes that "other aggregations may be supported, if edges are
//! attributed as well". This module supplies them: SUM / MIN / MAX / AVG of
//! a numeric node attribute per aggregate node, and of the per-timepoint
//! edge values (see `TemporalGraph::edge_value`) per aggregate edge.
//!
//! Measures are computed over *appearances* — each (entity, time point)
//! where the entity exists contributes one observation, matching the ALL
//! counting semantics. Appearances without a numeric observation (a `Null`
//! attribute or edge value) count toward COUNT but not toward
//! SUM/MIN/MAX/AVG.

use crate::aggregate::{AggMode, Aggregate, Edges, GroupTable, Nodes, PairAccumulator};
use tempo_columnar::{Value, ValueMatrix};
use tempo_graph::{AttrId, GraphError, TemporalGraph};

/// Measure over the nodes of each aggregate group.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeMeasure {
    /// Number of appearances (= the ALL weight).
    Count,
    /// Sum of a numeric attribute over appearances.
    Sum(AttrId),
    /// Minimum observed value of a numeric attribute.
    Min(AttrId),
    /// Maximum observed value of a numeric attribute.
    Max(AttrId),
    /// Mean observed value of a numeric attribute.
    Avg(AttrId),
}

/// Measure over the edges of each aggregate group pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeMeasure {
    /// Number of edge appearances (= the ALL weight).
    Count,
    /// Sum of the edge values over appearances.
    SumValues,
    /// Minimum observed edge value.
    MinValues,
    /// Maximum observed edge value.
    MaxValues,
    /// Mean observed edge value.
    AvgValues,
}

/// Streaming accumulator for one group.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Acc {
    count: u64,
    observed: u64,
    sum: i64,
    min: i64,
    max: i64,
}

impl Acc {
    fn push(&mut self, v: Option<i64>) {
        self.count += 1;
        if let Some(x) = v {
            if self.observed == 0 {
                self.min = x;
                self.max = x;
            } else {
                self.min = self.min.min(x);
                self.max = self.max.max(x);
            }
            self.observed += 1;
            self.sum += x;
        }
    }

    /// The group's measure under `reduce`; `None` for a MIN / MAX / AVG
    /// of a group that observed no value.
    fn finish(&self, reduce: Reduce) -> Option<f64> {
        let observed = (self.observed > 0).then_some(self);
        match reduce {
            Reduce::Count => Some(self.count as f64),
            Reduce::Sum => Some(self.sum as f64),
            Reduce::Min => observed.map(|a| a.min as f64),
            Reduce::Max => observed.map(|a| a.max as f64),
            Reduce::Avg => observed.map(|a| a.sum as f64 / a.observed as f64),
        }
    }
}

/// How a group's observations reduce to its measure: the operation that
/// [`NodeMeasure`] and [`EdgeMeasure`] share.
#[derive(Clone, Copy)]
enum Reduce {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// An aggregate graph whose weights come from arbitrary measures.
pub type MeasureAggregate = Aggregate<f64>;

/// Aggregates `g` grouped by `group`, computing `node_measure` per
/// aggregate node and `edge_measure` per aggregate edge.
///
/// ```
/// use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
/// use tempo_graph::fixtures::fig1;
///
/// let g = fig1();
/// let gender = g.schema().id("gender").unwrap();
/// let pubs = g.schema().id("publications").unwrap();
/// // total publications per gender across all appearances
/// let agg = aggregate_measure(
///     &g,
///     &[gender],
///     NodeMeasure::Sum(pubs),
///     EdgeMeasure::Count,
/// )
/// .unwrap();
/// let f = g.schema().category(gender, "f").unwrap();
/// // female appearances: u2 (1,1,1) + u3 (1) + u4 (2,1,1) = 8
/// assert_eq!(agg.node(&[f]), Some(8.0));
/// ```
///
/// # Errors
/// Returns an error if an edge-value measure is requested on a graph with
/// no edge values.
pub fn aggregate_measure(
    g: &TemporalGraph,
    group: &[AttrId],
    node_measure: NodeMeasure,
    edge_measure: EdgeMeasure,
) -> Result<MeasureAggregate, GraphError> {
    let (node_reduce, measured) = match node_measure {
        NodeMeasure::Count => (Reduce::Count, None),
        NodeMeasure::Sum(a) => (Reduce::Sum, Some(a)),
        NodeMeasure::Min(a) => (Reduce::Min, Some(a)),
        NodeMeasure::Max(a) => (Reduce::Max, Some(a)),
        NodeMeasure::Avg(a) => (Reduce::Avg, Some(a)),
    };
    let edge_reduce = match edge_measure {
        EdgeMeasure::Count => Reduce::Count,
        EdgeMeasure::SumValues => Reduce::Sum,
        EdgeMeasure::MinValues => Reduce::Min,
        EdgeMeasure::MaxValues => Reduce::Max,
        EdgeMeasure::AvgValues => Reduce::Avg,
    };
    let edge_values = match edge_measure {
        EdgeMeasure::Count => None,
        _ => Some(g.edge_values_matrix().ok_or_else(|| {
            GraphError::UnknownAttribute("edge values (graph has none)".to_owned())
        })?),
    };
    // The measured attribute's code cells (and static slot), resolved once.
    let measured = match measured {
        None => None,
        Some(a) => Some(match g.schema().static_slot(a) {
            Some(slot) => (g.static_table(), Some(slot)),
            None => (g.tv_table(a)?, None),
        }),
    };
    // One number per dictionary code, built once per request; `NULL_CODE`
    // lies past the table and reads as no observation.
    let numbers =
        |m: &ValueMatrix| -> Vec<Option<i64>> { m.dict().iter().map(Value::as_int).collect() };
    let node_numbers = measured.map(|(cells, slot)| (cells, slot, numbers(cells)));
    let observe = |n: usize, t: usize| {
        let (cells, slot, numbers) = node_numbers.as_ref()?;
        *numbers.get(cells.code(n, slot.unwrap_or(t)) as usize)?
    };

    // Every appearance over the whole domain is one observation.
    let table = GroupTable::cached(g, group);
    let (domain, all) = (g.domain().all(), AggMode::All);
    let mut node_acc = vec![Acc::default(); table.n_groups()];
    let observe_node = |n, t, gid: u32| node_acc[gid as usize].push(observe(n, t));
    table.walk_all(Nodes(g), &domain, None, observe_node);

    // every node has a static group id, even one that never appears
    let observed = (0..).zip(node_acc).filter(|(_, acc)| acc.count > 0);
    let nodes = observed.filter_map(|(gid, acc)| Some((gid, acc.finish(node_reduce)?)));
    let Some(values) = edge_values else {
        // COUNT is the ALL weight
        let weights = table.edge_weights(g, &domain, None, all);
        let counts = weights.nonzero().map(|(pair, w)| (pair, w as f64));
        return Ok(MeasureAggregate::from_groups(&table, nodes, counts));
    };
    let numbers = numbers(values);
    let mut edge_acc: PairAccumulator<Acc> = PairAccumulator::new(table.n_groups());
    let observe_edge = |e, t, (s, d): (u32, u32)| {
        let obs = numbers.get(values.code(e, t) as usize).copied().flatten();
        edge_acc.slot(s, d).push(obs);
    };
    table.walk_all(Edges(g), &domain, None, observe_edge);
    let measured = edge_acc.nonzero();
    let edges = measured.filter_map(|(pair, acc)| Some((pair, acc.finish(edge_reduce)?)));
    Ok(MeasureAggregate::from_groups(&table, nodes, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::fixtures::fig1;
    use tempo_graph::{AttributeSchema, GraphBuilder, Temporality, TimeDomain, TimePoint};

    fn gender_and_pubs(g: &TemporalGraph) -> (AttrId, AttrId) {
        (
            g.schema().id("gender").unwrap(),
            g.schema().id("publications").unwrap(),
        )
    }

    #[test]
    fn count_matches_all_aggregation() {
        let g = fig1();
        let (gender, _) = gender_and_pubs(&g);
        let m = aggregate_measure(&g, &[gender], NodeMeasure::Count, EdgeMeasure::Count).unwrap();
        let all = crate::aggregate::aggregate(&g, &[gender], crate::aggregate::AggMode::All);
        for (tuple, w) in all.iter_nodes() {
            assert_eq!(m.node(tuple), Some(w as f64));
        }
        for ((s, d), w) in all.iter_edges() {
            assert_eq!(m.edge(s, d), Some(w as f64));
        }
    }

    #[test]
    fn sum_min_max_avg_of_publications() {
        let g = fig1();
        let (gender, pubs) = gender_and_pubs(&g);
        let f = g.schema().category(gender, "f").unwrap();
        let m_var = g.schema().category(gender, "m").unwrap();
        // female appearances: u2 1,1,1; u3 1; u4 2,1,1 → sum 8, min 1, max 2
        let sum =
            aggregate_measure(&g, &[gender], NodeMeasure::Sum(pubs), EdgeMeasure::Count).unwrap();
        assert_eq!(sum.node(std::slice::from_ref(&f)), Some(8.0));
        // male appearances: u1 3,1; u5 3 → sum 7
        assert_eq!(sum.node(std::slice::from_ref(&m_var)), Some(7.0));
        let min =
            aggregate_measure(&g, &[gender], NodeMeasure::Min(pubs), EdgeMeasure::Count).unwrap();
        assert_eq!(min.node(std::slice::from_ref(&f)), Some(1.0));
        let max =
            aggregate_measure(&g, &[gender], NodeMeasure::Max(pubs), EdgeMeasure::Count).unwrap();
        assert_eq!(max.node(std::slice::from_ref(&f)), Some(2.0));
        assert_eq!(max.node(std::slice::from_ref(&m_var)), Some(3.0));
        let avg =
            aggregate_measure(&g, &[gender], NodeMeasure::Avg(pubs), EdgeMeasure::Count).unwrap();
        let got = avg.node(&[f]).unwrap();
        assert!((got - 8.0 / 7.0).abs() < 1e-9, "avg {got}");
    }

    #[test]
    fn edge_value_measures() {
        let mut schema = AttributeSchema::new();
        schema.declare("kind", Temporality::Static).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), schema);
        let kind = b.schema().id("kind").unwrap();
        let u = b.add_node("u").unwrap();
        let v = b.add_node("v").unwrap();
        let w = b.add_node("w").unwrap();
        let k = b.intern_category(kind, "a");
        for n in [u, v, w] {
            b.set_static(n, kind, k.clone()).unwrap();
        }
        // co-authorship counts as edge values
        b.set_edge_value(u, v, TimePoint(0), Value::Int(2)).unwrap();
        b.set_edge_value(u, v, TimePoint(1), Value::Int(4)).unwrap();
        b.set_edge_value(u, w, TimePoint(0), Value::Int(1)).unwrap();
        let g = b.build().unwrap();

        let sum =
            aggregate_measure(&g, &[kind], NodeMeasure::Count, EdgeMeasure::SumValues).unwrap();
        assert_eq!(
            sum.edge(std::slice::from_ref(&k), std::slice::from_ref(&k)),
            Some(7.0)
        );
        let avg =
            aggregate_measure(&g, &[kind], NodeMeasure::Count, EdgeMeasure::AvgValues).unwrap();
        assert!(
            (avg.edge(std::slice::from_ref(&k), std::slice::from_ref(&k))
                .unwrap()
                - 7.0 / 3.0)
                .abs()
                < 1e-9
        );
        let max =
            aggregate_measure(&g, &[kind], NodeMeasure::Count, EdgeMeasure::MaxValues).unwrap();
        assert_eq!(
            max.edge(std::slice::from_ref(&k), std::slice::from_ref(&k)),
            Some(4.0)
        );
    }

    #[test]
    fn edge_value_measure_requires_values() {
        let g = fig1(); // fig1 has no edge values
        let gender = g.schema().id("gender").unwrap();
        assert!(
            aggregate_measure(&g, &[gender], NodeMeasure::Count, EdgeMeasure::SumValues).is_err()
        );
    }

    #[test]
    fn groups_without_observations_are_absent() {
        // min/max of a value no group member observes → group omitted
        let mut schema = AttributeSchema::new();
        schema.declare("kind", Temporality::Static).unwrap();
        schema.declare("score", Temporality::TimeVarying).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(1), schema);
        let kind = b.schema().id("kind").unwrap();
        let score = b.schema().id("score").unwrap();
        let u = b.add_node("u").unwrap();
        let k = b.intern_category(kind, "a");
        b.set_static(u, kind, k.clone()).unwrap();
        b.set_presence(u, TimePoint(0)).unwrap();
        let g = b.build().unwrap();
        // score never set → Min has no observation
        let min =
            aggregate_measure(&g, &[kind], NodeMeasure::Min(score), EdgeMeasure::Count).unwrap();
        assert_eq!(min.node(std::slice::from_ref(&k)), None);
        // but Count still sees the appearance
        let count = aggregate_measure(&g, &[kind], NodeMeasure::Count, EdgeMeasure::Count).unwrap();
        assert_eq!(count.node(std::slice::from_ref(&k)), Some(1.0));
    }
}
