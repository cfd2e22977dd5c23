//! Snapshot metrics of an evolving graph.
//!
//! Quantifies the cross-snapshot structure the paper's evolution events
//! measure qualitatively: per-timepoint density, and node/edge overlap
//! (Jaccard similarity) between time points — the "turnover" Fig. 13's
//! discussion attributes to MovieLens.

use crate::graph::TemporalGraph;
use crate::time::TimePoint;
use tempo_columnar::PresenceColumns;

/// Density of the snapshot at `t`: edges over ordered node pairs
/// (directed, no self-loops). Zero for fewer than two nodes.
pub fn density_at(g: &TemporalGraph, t: TimePoint) -> f64 {
    let n = g.nodes_at(t);
    if n < 2 {
        return 0.0;
    }
    g.edges_at(t) as f64 / (n * (n - 1)) as f64
}

/// Average (out+in) degree of the snapshot at `t`.
pub fn avg_degree_at(g: &TemporalGraph, t: TimePoint) -> f64 {
    let n = g.nodes_at(t);
    if n == 0 {
        return 0.0;
    }
    2.0 * g.edges_at(t) as f64 / n as f64
}

/// Jaccard similarity of the node sets of two time points:
/// |alive(t1) ∩ alive(t2)| / |alive(t1) ∪ alive(t2)|.
pub fn node_jaccard(g: &TemporalGraph, t1: TimePoint, t2: TimePoint) -> f64 {
    column_jaccard(g.node_presence_columns(), t1, t2)
}

/// Jaccard similarity of the edge sets of two time points.
pub fn edge_jaccard(g: &TemporalGraph, t1: TimePoint, t2: TimePoint) -> f64 {
    column_jaccard(g.edge_presence_columns(), t1, t2)
}

/// Jaccard similarity of two presence columns, from three popcounts:
/// |A ∩ B| word by word, and |A ∪ B| = |A| + |B| − |A ∩ B|.
fn column_jaccard(cols: &PresenceColumns, t1: TimePoint, t2: TimePoint) -> f64 {
    let (a, b) = (cols.col(t1.index()), cols.col(t2.index()));
    let both = a.count_ones_and(b);
    let either = a.count_ones() + b.count_ones() - both;
    if either == 0 {
        0.0
    } else {
        both as f64 / either as f64
    }
}

/// Per-consecutive-pair overlap profile of the whole graph:
/// `(node_jaccard, edge_jaccard)` for each `(tᵢ, tᵢ₊₁)`.
pub fn turnover_profile(g: &TemporalGraph) -> Vec<(f64, f64)> {
    (0..g.domain().len().saturating_sub(1))
        .map(|i| {
            let (a, b) = (TimePoint(i as u32), TimePoint((i + 1) as u32));
            (node_jaccard(g, a, b), edge_jaccard(g, a, b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;

    #[test]
    fn fig1_density_and_degree() {
        let g = fig1();
        // t0: 4 nodes, 3 edges → density 3/12
        assert!((density_at(&g, TimePoint(0)) - 0.25).abs() < 1e-9);
        assert!((avg_degree_at(&g, TimePoint(0)) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn fig1_jaccard() {
        let g = fig1();
        // nodes t0={u1..u4}, t1={u1,u2,u4} → 3/4
        assert!((node_jaccard(&g, TimePoint(0), TimePoint(1)) - 0.75).abs() < 1e-9);
        // edges t0={12,32,42}, t1={12,42} → 2/3
        assert!((edge_jaccard(&g, TimePoint(0), TimePoint(1)) - 2.0 / 3.0).abs() < 1e-9);
        let profile = turnover_profile(&g);
        assert_eq!(profile.len(), 2);
        assert!((profile[0].0 - 0.75).abs() < 1e-9);
    }

    #[test]
    fn degenerate_cases() {
        use crate::attrs::AttributeSchema;
        use crate::builder::GraphBuilder;
        use crate::time::TimeDomain;
        let mut b = GraphBuilder::new(TimeDomain::indexed(2), AttributeSchema::new());
        let u = b.add_node("u").unwrap();
        b.set_presence(u, TimePoint(0)).unwrap();
        let g = b.build().unwrap();
        assert_eq!(density_at(&g, TimePoint(0)), 0.0); // one node
        assert_eq!(density_at(&g, TimePoint(1)), 0.0); // empty snapshot
        assert_eq!(avg_degree_at(&g, TimePoint(1)), 0.0);
        assert_eq!(node_jaccard(&g, TimePoint(0), TimePoint(1)), 0.0);
        assert_eq!(edge_jaccard(&g, TimePoint(0), TimePoint(1)), 0.0);
    }

    #[test]
    fn jaccard_symmetric_and_bounded() {
        let g = fig1();
        for i in 0..3u32 {
            for j in 0..3u32 {
                let a = node_jaccard(&g, TimePoint(i), TimePoint(j));
                let b = node_jaccard(&g, TimePoint(j), TimePoint(i));
                assert!((a - b).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&a));
                if i == j {
                    assert!((a - 1.0).abs() < 1e-12);
                }
            }
        }
    }
}
