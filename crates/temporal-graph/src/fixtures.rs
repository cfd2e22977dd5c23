//! Shared fixtures: the paper's running example.
//!
//! The Fig. 1 collaboration graph drives the worked examples of the paper
//! (Figs. 2–4, Table 2). Node presence and the #publications values follow
//! Table 2 exactly; the collaboration edges are a faithful reconstruction
//! consistent with every weight the paper states for the aggregate and
//! evolution graphs (e.g. node `(f,1)` having DIST weight 3 / ALL weight 4
//! in the union graph of `[t0, t1]`, and stability/growth/shrinkage weights
//! 1/1/1 in the aggregated evolution graph of Fig. 4b).

use crate::attrs::{AttributeSchema, Temporality};
use crate::builder::GraphBuilder;
use crate::graph::TemporalGraph;
use crate::time::{TimeDomain, TimePoint};
use tempo_columnar::Value;

/// Builds the Fig. 1 temporal attributed graph:
///
/// * domain `{t0, t1, t2}`;
/// * five authors `u1..u5`, genders `m f f f m`;
/// * presence and #publications per Table 2;
/// * collaborations: at `t0` — `(u1,u2)`, `(u3,u2)`, `(u4,u2)`;
///   at `t1` — `(u1,u2)`, `(u4,u2)`; at `t2` — `(u5,u2)`, `(u4,u2)`.
#[allow(clippy::expect_used)] // literal data: every `expect` below names its invariant
pub fn fig1() -> TemporalGraph {
    let domain = TimeDomain::new(vec!["t0", "t1", "t2"])
        .expect("invariant: fixture labels are distinct and non-empty");
    let mut schema = AttributeSchema::new();
    let gender = schema
        .declare("gender", Temporality::Static)
        .expect("invariant: fresh schema has no name collisions");
    let pubs = schema
        .declare("publications", Temporality::TimeVarying)
        .expect("invariant: fresh schema has no name collisions");

    let mut b = GraphBuilder::new(domain, schema);
    let genders = [
        ("u1", "m"),
        ("u2", "f"),
        ("u3", "f"),
        ("u4", "f"),
        ("u5", "m"),
    ];
    for (name, gv) in genders {
        let n = b
            .add_node(name)
            .expect("invariant: fixture node names are distinct");
        let v = b.intern_category(gender, gv);
        b.set_static(n, gender, v)
            .expect("invariant: gender is declared static above");
    }

    // Table 2 publications values (None = node absent).
    let pubs_rows: [(&str, [Option<i64>; 3]); 5] = [
        ("u1", [Some(3), Some(1), None]),
        ("u2", [Some(1), Some(1), Some(1)]),
        ("u3", [Some(1), None, None]),
        ("u4", [Some(2), Some(1), Some(1)]),
        ("u5", [None, None, Some(3)]),
    ];
    for (name, values) in pubs_rows {
        let n = b.get_or_add_node(name);
        for (t, v) in values.iter().enumerate() {
            if let Some(p) = v {
                b.set_time_varying(n, pubs, TimePoint(t as u32), Value::Int(*p))
                    .expect("invariant: fixture time points lie in the 3-point domain");
            }
        }
    }

    let edges: [(&str, &str, u32); 7] = [
        ("u1", "u2", 0),
        ("u3", "u2", 0),
        ("u4", "u2", 0),
        ("u1", "u2", 1),
        ("u4", "u2", 1),
        ("u5", "u2", 2),
        ("u4", "u2", 2),
    ];
    for (u, v, t) in edges {
        let u = b.get_or_add_node(u);
        let v = b.get_or_add_node(v);
        b.add_edge_at(u, v, TimePoint(t))
            .expect("invariant: fixture nodes exist and times lie in the domain");
    }

    b.build()
        .expect("invariant: the Fig. 1 literal data is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_table2_presence() {
        let g = fig1();
        let expect = [
            ("u1", vec![0u32, 1]),
            ("u2", vec![0, 1, 2]),
            ("u3", vec![0]),
            ("u4", vec![0, 1, 2]),
            ("u5", vec![2]),
        ];
        for (name, times) in expect {
            let n = g.node_id(name).unwrap();
            assert_eq!(
                g.node_timestamp(n).iter().map(|t| t.0).collect::<Vec<_>>(),
                times,
                "presence of {name}"
            );
        }
    }

    #[test]
    fn fig1_edge_counts_per_timepoint() {
        let g = fig1();
        assert_eq!(g.edges_at(TimePoint(0)), 3);
        assert_eq!(g.edges_at(TimePoint(1)), 2);
        assert_eq!(g.edges_at(TimePoint(2)), 2);
        assert_eq!(g.n_edges(), 4); // (u1,u2), (u3,u2), (u4,u2), (u5,u2)
    }
}
