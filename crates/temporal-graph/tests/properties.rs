//! Property-based tests of the time algebra and graph construction.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tempo_columnar::{SparseMode, Value};
use tempo_graph::io::{load_dir, save_dir};
use tempo_graph::{AttributeSchema, GraphBuilder, Temporality, TimeDomain, TimePoint, TimeSet};

/// A scratch directory unique to this process and invocation.
fn roundtrip_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tempo_graph_prop_rt_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn timeset_pair(n: usize) -> impl Strategy<Value = (TimeSet, TimeSet)> {
    (
        proptest::collection::vec(any::<bool>(), n),
        proptest::collection::vec(any::<bool>(), n),
    )
        .prop_map(move |(a, b)| {
            (
                TimeSet::from_indices(n, a.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i)),
                TimeSet::from_indices(n, b.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i)),
            )
        })
}

proptest! {
    #[test]
    fn set_algebra((a, b) in timeset_pair(24)) {
        // commutativity
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // absorption: a ∩ (a ∪ b) = a
        prop_assert_eq!(a.intersect(&a.union(&b)), a.clone());
        // inclusion-exclusion on sizes
        prop_assert_eq!(
            a.union(&b).len() + a.intersect(&b).len(),
            a.len() + b.len()
        );
        // subset relations
        prop_assert!(a.intersect(&b).is_subset(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
    }

    #[test]
    fn interval_decomposition_roundtrips(bits in proptest::collection::vec(any::<bool>(), 1..24)) {
        let n = bits.len();
        let s = TimeSet::from_indices(
            n,
            bits.iter().enumerate().filter(|(_, &x)| x).map(|(i, _)| i),
        );
        // rebuilding from maximal intervals gives back the set
        let mut rebuilt = TimeSet::empty(n);
        for (start, end) in s.intervals() {
            rebuilt = rebuilt.union(&TimeSet::range(n, start.index(), end.index()));
        }
        prop_assert_eq!(&rebuilt, &s);
        // intervals are maximal: consecutive intervals are separated by a gap
        let ivs = s.intervals();
        for w in ivs.windows(2) {
            prop_assert!(w[0].1.index() + 1 < w[1].0.index());
        }
        // min/max agree with interval ends
        if let (Some(first), Some(last)) = (ivs.first(), ivs.last()) {
            prop_assert_eq!(s.min(), Some(first.0));
            prop_assert_eq!(s.max(), Some(last.1));
        } else {
            prop_assert!(s.is_empty());
        }
    }

    #[test]
    fn builder_presence_is_union_of_sources(
        presence in proptest::collection::vec(0usize..6, 0..10),
        edges in proptest::collection::vec((0usize..4, 0usize..4, 0usize..6), 0..10),
    ) {
        let mut schema = AttributeSchema::new();
        schema.declare("kind", Temporality::Static).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(6), schema);
        let nodes: Vec<_> = (0..4).map(|i| b.add_node(&format!("n{i}")).unwrap()).collect();
        let mut expected = [[false; 6]; 4];
        for (i, &t) in presence.iter().enumerate() {
            let n = i % 4;
            b.set_presence(nodes[n], TimePoint(t as u32)).unwrap();
            expected[n][t] = true;
        }
        for &(u, v, t) in &edges {
            if u == v {
                continue;
            }
            b.add_edge_at(nodes[u], nodes[v], TimePoint(t as u32)).unwrap();
            expected[u][t] = true;
            expected[v][t] = true;
        }
        let g = b.build().unwrap();
        for (i, &n) in nodes.iter().enumerate() {
            for (t, &want) in expected[i].iter().enumerate() {
                prop_assert_eq!(
                    g.node_alive_at(n, TimePoint(t as u32)),
                    want,
                    "node {} at t{}", i, t
                );
            }
        }
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn save_load_roundtrip_with_values_and_labels(
        presence in proptest::collection::vec((0usize..4, 0usize..5), 0..14),
        edges in proptest::collection::vec((0usize..4, 0usize..4, 0usize..5, 1i64..50), 0..14),
        roles in proptest::collection::vec((0usize..4, 0usize..5, 0usize..3), 0..14),
        loads in proptest::collection::vec((0usize..4, 0usize..5, -3i64..4), 0..14),
    ) {
        // Random graphs with categorical and integer static attributes,
        // time-varying attributes holding `Cat`, `Str` and `Int` cells, and
        // integer and string edge values must survive save_dir → load_dir
        // cell for cell (modulo category re-interning: a label comes back as
        // a category of the same name), under either column layout. Beside
        // the builder runs a naive presence grid per side, recorded from the
        // same calls, that the built graph must read back.
        let mut schema = AttributeSchema::new();
        schema.declare("team", Temporality::Static).unwrap();
        schema.declare("level", Temporality::Static).unwrap();
        schema.declare("role", Temporality::TimeVarying).unwrap();
        schema.declare("load", Temporality::TimeVarying).unwrap();
        let mut b = GraphBuilder::new(TimeDomain::indexed(5), schema);
        let ids = ["team", "level", "role", "load"].map(|a| b.schema().id(a).unwrap());
        let [team, level, role, load] = ids;
        let nodes: Vec<_> = (0..4).map(|i| b.add_node(&format!("n{i}")).unwrap()).collect();
        for (i, &n) in nodes.iter().enumerate() {
            let v = b.intern_category(team, ["red", "blue"][i % 2]);
            b.set_static(n, team, v).unwrap();
            if i > 0 {
                b.set_static(n, level, Value::Int(i as i64 % 2)).unwrap();
            }
        }
        let mut node_grid = vec![vec![false; 5]; 4];
        let mut edge_grid: BTreeMap<(usize, usize), Vec<bool>> = BTreeMap::new();
        for &(n, t) in &presence {
            b.set_presence(nodes[n], TimePoint(t as u32)).unwrap();
            node_grid[n][t] = true;
        }
        for &(u, v, t, w) in &edges {
            if u == v {
                continue;
            }
            // implies edge + endpoint presence at t
            let value = if w % 5 == 0 { Value::Str(format!("w{w}")) } else { Value::Int(w) };
            b.set_edge_value(nodes[u], nodes[v], TimePoint(t as u32), value).unwrap();
            edge_grid.entry((u, v)).or_insert_with(|| vec![false; 5])[t] = true;
            node_grid[u][t] = true;
            node_grid[v][t] = true;
        }
        for &(n, t, r) in &roles {
            // a category where r is even, a bare string where it is odd
            let label = ["dev", "ops", "qa"][r];
            let v = if r % 2 == 0 { b.intern_category(role, label) } else { Value::from(label) };
            // implies node presence at t
            b.set_time_varying(nodes[n], role, TimePoint(t as u32), v).unwrap();
            node_grid[n][t] = true;
        }
        for &(n, t, l) in &loads {
            b.set_time_varying(nodes[n], load, TimePoint(t as u32), Value::Int(l)).unwrap();
            node_grid[n][t] = true;
        }
        let built = b.build().unwrap();

        for mode in [SparseMode::ForceDense, SparseMode::ForceSparse] {
            let mut g = built.clone();
            g.set_sparse_mode(mode);
            prop_assert_eq!(g.n_edges(), edge_grid.len());
            for t in g.domain().iter() {
                for (n, row) in nodes.iter().zip(&node_grid) {
                    prop_assert_eq!(g.node_alive_at(*n, t), row[t.index()], "{:?} {:?} at {:?}", mode, n, t);
                }
                for (&(u, v), row) in &edge_grid {
                    let e = g.edge_between(nodes[u], nodes[v]).expect("recorded edge exists");
                    prop_assert_eq!(g.edge_alive_at(e, t), row[t.index()], "{:?} n{}->n{} at {:?}", mode, u, v, t);
                }
                prop_assert_eq!(g.nodes_at(t), node_grid.iter().filter(|row| row[t.index()]).count());
                prop_assert_eq!(g.edges_at(t), edge_grid.values().filter(|row| row[t.index()]).count());
            }

            let dir = roundtrip_dir();
            save_dir(&g, &dir).unwrap();
            let h = load_dir(&dir).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();

            prop_assert_eq!(h.n_nodes(), g.n_nodes());
            prop_assert_eq!(h.n_edges(), g.n_edges());
            prop_assert_eq!(h.domain().labels(), g.domain().labels());
            prop_assert!(h.validate().is_ok());
            for n in g.node_ids() {
                let hn = h.node_id(g.node_name(n)).expect("node survives");
                prop_assert_eq!(
                    h.node_timestamp(hn).iter().collect::<Vec<_>>(),
                    g.node_timestamp(n).iter().collect::<Vec<_>>(),
                    "presence of {}", g.node_name(n)
                );
                for t in g.domain().iter() {
                    // categorical values compare by rendered label (codes are
                    // re-interned on load)
                    for a in ids {
                        let ha = h.schema().id(g.schema().def(a).name()).unwrap();
                        prop_assert_eq!(
                            h.schema().def(ha).render(&h.attr_value(hn, ha, t)),
                            g.schema().def(a).render(&g.attr_value(n, a, t)),
                            "{} of {} at {:?}", g.schema().def(a).name(), g.node_name(n), t
                        );
                    }
                    prop_assert_eq!(h.attr_value(hn, load, t), g.attr_value(n, load, t));
                }
            }
            prop_assert_eq!(h.has_edge_values(), g.has_edge_values());
            for e in g.edge_ids() {
                let (u, v) = g.edge_endpoints(e);
                let hu = h.node_id(g.node_name(u)).unwrap();
                let hv = h.node_id(g.node_name(v)).unwrap();
                let he = h.edge_between(hu, hv).expect("edge survives");
                prop_assert_eq!(
                    h.edge_timestamp(he).iter().collect::<Vec<_>>(),
                    g.edge_timestamp(e).iter().collect::<Vec<_>>()
                );
                for t in g.domain().iter() {
                    prop_assert_eq!(
                        h.edge_value(he, t),
                        g.edge_value(e, t),
                        "edge value ({}, {}) at {:?}", g.node_name(u), g.node_name(v), t
                    );
                }
            }
        }
    }
}
