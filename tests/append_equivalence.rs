//! Property test for the versioned copy-on-write snapshot layer: a graph
//! built by N successive [`GraphVersions::append_timepoint`] calls must be
//! bit-identical — presence matrices, transposed presence columns,
//! attribute values, all twelve Table-1 explore strategies, aggregation,
//! and zoom — to a graph built from scratch over the same history, at
//! **every** intermediate epoch, under both presence-column policies.
//!
//! The from-scratch reference replays the same patches through
//! [`TimepointPatch::apply_to_builder`], which interns entities in the same
//! order as the append path, so ids (and therefore raw bit layouts) line
//! up exactly.

use graphtempo_repro::prelude::*;
use proptest::prelude::*;
use tempo_testkit::both_layouts;

/// Pool of node names: indexes 0..6 exist in the base graph, 6..8 are
/// introduced only by patches.
const POOL: usize = 8;
const BASE_NODES: usize = 6;

/// One randomly drawn patch, in index form (converted to a
/// [`TimepointPatch`] once the schema's category codes are known).
#[derive(Clone, Debug)]
struct PatchSpec {
    nodes: Vec<usize>,
    edges: Vec<(usize, usize)>,
    tvs: Vec<(usize, usize)>,
    statics: Vec<(usize, usize)>,
    edge_values: Vec<(usize, usize, i64)>,
}

fn patch_spec() -> impl Strategy<Value = PatchSpec> {
    (
        proptest::collection::vec(0usize..POOL, 0..4),
        proptest::collection::vec((0usize..POOL, 0usize..POOL), 0..4),
        proptest::collection::vec((0usize..POOL, 0usize..3), 0..4),
        proptest::collection::vec((0usize..POOL, 0usize..2), 0..3),
        proptest::collection::vec((0usize..POOL, 0usize..POOL, 1i64..9), 0..3),
    )
        .prop_map(|(nodes, edges, tvs, statics, edge_values)| PatchSpec {
            nodes,
            edges,
            tvs,
            statics,
            edge_values,
        })
}

const TEAMS: [&str; 2] = ["red", "blue"];
const ROLES: [&str; 3] = ["dev", "ops", "qa"];

/// Builds the shared base history (two timepoints) into a fresh builder
/// whose domain already spans `labels`. Both the incremental and the
/// from-scratch paths run exactly this code, so intern orders agree.
fn base_builder(
    labels: &[String],
    presence: &[(usize, usize)],
    edges: &[(usize, usize, usize)],
) -> GraphBuilder {
    let mut schema = AttributeSchema::new();
    schema.declare("team", Temporality::Static).unwrap();
    schema.declare("role", Temporality::TimeVarying).unwrap();
    let mut b = GraphBuilder::new(
        TimeDomain::new(labels.to_vec()).expect("unique labels"),
        schema,
    );
    let team = b.schema().id("team").unwrap();
    let role = b.schema().id("role").unwrap();
    // intern every category up front so patches can address them by code
    for t in TEAMS {
        b.intern_category(team, t);
    }
    for r in ROLES {
        b.intern_category(role, r);
    }
    let nodes: Vec<_> = (0..BASE_NODES)
        .map(|i| b.add_node(&format!("n{i}")).unwrap())
        .collect();
    for (i, &n) in nodes.iter().enumerate() {
        let v = b.schema().category(team, TEAMS[i % 2]).unwrap();
        b.set_static(n, team, v).unwrap();
    }
    for &(n, t) in presence {
        b.set_presence(nodes[n % BASE_NODES], TimePoint((t % 2) as u32))
            .unwrap();
    }
    for &(u, v, t) in edges {
        let (u, v) = (u % BASE_NODES, v % BASE_NODES);
        if u == v {
            continue;
        }
        b.add_edge_at(nodes[u], nodes[v], TimePoint((t % 2) as u32))
            .unwrap();
    }
    // every base node is present somewhere so the fixture is never empty
    b.set_presence(nodes[0], TimePoint(0)).unwrap();
    b
}

/// Converts a spec into a [`TimepointPatch`], resolving category codes
/// against the built base graph's schema (identical in both paths).
fn to_patch(g0: &TemporalGraph, label: &str, spec: &PatchSpec) -> TimepointPatch {
    let team = g0.schema().id("team").unwrap();
    let role = g0.schema().id("role").unwrap();
    let name = |i: usize| format!("n{i}");
    let mut p = TimepointPatch::new(label);
    for &n in &spec.nodes {
        p.mark_node(name(n));
    }
    for &(n, t) in &spec.statics {
        let v = g0.schema().category(team, TEAMS[t]).unwrap();
        p.set_static(name(n), team, v);
    }
    for &(n, r) in &spec.tvs {
        let v = g0.schema().category(role, ROLES[r]).unwrap();
        p.set_time_varying(name(n), role, v);
    }
    for &(u, v) in &spec.edges {
        if u != v {
            p.add_edge(name(u), name(v));
        }
    }
    for &(u, v, w) in &spec.edge_values {
        if u != v {
            p.set_edge_value(name(u), name(v), Value::Int(w));
        }
    }
    p
}

/// Asserts every observable surface of the two graphs is identical.
fn assert_identical(inc: &TemporalGraph, reb: &TemporalGraph, ctx: &str) {
    assert!(inc.validate().is_ok(), "{ctx}: appended graph invalid");
    assert_eq!(
        inc.domain().labels(),
        reb.domain().labels(),
        "{ctx}: labels"
    );
    assert_eq!(inc.n_nodes(), reb.n_nodes(), "{ctx}: node count");
    assert_eq!(inc.n_edges(), reb.n_edges(), "{ctx}: edge count");
    for (a, b) in inc.node_ids().zip(reb.node_ids()) {
        assert_eq!(inc.node_name(a), reb.node_name(b), "{ctx}: node order");
    }
    // raw presence matrices and the transposed per-timepoint indexes
    assert_eq!(
        inc.node_presence_matrix(),
        reb.node_presence_matrix(),
        "{ctx}: node presence"
    );
    assert_eq!(
        inc.edge_presence_matrix(),
        reb.edge_presence_matrix(),
        "{ctx}: edge presence"
    );
    assert_eq!(
        inc.node_presence_columns(),
        reb.node_presence_columns(),
        "{ctx}: transposed node columns"
    );
    assert_eq!(
        inc.edge_presence_columns(),
        reb.edge_presence_columns(),
        "{ctx}: transposed edge columns"
    );
    assert_eq!(
        inc.edge_values_matrix(),
        reb.edge_values_matrix(),
        "{ctx}: edge values"
    );
    // attribute values, cell by cell
    let team = inc.schema().id("team").unwrap();
    let role = inc.schema().id("role").unwrap();
    for n in inc.node_ids() {
        for t in inc.domain().iter() {
            for attr in [team, role] {
                assert_eq!(
                    inc.attr_value(n, attr, t),
                    reb.attr_value(n, attr, t),
                    "{ctx}: attr value of {} at {t:?}",
                    inc.node_name(n)
                );
            }
        }
    }
    // aggregation, both weight modes
    for mode in [AggMode::Distinct, AggMode::All] {
        assert_eq!(
            aggregate(inc, &[team, role], mode),
            aggregate(reb, &[team, role], mode),
            "{ctx}: aggregate {mode:?}"
        );
    }
    // all twelve Table-1 exploration strategies
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        for extend in [ExtendSide::Old, ExtendSide::New] {
            for semantics in [Semantics::Union, Semantics::Intersection] {
                let cfg = ExploreConfig {
                    event,
                    extend,
                    semantics,
                    k: 1,
                    attrs: vec![team],
                    selector: Selector::AllEdges,
                };
                let a = explore(inc, &cfg).unwrap();
                let b = explore(reb, &cfg).unwrap();
                assert_eq!(
                    a.pairs, b.pairs,
                    "{ctx}: explore {event:?}/{extend:?}/{semantics:?}"
                );
            }
        }
    }
    // zoom rewrites both graphs to the same coarse view
    let gran = Granularity::windows(inc.domain(), 2).unwrap();
    let za = zoom_out(inc, &gran, SideTest::Any).unwrap();
    let zb = zoom_out(reb, &gran, SideTest::Any).unwrap();
    assert_eq!(
        za.node_presence_matrix(),
        zb.node_presence_matrix(),
        "{ctx}: zoomed node presence"
    );
    assert_eq!(
        za.edge_presence_matrix(),
        zb.edge_presence_matrix(),
        "{ctx}: zoomed edge presence"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn append_equivalence(
        base_presence in proptest::collection::vec((0usize..BASE_NODES, 0usize..2), 0..8),
        base_edges in proptest::collection::vec((0usize..BASE_NODES, 0usize..BASE_NODES, 0usize..2), 0..8),
        specs in proptest::collection::vec(patch_spec(), 1..4),
    ) {
        let base_labels: Vec<String> = vec!["b0".into(), "b1".into()];
        let base = base_builder(&base_labels, &base_presence, &base_edges)
            .build()
            .unwrap();
        for (layout, g0) in both_layouts(&base).into_iter().enumerate() {
            let mode = g0.sparse_mode();
            let patches: Vec<TimepointPatch> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| to_patch(&g0, &format!("p{i}"), s))
                .collect();

            let mut versions = GraphVersions::new(g0);
            for (i, patch) in patches.iter().enumerate() {
                // warm the transposed indexes so each append exercises the
                // incremental carry-forward rather than a lazy rebuild
                let _ = versions.current().node_presence_columns();
                let _ = versions.current().edge_presence_columns();
                let inc = versions.append_timepoint(patch).unwrap();
                prop_assert_eq!(inc.epoch(), (i + 1) as u64, "epoch stamps count appends");

                // from-scratch rebuild over the same prefix of history
                let mut labels = base_labels.clone();
                labels.extend((0..=i).map(|j| format!("p{j}")));
                let mut b = base_builder(&labels, &base_presence, &base_edges);
                for (j, p) in patches.iter().take(i + 1).enumerate() {
                    p.apply_to_builder(&mut b, TimePoint((2 + j) as u32)).unwrap();
                }
                let reb = &both_layouts(&b.build().unwrap())[layout];

                assert_identical(&inc, reb, &format!("{mode:?} epoch {}", i + 1));
            }
        }
    }
}
