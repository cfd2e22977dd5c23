//! Cross-crate integration tests: generated datasets flowing through the
//! whole pipeline — storage, IO, operators, aggregation, materialization,
//! evolution, and exploration.

use graphtempo_repro::prelude::*;

fn dblp_small() -> TemporalGraph {
    DblpConfig::scaled(0.02).generate().unwrap()
}

fn movielens_small() -> TemporalGraph {
    MovieLensConfig::scaled(0.1).generate().unwrap()
}

#[test]
fn dblp_pipeline_union_aggregate_explore() {
    let g = dblp_small();
    let n = g.domain().len();
    let gender = g.schema().id("gender").unwrap();
    let f = g.schema().category(gender, "f").unwrap();

    // union of the two decades
    let t1 = TimeSet::range(n, 0, 9);
    let t2 = TimeSet::range(n, 10, n - 1);
    let u = union(&g, &t1, &t2).unwrap();
    assert_eq!(u.n_nodes(), g.n_nodes());

    // DIST counts authors once, ALL counts appearances
    let dist = aggregate(&u, &[gender], AggMode::Distinct);
    let all = aggregate(&u, &[gender], AggMode::All);
    assert_eq!(dist.total_node_weight() as usize, g.n_nodes());
    assert!(all.total_node_weight() > dist.total_node_weight());

    // exploration finds at least one qualifying pair at k = w_th
    let mut cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![gender],
        selector: Selector::edge_1attr(f.clone(), f),
    };
    if let Some(wth) = suggest_k(&g, &cfg).unwrap() {
        cfg.k = wth;
        let out = explore(&g, &cfg).unwrap();
        assert!(!out.pairs.is_empty(), "w_th guarantees at least one pair");
        for (pair, r) in &out.pairs {
            assert!(*r >= wth);
            assert!(pair.told.max() < pair.tnew.min(), "𝒯old precedes 𝒯new");
        }
    }
}

#[test]
fn movielens_pipeline_materialized_rollup() {
    let g = movielens_small();
    let attrs: Vec<AttrId> = ["gender", "age", "occupation", "rating"]
        .iter()
        .map(|n| g.schema().id(n).unwrap())
        .collect();

    // one ALL-aggregate per month on the full attribute set
    let store = TimepointStore::build(&g, &attrs);
    assert_eq!(store.len(), 6);

    // the T-distributive full-period union equals direct aggregation
    let scope = g.domain().all();
    let fast = store.union_all(&scope).unwrap();
    let direct = aggregate(&g, &attrs, AggMode::All);
    assert_eq!(fast, direct);

    // rolling the full aggregate up to (gender) matches direct ALL
    let rolled = rollup(&direct, &["gender"]).unwrap();
    let gender = g.schema().id("gender").unwrap();
    let direct_g = aggregate(&g, &[gender], AggMode::All);
    assert_eq!(rolled, direct_g);
}

#[test]
fn io_roundtrip_generated_graph() {
    let g = dblp_small();
    let dir = std::env::temp_dir().join(format!("graphtempo_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tempo_graph::io::save_dir(&g, &dir).unwrap();
    let h = tempo_graph::io::load_dir(&dir).unwrap();
    assert_eq!(h.n_nodes(), g.n_nodes());
    assert_eq!(h.n_edges(), g.n_edges());
    // aggregate equality is a strong whole-graph check (values + presence)
    let ga = aggregate(
        &g,
        &[
            g.schema().id("gender").unwrap(),
            g.schema().id("publications").unwrap(),
        ],
        AggMode::All,
    );
    let ha = aggregate(
        &h,
        &[
            h.schema().id("gender").unwrap(),
            h.schema().id("publications").unwrap(),
        ],
        AggMode::All,
    );
    // categorical codes may differ; compare via total weights and counts
    assert_eq!(ga.total_node_weight(), ha.total_node_weight());
    assert_eq!(ga.total_edge_weight(), ha.total_edge_weight());
    assert_eq!(ga.n_nodes(), ha.n_nodes());
    assert_eq!(ga.n_edges(), ha.n_edges());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn school_homophily_supports_targeted_closure() {
    // The intro's epidemic argument: most contacts and most *stable*
    // contacts are intra-class, so class-level aggregation identifies them.
    let g = SchoolConfig::default().generate().unwrap();
    let class = g.schema().id("class").unwrap();
    let n = g.domain().len();
    let first_half = TimeSet::range(n, 0, n / 2 - 1);
    let second_half = TimeSet::range(n, n / 2, n - 1);
    let stable = intersection(&g, &first_half, &second_half).unwrap();
    let agg = aggregate(
        &stable,
        &[stable.schema().id("class").unwrap()],
        AggMode::Distinct,
    );
    let intra: u64 = agg
        .iter_edges()
        .iter()
        .filter(|((s, d), _)| s == d)
        .map(|(_, w)| w)
        .sum();
    let total = agg.total_edge_weight();
    assert!(total > 0);
    assert!(
        intra * 2 > total,
        "intra-class stable contacts should dominate: {intra}/{total}"
    );
    let _ = class;
}

#[test]
fn evolution_aggregate_consistent_with_operators() {
    // For a static attribute, evolution-aggregate totals equal the entity
    // counts of the corresponding operator graphs.
    let g = movielens_small();
    let gender = g.schema().id("gender").unwrap();
    let n = g.domain().len();
    let t1 = TimeSet::range(n, 0, 2);
    let t2 = TimeSet::range(n, 3, n - 1);
    let evo = evolution_aggregate(&g, &t1, &t2, &[gender], None).unwrap();
    let totals = evo.total_node_weight();
    let stable = intersection(&g, &t1, &t2).unwrap();
    assert_eq!(totals.stability as usize, stable.n_nodes());
    let gone = difference(&g, &t1, &t2).unwrap();
    // difference keeps surviving endpoints of deleted edges too (and masks
    // timestamps to 𝒯₁), so check disappearance against the source graph
    let strictly_gone = gone
        .node_ids()
        .filter(|&nd| {
            let src = g.node_id(gone.node_name(nd)).expect("node from source");
            !g.node_timestamp(src).intersects(&t2)
        })
        .count();
    let strictly_gone_src = g
        .node_ids()
        .filter(|&nd| {
            let tau = g.node_timestamp(nd);
            tau.intersects(&t1) && !tau.intersects(&t2)
        })
        .count();
    assert_eq!(totals.shrinkage as usize, strictly_gone_src);
    assert_eq!(strictly_gone, strictly_gone_src);
}

#[test]
fn exploration_all_cases_sane_on_movielens() {
    let g = movielens_small();
    let gender = g.schema().id("gender").unwrap();
    for event in [Event::Stability, Event::Growth, Event::Shrinkage] {
        for extend in [ExtendSide::Old, ExtendSide::New] {
            for semantics in [Semantics::Union, Semantics::Intersection] {
                let cfg = ExploreConfig {
                    event,
                    extend,
                    semantics,
                    k: 5,
                    attrs: vec![gender],
                    selector: Selector::AllEdges,
                };
                let fast = explore(&g, &cfg).unwrap();
                let slow = explore_naive(&g, &cfg).unwrap();
                assert_eq!(fast.pairs, slow.pairs, "{event:?}/{extend:?}/{semantics:?}");
                for (pair, r) in &fast.pairs {
                    assert!(*r >= 5);
                    assert!(!pair.told.is_empty() && !pair.tnew.is_empty());
                }
            }
        }
    }
}
