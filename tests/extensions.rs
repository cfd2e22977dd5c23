//! Integration tests for the extension features: incremental snapshots,
//! the OLAP cube, time zooming, the Definition-3.6 solver, and metrics.

use graphtempo::materialize::TimepointStore;
use graphtempo_repro::prelude::*;
use tempo_graph::metrics::{edge_jaccard, node_jaccard, turnover_profile};

#[test]
fn incremental_snapshot_pipeline() {
    // Start from a generated graph, append a synthetic "next year", and
    // keep the materialized store in sync incrementally.
    let g = DblpConfig::scaled(0.01).generate().unwrap();
    let gender = g.schema().id("gender").unwrap();
    let pubs = g.schema().id("publications").unwrap();
    let mut store = TimepointStore::build(&g, &[gender]);
    let old_len = g.domain().len();

    let t_new = TimePoint(old_len as u32);
    // a returning author and a brand-new one collaborate in 2021
    let f = g.schema().category(gender, "f");
    let val = f.unwrap_or(Value::Cat(0));
    let mut patch = TimepointPatch::new("2021");
    patch
        .set_static("rookie-2021", gender, val)
        .set_time_varying("a0", pubs, Value::Int(2))
        .set_time_varying("rookie-2021", pubs, Value::Int(1))
        .add_edge("a0", "rookie-2021");
    let g2 = GraphVersions::new(g).append_timepoint(&patch).unwrap();
    assert_eq!(g2.domain().len(), old_len + 1);

    assert_eq!(store.append_new_points(&g2).unwrap(), 1);
    let rebuilt = TimepointStore::build(&g2, &[gender]);
    for t in g2.domain().iter() {
        assert_eq!(store.at(t), rebuilt.at(t));
    }

    // growth exploration sees the new snapshot
    let d = difference(
        &g2,
        &TimeSet::point(old_len + 1, t_new),
        &TimeSet::range(old_len + 1, 0, old_len - 1),
    )
    .unwrap();
    assert!(d.node_id("rookie-2021").is_some());
}

#[test]
fn cube_levels_consistent_with_rollup_chain() {
    let g = MovieLensConfig::scaled(0.08).generate().unwrap();
    let attrs: Vec<AttrId> = ["gender", "age", "rating"]
        .iter()
        .map(|n| g.schema().id(n).unwrap())
        .collect();
    let cube = GraphCube::build(&g, &attrs, 1);
    // every non-empty subset of the dimensions, rolled up from the base
    // level, equals querying that level directly
    let scope = g.domain().all();
    let names = ["gender", "age", "rating"];
    let base = cube.query(&Level::new(names.to_vec()), &scope).unwrap();
    for mask in 1..(1 << names.len()) {
        let level: Vec<&str> = (0..names.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| names[i])
            .collect();
        let via_rollup = rollup(&base, &level).unwrap();
        let direct = cube.query(&Level::new(level.clone()), &scope).unwrap();
        assert_eq!(via_rollup, direct, "{level:?}");
    }
    // rolling up twice equals querying the coarse level directly
    let fine = cube
        .query(&Level::new(vec!["gender", "age"]), &scope)
        .unwrap();
    let via_rollup = rollup(&fine, &["gender"]).unwrap();
    let direct = cube.query(&Level::new(vec!["gender"]), &scope).unwrap();
    assert_eq!(via_rollup, direct);
}

#[test]
fn zoom_then_explore() {
    // Zoom DBLP years into ~triennia, then explore on the coarse domain.
    let g = DblpConfig::scaled(0.02).generate().unwrap();
    let gran = Granularity::windows(g.domain(), 3).unwrap();
    let z = zoom_out(&g, &gran, SideTest::Any).unwrap();
    assert_eq!(z.domain().len(), 7);
    let gender = z.schema().id("gender").unwrap();
    let cfg = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 1,
        attrs: vec![gender],
        selector: Selector::AllEdges,
    };
    let fast = explore(&z, &cfg).unwrap();
    let slow = explore_naive(&z, &cfg).unwrap();
    assert_eq!(fast.pairs, slow.pairs);
    assert!(!fast.pairs.is_empty());
}

#[test]
fn solve_problem_report_is_consistent() {
    let g = MovieLensConfig::scaled(0.08).generate().unwrap();
    let gender = g.schema().id("gender").unwrap();
    let report = solve_problem(&g, 3, &[gender], &Selector::AllEdges, ExtendSide::New).unwrap();
    assert_eq!(report.events.len(), 3);
    // every reported pair individually satisfies the threshold
    for e in &report.events {
        for (_, r) in e.minimal.pairs.iter().chain(&e.maximal.pairs) {
            assert!(*r >= 3);
        }
    }
    let text = report.render(g.domain());
    assert!(text.contains("Growth") && text.contains("Shrinkage"));
}

#[test]
fn generator_persistence_shows_in_metrics() {
    // node persistence 0.6 should leave a clearly positive node Jaccard
    // between consecutive years, and edge turnover should exceed node
    // turnover (edges churn faster — the paper's Fig. 13c observation).
    let g = DblpConfig::scaled(0.02).generate().unwrap();
    let profile = turnover_profile(&g);
    assert_eq!(profile.len(), 20);
    let avg_node: f64 = profile.iter().map(|(n, _)| n).sum::<f64>() / profile.len() as f64;
    let avg_edge: f64 = profile.iter().map(|(_, e)| e).sum::<f64>() / profile.len() as f64;
    assert!(avg_node > 0.2, "node overlap too low: {avg_node}");
    assert!(
        avg_edge < avg_node,
        "edges should churn faster than nodes: {avg_edge} vs {avg_node}"
    );
    // symmetric single-pair checks
    let j = node_jaccard(&g, TimePoint(0), TimePoint(1));
    assert!((0.0..=1.0).contains(&j));
    assert!(edge_jaccard(&g, TimePoint(0), TimePoint(0)) > 0.999);
}
