//! Robustness tests for the dataset generators: extreme parameters must
//! still produce valid graphs, and scaling must behave monotonically.

use proptest::prelude::*;
use tempo_datagen::{DblpConfig, MovieLensConfig, RandomGraphConfig, SchoolConfig};
use tempo_graph::GraphStats;

#[test]
fn dblp_scaling_is_monotone() {
    let small = DblpConfig::scaled(0.01).generate().unwrap();
    let large = DblpConfig::scaled(0.03).generate().unwrap();
    let (s, l) = (GraphStats::compute(&small), GraphStats::compute(&large));
    for t in 0..21 {
        assert!(s.nodes_per_tp[t] <= l.nodes_per_tp[t]);
        assert!(s.edges_per_tp[t] <= l.edges_per_tp[t]);
    }
}

#[test]
fn dblp_zero_persistence_still_valid() {
    let cfg = DblpConfig {
        node_persistence: 0.0,
        edge_persistence: 0.0,
        ..DblpConfig::scaled(0.01)
    };
    let g = cfg.generate().unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn dblp_full_persistence_still_valid() {
    let cfg = DblpConfig {
        node_persistence: 1.0,
        edge_persistence: 1.0,
        ..DblpConfig::scaled(0.01)
    };
    let g = cfg.generate().unwrap();
    assert!(g.validate().is_ok());
    // with full node persistence the node overlap between consecutive years
    // must be high wherever the year shrinks or stays equal
    let j = tempo_graph::metrics::node_jaccard(
        &g,
        tempo_graph::TimePoint(1),
        tempo_graph::TimePoint(2),
    );
    assert!(j > 0.5, "full persistence should overlap heavily: {j}");
}

#[test]
fn dblp_no_stars_no_stable_core_edge_case() {
    let cfg = DblpConfig {
        star_fraction: 0.0,
        stable_pairs: 0,
        stable_span: 0,
        spike_prob: 0.0,
        ..DblpConfig::scaled(0.01)
    };
    // star/stable counts clamp to at least 1 internally; the graph stays valid
    let g = cfg.generate().unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn movielens_extreme_density_saturates_gracefully() {
    // node scale small but edge scale large → targets exceed possible pairs
    let cfg = MovieLensConfig {
        scale: 0.02,
        edge_scale: 1.0,
        ..MovieLensConfig::scaled(0.02)
    };
    let g = cfg.generate().unwrap();
    assert!(g.validate().is_ok());
    for t in g.domain().iter() {
        let n = g.nodes_at(t);
        assert!(g.edges_at(t) <= n * n.saturating_sub(1));
    }
}

#[test]
fn school_minimal_configuration() {
    let cfg = SchoolConfig {
        grades: 1,
        classes_per_grade: 1,
        students_per_class: 3,
        days: 2,
        ..Default::default()
    };
    let g = cfg.generate().unwrap();
    assert_eq!(g.n_nodes(), 3);
    assert!(g.validate().is_ok());
}

#[test]
fn school_zero_attendance_produces_empty_days() {
    let cfg = SchoolConfig {
        attendance: 0.0,
        days: 3,
        ..Default::default()
    };
    let g = cfg.generate().unwrap();
    for t in g.domain().iter() {
        assert_eq!(g.nodes_at(t), 0);
        assert_eq!(g.edges_at(t), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random-graph configuration in a sane range builds a valid graph
    /// with the requested per-timepoint shape.
    #[test]
    fn random_config_always_valid(
        pool in 2usize..50,
        tps in 2usize..8,
        active in 2usize..30,
        edges in 0usize..80,
        np in 0u8..=10,
        ep in 0u8..=10,
        seed in any::<u64>(),
    ) {
        let cfg = RandomGraphConfig {
            pool,
            timepoints: tps,
            active_per_tp: active,
            edges_per_tp: edges,
            node_persistence: f64::from(np) / 10.0,
            edge_persistence: f64::from(ep) / 10.0,
            kinds: 2,
            levels: 3,
            seed,
        };
        let g = cfg.generate().unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.domain().len(), tps.max(2));
        for t in g.domain().iter() {
            let max_pairs = g.nodes_at(t) * g.nodes_at(t).saturating_sub(1);
            prop_assert!(g.edges_at(t) <= max_pairs.max(edges));
        }
    }
}

/// One seed gives one school graph, edge rows included: each day's
/// contacts are added in `(u, v)` order, not in a hash set's.
#[test]
fn school_edges_follow_the_seed() {
    let endpoints = |seed: u64| {
        let g = SchoolConfig {
            seed,
            ..SchoolConfig::default()
        }
        .generate()
        .unwrap();
        let names = |e| {
            let (u, v) = g.edge_endpoints(e);
            (g.node_name(u).to_owned(), g.node_name(v).to_owned())
        };
        g.edge_ids().map(names).collect::<Vec<_>>()
    };
    let first = endpoints(5);
    assert!(!first.is_empty());
    assert_eq!(first, endpoints(5));
}
