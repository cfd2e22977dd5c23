//! Property-based tests of the GraphTempo operators on random evolving
//! graphs: the paper's lemmas (3.3, 3.9, 3.10), distributivity claims
//! (§4.3), equivalence of the masked aggregation with its hash oracle, and
//! equivalence of the pruned exploration strategies with naive enumeration.

use graphtempo::aggregate::{aggregate, rollup, AggMode, GroupTable};
use graphtempo::explore::{explore, ExploreConfig, ExtendSide, Selector, Semantics};
use graphtempo::materialize::{aggregate_at_point, TimepointStore};
use graphtempo::ops::{
    difference, event_graph, event_mask, intersection, project_point, union, Event, SideTest,
};
use proptest::prelude::*;
use tempo_graph::{AttrId, TemporalGraph, TimePoint, TimeSet};
use tempo_testkit::{graph_strategy, interval, kind_attr, level_attr};

fn names(g: &TemporalGraph) -> Vec<String> {
    let mut v: Vec<String> = g.node_ids().map(|n| g.node_name(n).to_owned()).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Union is commutative and intersection ⊆ union (as entity sets).
    #[test]
    fn union_commutative_and_contains_intersection(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (t1, t2) = (interval(n, s1), interval(n, s2));
        let u12 = union(&g, &t1, &t2).unwrap();
        let u21 = union(&g, &t2, &t1).unwrap();
        prop_assert_eq!(names(&u12), names(&u21));
        prop_assert_eq!(u12.n_edges(), u21.n_edges());

        let i = intersection(&g, &t1, &t2).unwrap();
        let union_names = names(&u12);
        for nm in names(&i) {
            prop_assert!(union_names.binary_search(&nm).is_ok());
        }
        prop_assert!(i.n_edges() <= u12.n_edges());
    }

    /// Edges of 𝒯₁ split exactly into (stable in 𝒯₂) ⊎ (deleted by 𝒯₂).
    #[test]
    fn difference_partitions_edges(
        g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()
    ) {
        let n = g.domain().len();
        let (t1, t2) = (interval(n, s1), interval(n, s2));
        let alive_t1 = g.edge_ids().filter(|&e| g.edge_timestamp(e).intersects(&t1)).count();
        let stable = intersection(&g, &t1, &t2).unwrap().n_edges();
        let deleted = difference(&g, &t1, &t2).unwrap().n_edges();
        prop_assert_eq!(alive_t1, stable + deleted);
    }

    /// Lemma 3.3 (increasing): extending one side of the intersection graph
    /// with union semantics never decreases aggregate weights.
    #[test]
    fn lemma_3_3_union_increasing(g in graph_strategy(), s in any::<u64>()) {
        let n = g.domain().len();
        let tk = TimeSet::point(n, TimePoint((s as usize % n) as u32));
        let attrs = vec![kind_attr(&g)];
        // Ti ⊆ Tj as growing suffixes
        let start = (s >> 8) as usize % n;
        for end in start..n - 1 {
            let ti = TimeSet::range(n, start, end);
            let tj = TimeSet::range(n, start, end + 1);
            let gi = event_graph(&g, Event::Stability, &tk, &ti, SideTest::Any, SideTest::Any).unwrap();
            let gj = event_graph(&g, Event::Stability, &tk, &tj, SideTest::Any, SideTest::Any).unwrap();
            let ai = aggregate(&gi, &attrs, AggMode::Distinct);
            let aj = aggregate(&gj, &attrs, AggMode::Distinct);
            for (tuple, w) in ai.iter_nodes() {
                prop_assert!(aj.node_weight(tuple) >= w, "node weight decreased under union extension");
            }
            for ((src, dst), w) in ai.iter_edges() {
                prop_assert!(aj.edge_weight(src, dst) >= w, "edge weight decreased under union extension");
            }
        }
    }

    /// Lemma 3.3 (decreasing): extending with intersection semantics never
    /// increases aggregate weights.
    #[test]
    fn lemma_3_3_intersection_decreasing(g in graph_strategy(), s in any::<u64>()) {
        let n = g.domain().len();
        let tk = TimeSet::point(n, TimePoint((s as usize % n) as u32));
        let attrs = vec![kind_attr(&g)];
        let start = (s >> 8) as usize % n;
        for end in start..n - 1 {
            let ti = TimeSet::range(n, start, end);
            let tj = TimeSet::range(n, start, end + 1);
            let gi = event_graph(&g, Event::Stability, &tk, &ti, SideTest::Any, SideTest::All).unwrap();
            let gj = event_graph(&g, Event::Stability, &tk, &tj, SideTest::Any, SideTest::All).unwrap();
            let ai = aggregate(&gi, &attrs, AggMode::Distinct);
            let aj = aggregate(&gj, &attrs, AggMode::Distinct);
            for (tuple, w) in aj.iter_nodes() {
                prop_assert!(ai.node_weight(tuple) >= w, "node weight increased under intersection extension");
            }
            for ((src, dst), w) in aj.iter_edges() {
                prop_assert!(ai.edge_weight(src, dst) >= w, "edge weight increased under intersection extension");
            }
        }
    }

    /// Lemma 3.9: 𝒯new − 𝒯old decreases when 𝒯old extends (union) and
    /// increases when 𝒯new extends (union).
    #[test]
    fn lemma_3_9_growth_monotonicity(g in graph_strategy(), _s in any::<u64>()) {
        let n = g.domain().len();
        prop_assume!(n >= 3);
        let attrs = vec![kind_attr(&g)];
        let tnew = TimeSet::point(n, TimePoint((n - 1) as u32));
        // extend Told backward
        let mut prev: Option<u64> = None;
        for start in (0..n - 1).rev() {
            let told = TimeSet::range(n, start, n - 2);
            let d = event_graph(&g, Event::Growth, &told, &tnew, SideTest::Any, SideTest::Any).unwrap();
            let w = aggregate(&d, &attrs, AggMode::Distinct).total_edge_weight();
            if let Some(p) = prev {
                prop_assert!(w <= p, "growth grew while extending Told: {w} > {p}");
            }
            prev = Some(w);
        }
        // extend Tnew forward with Told = first point
        let told = TimeSet::point(n, TimePoint(0));
        let mut prev: Option<u64> = None;
        for end in 1..n {
            let tnew = TimeSet::range(n, 1, end);
            let d = event_graph(&g, Event::Growth, &told, &tnew, SideTest::Any, SideTest::Any).unwrap();
            let w = aggregate(&d, &attrs, AggMode::Distinct).total_edge_weight();
            if let Some(p) = prev {
                prop_assert!(w >= p, "growth shrank while extending Tnew: {w} < {p}");
            }
            prev = Some(w);
        }
    }

    /// Lemma 3.10: 𝒯new − 𝒯old increases when 𝒯old extends with
    /// intersection semantics.
    #[test]
    fn lemma_3_10_growth_intersection(g in graph_strategy()) {
        let n = g.domain().len();
        prop_assume!(n >= 3);
        let attrs = vec![kind_attr(&g)];
        let tnew = TimeSet::point(n, TimePoint((n - 1) as u32));
        let mut prev: Option<u64> = None;
        for start in (0..n - 1).rev() {
            let told = TimeSet::range(n, start, n - 2);
            let d = event_graph(&g, Event::Growth, &told, &tnew, SideTest::All, SideTest::Any).unwrap();
            let w = aggregate(&d, &attrs, AggMode::Distinct).total_edge_weight();
            if let Some(p) = prev {
                prop_assert!(w >= p, "growth shrank while ∩-extending Told: {w} < {p}");
            }
            prev = Some(w);
        }
    }

    /// DIST weights never exceed ALL weights.
    #[test]
    fn dist_bounded_by_all(g in graph_strategy()) {
        for attrs in [vec![kind_attr(&g)], vec![level_attr(&g)], vec![kind_attr(&g), level_attr(&g)]] {
            let dist = aggregate(&g, &attrs, AggMode::Distinct);
            let all = aggregate(&g, &attrs, AggMode::All);
            for (tuple, w) in dist.iter_nodes() {
                prop_assert!(all.node_weight(tuple) >= w);
            }
            for ((src, dst), w) in dist.iter_edges() {
                prop_assert!(all.edge_weight(src, dst) >= w);
            }
        }
    }

    /// The masked group-id aggregation agrees with the hash oracle on the
    /// whole graph, in both group-id layouts.
    #[test]
    fn aggregation_implementations_agree(g in graph_strategy()) {
        let all = g.domain().all();
        let whole =
            event_mask(&g, Event::Stability, &all, &all, SideTest::Any, SideTest::Any).unwrap();
        // static: one id per node; mixed: one id per (node, time)
        for attrs in [vec![kind_attr(&g)], vec![kind_attr(&g), level_attr(&g)]] {
            for mode in [AggMode::Distinct, AggMode::All] {
                #[allow(clippy::disallowed_methods)] // the oracle side builds its table uncached
                let fast = GroupTable::build(&g, &attrs).aggregate_masked(&g, &whole, mode);
                prop_assert_eq!(&fast, &aggregate(&g, &attrs, mode));
            }
        }
    }

    /// §4.3 T-distributivity: union of per-timepoint ALL aggregates equals
    /// the ALL aggregate of the union graph.
    #[test]
    fn t_distributive_union(g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let n = g.domain().len();
        let (t1, t2) = (interval(n, s1), interval(n, s2));
        let attrs = vec![kind_attr(&g), level_attr(&g)];
        let store = TimepointStore::build(&g, &attrs);
        let fast = store.union_all(&t1.union(&t2)).unwrap();
        let u = union(&g, &t1, &t2).unwrap();
        let direct = aggregate(&u, &attrs, AggMode::All);
        prop_assert_eq!(fast, direct);
    }

    /// §4.3 D-distributivity: per-timepoint roll-up equals direct
    /// aggregation on the attribute subset.
    #[test]
    fn d_distributive_rollup(g in graph_strategy(), s in any::<u64>()) {
        let n = g.domain().len();
        let t = TimePoint((s as usize % n) as u32);
        let attrs = vec![kind_attr(&g), level_attr(&g)];
        let full = aggregate_at_point(&g, &attrs, t);
        for subset in [&["kind"][..], &["level"][..]] {
            let rolled = rollup(&full, subset).unwrap();
            let ids: Vec<AttrId> = subset.iter().map(|nm| g.schema().id(nm).unwrap()).collect();
            let direct = aggregate_at_point(&g, &ids, t);
            prop_assert_eq!(rolled, direct);
        }
    }

    /// Per-timepoint aggregation (what the store is built from) equals the
    /// hash aggregation of the materialized projection, for every attribute
    /// layout and every point.
    #[test]
    fn point_aggregation_matches_projection(g in graph_strategy()) {
        let (kind, level) = (kind_attr(&g), level_attr(&g));
        for attrs in [vec![kind], vec![level], vec![kind, level], vec![level, kind]] {
            for t in g.domain().iter() {
                let p = project_point(&g, t).unwrap();
                prop_assert_eq!(
                    aggregate_at_point(&g, &attrs, t),
                    aggregate(&p, &attrs, AggMode::All),
                    "attrs {:?} at {:?}", attrs, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Table 1's "⊆ of" column: the minimal pairs of the decreasing union
    /// cases are contained in the results of their increasing counterparts
    /// (growth: 𝒯new−𝒯old(∪) ⊆ 𝒯new(∪)−𝒯old; shrinkage:
    /// 𝒯old−𝒯new(∪) ⊆ 𝒯old(∪)−𝒯new).
    #[test]
    fn table1_subset_relations(g in graph_strategy(), k in 1u64..20) {
        let kind = kind_attr(&g);
        for (event, small_side, big_side) in [
            (Event::Growth, ExtendSide::Old, ExtendSide::New),
            (Event::Shrinkage, ExtendSide::New, ExtendSide::Old),
        ] {
            let mk = |extend| ExploreConfig {
                event,
                extend,
                semantics: Semantics::Union,
                k,
                attrs: vec![kind],
                selector: Selector::AllEdges,
            };
            let small = explore(&g, &mk(small_side)).unwrap();
            let big = explore(&g, &mk(big_side)).unwrap();
            for pair in &small.pairs {
                prop_assert!(
                    big.pairs.contains(pair),
                    "{event:?}: base-only pair missing from the extended case"
                );
            }
        }
    }

    /// The cube answers any (level, scope) query exactly as direct
    /// aggregation of the union graph would.
    #[test]
    fn cube_query_equals_direct(g in graph_strategy(), s1 in any::<u64>(), s2 in any::<u64>()) {
        use graphtempo::cube::GraphCube;
        let n = g.domain().len();
        let (t1, t2) = (interval(n, s1), interval(n, s2));
        let attrs = vec![kind_attr(&g), level_attr(&g)];
        let cube = GraphCube::build(&g, &attrs, 1);
        let scope = t1.union(&t2);
        for level in cube.all_levels() {
            let from_cube = cube.query(&level, &scope).unwrap();
            let u = union(&g, &t1, &t2).unwrap();
            let ids: Vec<AttrId> = level
                .names()
                .iter()
                .map(|nm| u.schema().id(nm).unwrap())
                .collect();
            let direct = aggregate(&u, &ids, AggMode::All);
            prop_assert_eq!(from_cube, direct, "level {:?}", level);
        }
    }

    /// Union zoom-out preserves entity identity; intersection zoom-out
    /// keeps a subset of it.
    #[test]
    fn zoom_entity_relations(g in graph_strategy(), window in 2usize..4) {
        use graphtempo::zoom::{zoom_out, Granularity};
        prop_assume!(window < g.domain().len());
        let gran = Granularity::windows(g.domain(), window).unwrap();
        let any = zoom_out(&g, &gran, SideTest::Any).unwrap();
        // union zoom keeps every entity that exists at some point (nodes
        // registered but never present are dropped)
        let existing_nodes = g
            .node_ids()
            .filter(|&n| !g.node_timestamp(n).is_empty())
            .count();
        prop_assert_eq!(any.n_nodes(), existing_nodes);
        prop_assert_eq!(any.n_edges(), g.n_edges());
        let all = zoom_out(&g, &gran, SideTest::All).unwrap();
        prop_assert!(all.n_nodes() <= any.n_nodes());
        prop_assert!(all.n_edges() <= any.n_edges());
        prop_assert!(all.validate().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The COUNT measure coincides with ALL aggregation weights, and SUM of
    /// a constant-1 observation would equal COUNT; SUM over `level` is
    /// bounded by COUNT × max-level.
    #[test]
    fn measures_consistent_with_all_aggregation(g in graph_strategy()) {
        use graphtempo::measures::{aggregate_measure, EdgeMeasure, NodeMeasure};
        let kind = kind_attr(&g);
        let level = level_attr(&g);
        let m = aggregate_measure(&g, &[kind], NodeMeasure::Count, EdgeMeasure::Count).unwrap();
        let all = aggregate(&g, &[kind], AggMode::All);
        for (tuple, w) in all.iter_nodes() {
            prop_assert_eq!(m.node_value(tuple), Some(w as f64));
        }
        for ((s, d), w) in all.iter_edges() {
            prop_assert_eq!(m.edge_value(s, d), Some(w as f64));
        }
        // sum/min/max/avg relations per group
        let sum = aggregate_measure(&g, &[kind], NodeMeasure::Sum(level), EdgeMeasure::Count).unwrap();
        let min = aggregate_measure(&g, &[kind], NodeMeasure::Min(level), EdgeMeasure::Count).unwrap();
        let max = aggregate_measure(&g, &[kind], NodeMeasure::Max(level), EdgeMeasure::Count).unwrap();
        let avg = aggregate_measure(&g, &[kind], NodeMeasure::Avg(level), EdgeMeasure::Count).unwrap();
        for (tuple, w) in all.iter_nodes() {
            let count = w as f64;
            if let (Some(s), Some(lo), Some(hi), Some(mean)) = (
                sum.node_value(tuple),
                min.node_value(tuple),
                max.node_value(tuple),
                avg.node_value(tuple),
            ) {
                prop_assert!(lo <= hi);
                prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
                prop_assert!(s <= hi * count + 1e-9);
                prop_assert!(s >= lo - 1e-9);
            }
        }
    }
}
