//! Integration test: the paper's running example end to end.
//!
//! Walks the Fig. 1 graph through every construct of §2 and asserts the
//! numbers the paper states for Fig. 2 (union), Fig. 3 (aggregation),
//! Fig. 4 (evolution) and Table 2 (storage).

use graphtempo_repro::prelude::*;
use tempo_graph::fixtures::fig1;

fn ts(points: &[usize]) -> TimeSet {
    TimeSet::from_indices(3, points.iter().copied())
}

fn cat(g: &TemporalGraph, attr: &str, label: &str) -> Value {
    let a = g.schema().id(attr).unwrap();
    g.schema().category(a, label).unwrap()
}

#[test]
fn table2_storage_layout() {
    let g = fig1();
    // V: u1 = 110, u5 = 001
    let u1 = g.node_id("u1").unwrap();
    let u5 = g.node_id("u5").unwrap();
    assert!(g.node_alive_at(u1, TimePoint(0)) && g.node_alive_at(u1, TimePoint(1)));
    assert!(!g.node_alive_at(u1, TimePoint(2)));
    assert!(g.node_alive_at(u5, TimePoint(2)) && !g.node_alive_at(u5, TimePoint(0)));
    // A (#publications): u1 = 3,1,-; u4 = 2,1,1
    let pubs = g.schema().id("publications").unwrap();
    let u4 = g.node_id("u4").unwrap();
    assert_eq!(g.attr_value(u1, pubs, TimePoint(0)), Value::Int(3));
    assert_eq!(g.attr_value(u1, pubs, TimePoint(2)), Value::Null);
    assert_eq!(g.attr_value(u4, pubs, TimePoint(0)), Value::Int(2));
    // S (gender): u1 = m, u2..u4 = f, u5 = m
    let gender = g.schema().id("gender").unwrap();
    let m = cat(&g, "gender", "m");
    assert_eq!(g.static_value(u1, gender).unwrap(), m);
    assert_eq!(g.static_value(u5, gender).unwrap(), m);
}

#[test]
fn fig2_union_graph() {
    let g = fig1();
    let u = union(&g, &ts(&[0]), &ts(&[1])).unwrap();
    // u1..u4 survive, u5 does not
    assert_eq!(u.n_nodes(), 4);
    assert!(u.node_id("u5").is_none());
    // Attributes carried for every time point of the scope
    let pubs = u.schema().id("publications").unwrap();
    let u1 = u.node_id("u1").unwrap();
    assert_eq!(u.attr_value(u1, pubs, TimePoint(0)), Value::Int(3));
    assert_eq!(u.attr_value(u1, pubs, TimePoint(1)), Value::Int(1));
}

#[test]
fn fig3_aggregations() {
    let g = fig1();
    let attrs: Vec<AttrId> = ["gender", "publications"]
        .iter()
        .map(|n| g.schema().id(n).unwrap())
        .collect();
    let f = cat(&g, "gender", "f");
    let m = cat(&g, "gender", "m");

    // Fig. 3a (t0): (m,3)=1, (f,1)=2, (f,2)=1
    let p0 = project_point(&g, TimePoint(0)).unwrap();
    let a0 = aggregate(&p0, &attrs, AggMode::Distinct);
    assert_eq!(a0.node_weight(&[m.clone(), Value::Int(3)]), 1);
    assert_eq!(a0.node_weight(&[f.clone(), Value::Int(1)]), 2);
    assert_eq!(a0.node_weight(&[f.clone(), Value::Int(2)]), 1);

    // Fig. 3b (t1): (m,1)=1, (f,1)=2
    let p1 = project_point(&g, TimePoint(1)).unwrap();
    let a1 = aggregate(&p1, &attrs, AggMode::Distinct);
    assert_eq!(a1.node_weight(&[m.clone(), Value::Int(1)]), 1);
    assert_eq!(a1.node_weight(&[f.clone(), Value::Int(1)]), 2);

    // Fig. 3c (t2): (m,3)=1, (f,1)=2
    let p2 = project_point(&g, TimePoint(2)).unwrap();
    let a2 = aggregate(&p2, &attrs, AggMode::Distinct);
    assert_eq!(a2.node_weight(&[m.clone(), Value::Int(3)]), 1);
    assert_eq!(a2.node_weight(&[f.clone(), Value::Int(1)]), 2);

    // Fig. 3d/e: union [t0,t1], (f,1): DIST 3 vs ALL 4 — the paper's
    // worked DIST/ALL contrast.
    let u = union(&g, &ts(&[0]), &ts(&[1])).unwrap();
    let dist = aggregate(&u, &attrs, AggMode::Distinct);
    let all = aggregate(&u, &attrs, AggMode::All);
    assert_eq!(dist.node_weight(&[f.clone(), Value::Int(1)]), 3);
    assert_eq!(all.node_weight(&[f.clone(), Value::Int(1)]), 4);
}

#[test]
fn fig4_evolution() {
    let g = fig1();
    let attrs: Vec<AttrId> = ["gender", "publications"]
        .iter()
        .map(|n| g.schema().id(n).unwrap())
        .collect();
    let f = cat(&g, "gender", "f");

    // Fig. 4a: classification of entities between t0 and t1
    let evo = EvolutionGraph::compute(&g, &ts(&[0]), &ts(&[1])).unwrap();
    assert_eq!(evo.count_nodes(EvolutionClass::Stability), 3); // u1,u2,u4
    assert_eq!(evo.count_nodes(EvolutionClass::Shrinkage), 1); // u3

    // Fig. 4b: node (f,1) has stability 1 (u2), growth 1 (u4), shrinkage 1 (u3)
    let agg = evolution_aggregate(&g, &ts(&[0]), &ts(&[1]), &attrs, None).unwrap();
    let w = agg.node_weight(&[f, Value::Int(1)]);
    assert_eq!((w.stability, w.growth, w.shrinkage), (1, 1, 1));
}

#[test]
fn section3_worked_exploration() {
    // Theorem 3.7: minimal stability pairs differ between extending 𝒯new
    // and extending 𝒯old.
    let g = fig1();
    let gender = g.schema().id("gender").unwrap();
    let base = ExploreConfig {
        event: Event::Stability,
        extend: ExtendSide::New,
        semantics: Semantics::Union,
        k: 3,
        attrs: vec![gender],
        selector: Selector::AllEdges,
    };
    let new_side = explore(&g, &base).unwrap();
    let mut cfg_old = base.clone();
    cfg_old.extend = ExtendSide::Old;
    let old_side = explore(&g, &cfg_old).unwrap();
    // both valid, but pair sets are generally different (Theorem 3.7)
    assert!(new_side.pairs != old_side.pairs || new_side.pairs.is_empty());

    // Theorem 3.8: under intersection semantics, pairs covering identical
    // time points give identical results regardless of which side was the
    // reference (𝒯ᵢ ∩ (𝒯ᵢ₊₁ ∩ 𝒯ᵢ₊₂) = (𝒯ᵢ ∩ 𝒯ᵢ₊₁) ∩ 𝒯ᵢ₊₂). The longest
    // maximal pair — the chain that both schemes can fully build — must
    // therefore coincide.
    let mut cfg = base.clone();
    cfg.semantics = Semantics::Intersection;
    cfg.k = 1;
    let a = explore(&g, &cfg).unwrap();
    cfg.extend = ExtendSide::Old;
    let b = explore(&g, &cfg).unwrap();
    let longest = |o: &graphtempo::ExploreOutcome| {
        o.pairs
            .iter()
            .map(|(p, r)| {
                let mut pts: Vec<u32> = p.told.union(&p.tnew).iter().map(|t| t.0).collect();
                pts.sort_unstable();
                (pts, *r)
            })
            .max_by_key(|(pts, _)| pts.len())
            .expect("at least one maximal pair")
    };
    assert_eq!(longest(&a), longest(&b));
}
