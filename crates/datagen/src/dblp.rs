//! Synthetic DBLP-like collaboration network (§5's first dataset).
//!
//! The paper's DBLP graph covers 21 conference years (2000–2020); nodes are
//! authors with a static `gender` and a time-varying `publications` count,
//! and a directed edge records co-authorship within a year. We do not ship
//! the extracted dataset, so this generator reproduces its published
//! profile (Table 3 node/edge counts, the ≈7–18 distinct publication values
//! per year, author persistence across years, community-structured
//! collaborations) deterministically from a seed.

use crate::common::{evolve_active_set, evolve_edges, skewed_count};
use crate::tables::{scaled, DBLP_EDGES, DBLP_NODES, DBLP_YEARS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempo_columnar::Value;
use tempo_graph::{
    AttributeSchema, GraphBuilder, GraphError, NodeId, TemporalGraph, Temporality, TimeDomain,
    TimePoint,
};

/// Configuration of the DBLP-like generator.
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// Scale factor applied to Table 3's node and edge counts
    /// (1.0 reproduces the paper's sizes).
    pub scale: f64,
    /// RNG seed; equal configs generate equal graphs.
    pub seed: u64,
    /// Fraction of the previous year's authors active again.
    pub node_persistence: f64,
    /// Fraction of the previous year's collaborations repeated.
    pub edge_persistence: f64,
    /// Fraction of female authors.
    pub female_ratio: f64,
    /// Maximum publications per author per year (Table 2's attribute domain
    /// reaches ≈18 at the paper's scale).
    pub max_publications: i64,
    /// Number of research communities biasing collaborations.
    pub communities: usize,
    /// Probability a new collaboration stays within one community.
    pub intra_community: f64,
    /// Long-lived collaborations (at scale 1.0): author pairs whose edge
    /// exists every year of [`DblpConfig::stable_span`]. Real DBLP has such
    /// pairs — the paper finds a common edge across [2000, 2017].
    pub stable_pairs: usize,
    /// Number of leading years the stable pairs span.
    pub stable_span: usize,
    /// Fraction of the author pool that are "stars": prolific authors who
    /// publish (>4 papers) every year. High activity is a persistent trait
    /// in real DBLP — it is what makes ≈61% of the paper's Fig.-12
    /// high-activity authors stable across a decade.
    pub star_fraction: f64,
    /// Probability per author-year that an ordinary author spikes above 4
    /// publications (these one-off spikes populate Fig. 12's shrinkage).
    pub spike_prob: f64,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            scale: 1.0,
            seed: 0x9e37_79b9,
            node_persistence: 0.6,
            edge_persistence: 0.15,
            female_ratio: 0.22,
            max_publications: 18,
            communities: 64,
            intra_community: 0.8,
            stable_pairs: 24,
            stable_span: 18,
            star_fraction: 0.006,
            spike_prob: 0.003,
        }
    }
}

impl DblpConfig {
    /// A reduced-size config (`scale`) for tests and quick runs.
    pub fn scaled(scale: f64) -> Self {
        DblpConfig {
            scale,
            ..Default::default()
        }
    }

    /// Node count target for year index `t`.
    pub fn nodes_at(&self, t: usize) -> usize {
        scaled(DBLP_NODES[t], self.scale, 2)
    }

    /// Edge count target for year index `t`.
    pub fn edges_at(&self, t: usize) -> usize {
        scaled(DBLP_EDGES[t], self.scale, 1)
    }

    /// Generates the temporal attributed graph.
    ///
    /// # Errors
    /// Never in practice; propagates builder validation.
    pub fn generate(&self) -> Result<TemporalGraph, GraphError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let nt = DBLP_YEARS.len();
        let domain = TimeDomain::new(DBLP_YEARS.to_vec())?;
        let mut schema = AttributeSchema::new();
        let gender = schema.declare("gender", Temporality::Static)?;
        let pubs = schema.declare("publications", Temporality::TimeVarying)?;

        // Author pool: large enough that yearly turnover always finds fresh
        // authors (the union of all years exceeds any single year).
        let pool: usize = (0..nt).map(|t| self.nodes_at(t)).max().unwrap_or(2) * 3;
        let community: Vec<usize> = (0..pool)
            .map(|_| rng.gen_range(0..self.communities.max(1)))
            .collect();
        let genders: Vec<bool> = (0..pool).map(|_| rng.gen_bool(self.female_ratio)).collect();

        let mut b = GraphBuilder::new(domain, schema);
        let f = b.intern_category(gender, "f");
        let m = b.intern_category(gender, "m");
        let mut ids: Vec<Option<NodeId>> = vec![None; pool];
        let node_of = |b: &mut GraphBuilder, ids: &mut Vec<Option<NodeId>>, n: usize| {
            if let Some(id) = ids[n] {
                return id;
            }
            let id = b.get_or_add_node(&format!("a{n}"));
            ids[n] = Some(id);
            id
        };

        // Stable core: pairs (2i, 2i+1) collaborate every year of the span.
        let core_pairs = ((self.stable_pairs as f64 * self.scale).round() as usize).max(1);
        let core_authors: Vec<usize> = (0..2 * core_pairs.min(pool / 2)).collect();
        let core_edges: Vec<(usize, usize)> =
            core_authors.chunks_exact(2).map(|p| (p[0], p[1])).collect();

        // Stars: prolific authors publishing >4 papers every year. They sit
        // right after the stable-core indices (disjoint, so no persistent
        // star–star edges — the paper observes no stable collaborations
        // among active authors).
        let n_stars = ((pool as f64 * self.star_fraction).round() as usize).max(1);
        let star_base: Vec<usize> = (0..n_stars)
            .map(|_| rng.gen_range(6..=self.max_publications.max(6)) as usize)
            .collect();
        let stars: Vec<usize> = (0..n_stars)
            .map(|i| core_authors.len() + i)
            .filter(|&n| n < pool)
            .collect();
        let is_star =
            |n: usize| -> Option<usize> { stars.binary_search(&n).ok().map(|i| star_base[i]) };
        let forced_active: Vec<usize> = {
            let mut v = core_authors.clone();
            v.extend(&stars);
            v
        };

        let mut prev_active: Vec<usize> = Vec::new();
        let mut prev_edges: Vec<(usize, usize)> = Vec::new();
        for t in 0..nt {
            let in_span = t < self.stable_span;
            let active = evolve_active_set(
                &mut rng,
                pool,
                &prev_active,
                self.nodes_at(t),
                self.node_persistence,
                if in_span { &forced_active } else { &stars },
            );
            for &n in &active {
                let id = node_of(&mut b, &mut ids, n);
                let g = if genders[n] { f.clone() } else { m.clone() };
                b.set_static(id, gender, g)?;
                // Stars publish around their personal baseline (always >4);
                // ordinary authors stay in 1..=4 with rare spikes above.
                let yearly = if let Some(base) = is_star(n) {
                    let wobble: i64 = rng.gen_range(-1..=1);
                    (base as i64 + wobble).clamp(5, self.max_publications.max(5))
                } else if rng.gen_bool(self.spike_prob) {
                    rng.gen_range(5..=self.max_publications.clamp(5, 9))
                } else {
                    skewed_count(&mut rng, 4)
                };
                b.set_time_varying(id, pubs, TimePoint(t as u32), Value::Int(yearly))?;
            }
            // Tiny scales can truncate the forced active set; only force
            // edges whose endpoints made it in.
            let forced_edges: Vec<(usize, usize)> = if in_span {
                core_edges
                    .iter()
                    .copied()
                    .filter(|&(u, v)| {
                        active.binary_search(&u).is_ok() && active.binary_search(&v).is_ok()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let edges = evolve_edges(
                &mut rng,
                &active,
                &prev_edges,
                self.edges_at(t),
                self.edge_persistence,
                &community,
                self.communities.max(1),
                self.intra_community,
                &forced_edges,
            );
            for &(u, v) in &edges {
                let iu = node_of(&mut b, &mut ids, u);
                let iv = node_of(&mut b, &mut ids, v);
                // edge value: papers co-authored that year (mostly 1)
                let joint = skewed_count(&mut rng, 3);
                b.set_edge_value(iu, iv, TimePoint(t as u32), Value::Int(joint))?;
            }
            prev_active = active;
            prev_edges = edges;
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_graph::GraphStats;

    #[test]
    fn counts_match_scaled_table3() {
        let cfg = DblpConfig::scaled(0.02);
        let g = cfg.generate().unwrap();
        let stats = GraphStats::compute(&g);
        for t in 0..DBLP_YEARS.len() {
            assert_eq!(stats.nodes_per_tp[t], cfg.nodes_at(t), "nodes at {t}");
            assert_eq!(stats.edges_per_tp[t], cfg.edges_at(t), "edges at {t}");
        }
    }

    #[test]
    fn deterministic() {
        let a = DblpConfig::scaled(0.01).generate().unwrap();
        let b = DblpConfig::scaled(0.01).generate().unwrap();
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
        let mut cfg = DblpConfig::scaled(0.01);
        cfg.seed = 1;
        let c = cfg.generate().unwrap();
        assert_ne!(
            (a.n_nodes(), a.n_edges()),
            (c.n_nodes(), c.n_edges()),
            "different seed should give a different graph"
        );
    }

    #[test]
    fn attributes_present_for_active_authors() {
        let g = DblpConfig::scaled(0.01).generate().unwrap();
        let pubs = g.schema().id("publications").unwrap();
        let gender = g.schema().id("gender").unwrap();
        for n in g.node_ids() {
            assert!(!g.static_value(n, gender).unwrap().is_null());
            for t in g.node_timestamp(n).iter() {
                let v = g.attr_value(n, pubs, t);
                let p = v.as_int().expect("publications set where active");
                assert!((1..=18).contains(&p));
            }
        }
    }

    #[test]
    fn edges_carry_coauthorship_values() {
        let g = DblpConfig::scaled(0.01).generate().unwrap();
        assert!(g.has_edge_values());
        let mut seen = 0;
        for e in g.edge_ids().take(50) {
            for t in g.edge_timestamp(e).iter() {
                let v = g
                    .edge_value(e, t)
                    .as_int()
                    .expect("value set where present");
                assert!((1..=3).contains(&v));
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn has_both_genders_and_year_overlap() {
        let g = DblpConfig::scaled(0.02).generate().unwrap();
        let gender = g.schema().id("gender").unwrap();
        let f = g.schema().category(gender, "f").unwrap();
        let m = g.schema().category(gender, "m").unwrap();
        let mut nf = 0;
        let mut nm = 0;
        for n in g.node_ids() {
            match g.static_value(n, gender).unwrap() {
                v if v == f => nf += 1,
                v if v == m => nm += 1,
                other => unreachable!("unexpected gender {other:?}"),
            }
        }
        assert!(nf > 0 && nm > nf, "female minority per config");
        // persistence: some authors span consecutive years
        let spanning = g
            .node_ids()
            .filter(|&n| g.node_timestamp(n).len() >= 2)
            .count();
        assert!(spanning > 0);
    }
}
