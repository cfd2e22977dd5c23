//! Time-granularity zooming.
//!
//! The paper's temporal operators view a graph at the granularity of its
//! elementary time points and combine them per query. A complementary
//! operation — the "zoom-out" of Aghasadeghi et al. (EDBT 2020), cited in
//! §1/§6 and a natural extension of GraphTempo — *rewrites* the graph at a
//! coarser granularity: years into decades, days into weeks. Each group of
//! consecutive points becomes one coarse point, and an entity exists at a
//! coarse point under either union semantics (it existed at *some* covered
//! point) or intersection semantics (at *every* covered point) — the same
//! two semantics of §3.1.
//!
//! Time-varying attribute and edge values at a coarse point are the latest
//! non-null value over its covered fine points (the most recent
//! observation), matching the "latest snapshot wins" convention. The
//! zoomed graph is built by [`TemporalGraph::derive`], as Alg. 1's
//! operators build theirs.

use crate::ops::{side_members, SideTest};
use tempo_columnar::BitVec;
use tempo_graph::{EdgeId, GraphError, TemporalGraph, TimeDomain, TimeSet};

/// A partition of a time domain into consecutive groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Granularity {
    /// For each coarse point, the inclusive range `(first, last)` of fine
    /// point indices it covers. Ranges are consecutive and exhaustive.
    groups: Vec<(usize, usize)>,
    labels: Vec<String>,
}

impl Granularity {
    /// Partitions a domain of `fine_len` points into windows of
    /// `window` consecutive points (the last window may be shorter).
    /// Labels are `<first>..<last>` fine labels. A window covering the
    /// whole domain (`window >= n`) yields a single group, consistent with
    /// [`Granularity::from_cuts`] with no cuts.
    ///
    /// # Errors
    /// Returns an error if `window` is zero or the domain is empty.
    pub fn windows(domain: &TimeDomain, window: usize) -> Result<Self, GraphError> {
        let n = domain.len();
        if window == 0 || n == 0 {
            // completes to "interval argument … is empty"
            return Err(GraphError::EmptyInterval(format!(
                "window of {window} points over a domain of {n} points"
            )));
        }
        let cuts: Vec<usize> = (window..n).step_by(window).collect();
        Self::from_cuts(domain, &cuts)
    }

    /// Builds a granularity from explicit group boundaries: `cuts[i]` is the
    /// first fine index of coarse point `i+1` (so `cuts` must be strictly
    /// increasing within `1..fine_len`).
    ///
    /// # Errors
    /// Returns an error on non-increasing or out-of-range cuts.
    pub fn from_cuts(domain: &TimeDomain, cuts: &[usize]) -> Result<Self, GraphError> {
        let n = domain.len();
        let mut prev = 0usize;
        let mut groups = Vec::new();
        for &c in cuts {
            if c <= prev || c >= n {
                return Err(GraphError::EmptyInterval(format!(
                    "cut {c} invalid (previous {prev}, domain {n})"
                )));
            }
            groups.push((prev, c - 1));
            prev = c;
        }
        groups.push((prev, n - 1));
        let labels = groups
            .iter()
            .map(|&(a, b)| {
                if a == b {
                    domain.labels()[a].clone()
                } else {
                    format!("{}..{}", domain.labels()[a], domain.labels()[b])
                }
            })
            .collect();
        Ok(Granularity { groups, labels })
    }

    /// Number of coarse points.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if there are no groups (never the case for a built value).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The fine range covered by coarse point `i`.
    pub fn group(&self, i: usize) -> (usize, usize) {
        self.groups[i]
    }

    /// Labels of the coarse domain.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// Rewrites `g` at a coarser granularity; membership of an entity at a
/// coarse point uses `semantics` ([`SideTest::Any`] = union zoom-out,
/// [`SideTest::All`] = intersection zoom-out). Entities with no coarse
/// presence are dropped.
///
/// ```
/// use graphtempo::ops::SideTest;
/// use graphtempo::zoom::{zoom_out, Granularity};
/// use tempo_graph::fixtures::fig1;
///
/// let g = fig1(); // {t0, t1, t2}
/// let gran = Granularity::windows(g.domain(), 2).unwrap(); // {t0,t1} | {t2}
/// let coarse = zoom_out(&g, &gran, SideTest::Any).unwrap();
/// assert_eq!(coarse.domain().len(), 2);
/// assert_eq!(coarse.n_nodes(), g.n_nodes()); // union zoom keeps everyone
/// ```
///
/// # Errors
/// Returns an error if the result violates model invariants (cannot happen
/// for union semantics; intersection semantics may drop an edge's endpoint
/// only when it also drops the edge).
pub fn zoom_out(
    g: &TemporalGraph,
    granularity: &Granularity,
    semantics: SideTest,
) -> Result<TemporalGraph, GraphError> {
    let fine_n = g.domain().len();
    let coarse_domain = TimeDomain::new(granularity.labels().to_vec())?;
    let masks: Vec<TimeSet> = (granularity.groups.iter())
        .map(|&(a, b)| TimeSet::range(fine_n, a, b))
        .collect();

    // Each coarse point's members over the fine rows: the OR (any) or AND
    // (all) of its window's columns. An edge additionally needs both
    // endpoints there (an intersection-zoomed edge can span a group its
    // endpoint only partially covers — drop those bits).
    let coarse_nodes: Vec<BitVec> = (masks.iter())
        .map(|m| side_members(g.node_presence_columns(), m, semantics))
        .collect();
    let coarse_edges: Vec<BitVec> = (masks.iter().zip(&coarse_nodes))
        .map(|(m, nodes)| {
            let members = side_members(g.edge_presence_columns(), m, semantics);
            let ends_present = |&e: &usize| {
                let (u, v) = g.edge_endpoints(EdgeId(e as u32));
                nodes.get(u.index()) && nodes.get(v.index())
            };
            BitVec::from_indices(g.n_edges(), members.iter_ones().filter(ends_present))
        })
        .collect();
    g.derive(
        coarse_domain,
        &coarse_nodes,
        &coarse_edges,
        &granularity.groups,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_columnar::Value;
    use tempo_graph::fixtures::fig1;
    use tempo_graph::TimePoint;

    #[test]
    fn windows_partition_exhaustively() {
        let d = TimeDomain::indexed(5);
        let gr = Granularity::windows(&d, 2).unwrap();
        assert_eq!(gr.len(), 3);
        assert_eq!(gr.group(0), (0, 1));
        assert_eq!(gr.group(2), (4, 4));
        assert_eq!(gr.labels(), &["t0..t1", "t2..t3", "t4"]);
        assert!(Granularity::windows(&d, 0).is_err());
    }

    #[test]
    fn whole_domain_window_is_single_group() {
        let d = TimeDomain::indexed(5);
        for w in [5, 7, 100] {
            let gr = Granularity::windows(&d, w).unwrap();
            assert_eq!(gr.len(), 1, "window {w}");
            assert_eq!(gr.group(0), (0, 4));
            assert_eq!(gr.labels(), &["t0..t4"]);
            // equivalent to the cut-free partition, which was always accepted
            assert_eq!(gr, Granularity::from_cuts(&d, &[]).unwrap());
        }
    }

    #[test]
    fn cuts_validation() {
        let d = TimeDomain::indexed(6);
        let gr = Granularity::from_cuts(&d, &[2, 4]).unwrap();
        assert_eq!(gr.len(), 3);
        assert_eq!(gr.group(1), (2, 3));
        assert!(Granularity::from_cuts(&d, &[0]).is_err());
        assert!(Granularity::from_cuts(&d, &[4, 2]).is_err());
        assert!(Granularity::from_cuts(&d, &[6]).is_err());
        // no cuts = one group covering everything
        let whole = Granularity::from_cuts(&d, &[]).unwrap();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole.group(0), (0, 5));
    }

    #[test]
    fn union_zoom_keeps_any_presence() {
        let g = fig1();
        let gr = Granularity::from_cuts(g.domain(), &[2]).unwrap(); // {t0,t1} | {t2}
        let z = zoom_out(&g, &gr, SideTest::Any).unwrap();
        assert_eq!(z.domain().len(), 2);
        assert_eq!(z.n_nodes(), 5); // everyone exists somewhere
        let u3 = z.node_id("u3").unwrap();
        assert!(z.node_alive_at(u3, TimePoint(0)));
        assert!(!z.node_alive_at(u3, TimePoint(1)));
        let u5 = z.node_id("u5").unwrap();
        assert!(!z.node_alive_at(u5, TimePoint(0)));
        assert!(z.node_alive_at(u5, TimePoint(1)));
    }

    #[test]
    fn intersection_zoom_requires_full_coverage() {
        let g = fig1();
        let gr = Granularity::from_cuts(g.domain(), &[2]).unwrap();
        let z = zoom_out(&g, &gr, SideTest::All).unwrap();
        // u3 exists only at t0, not throughout {t0,t1} → dropped entirely
        assert!(z.node_id("u3").is_none());
        // u1 covers {t0,t1} fully but not {t2}
        let u1 = z.node_id("u1").unwrap();
        assert!(z.node_alive_at(u1, TimePoint(0)));
        assert!(!z.node_alive_at(u1, TimePoint(1)));
        // edge (u4,u2) exists at t0,t1,t2 → present at both coarse points
        let u4 = z.node_id("u4").unwrap();
        let u2 = z.node_id("u2").unwrap();
        let e = z.edge_between(u4, u2).unwrap();
        assert!(z.edge_alive_at(e, TimePoint(0)) && z.edge_alive_at(e, TimePoint(1)));
        // edge (u1,u2) exists at t0 and t1 → survives the first coarse point
        let e12 = z.edge_between(u1, u2).unwrap();
        assert!(z.edge_alive_at(e12, TimePoint(0)));
    }

    #[test]
    fn tv_values_take_latest_observation() {
        let g = fig1();
        let gr = Granularity::from_cuts(g.domain(), &[2]).unwrap();
        let z = zoom_out(&g, &gr, SideTest::Any).unwrap();
        let pubs = z.schema().id("publications").unwrap();
        // u1: pubs 3 at t0, 1 at t1 → coarse {t0,t1} takes the later value 1
        let u1 = z.node_id("u1").unwrap();
        assert_eq!(z.attr_value(u1, pubs, TimePoint(0)), Value::Int(1));
        // u3 exists only at t0 → its value at the coarse point is t0's
        let u3 = z.node_id("u3").unwrap();
        assert_eq!(z.attr_value(u3, pubs, TimePoint(0)), Value::Int(1));
    }

    #[test]
    fn zoomed_graph_is_valid_and_aggregable() {
        let g = fig1();
        let gr = Granularity::from_cuts(g.domain(), &[1]).unwrap();
        for sem in [SideTest::Any, SideTest::All] {
            let z = zoom_out(&g, &gr, sem).unwrap();
            assert!(z.validate().is_ok());
            let attrs = vec![z.schema().id("gender").unwrap()];
            let agg = crate::aggregate::aggregate(&z, &attrs, crate::aggregate::AggMode::All);
            assert!(agg.total_node_weight() > 0);
        }
    }

    #[test]
    fn zoom_out_edge_endpoints_survive_heavy_dropping() {
        // Intersection zoom drops every even-indexed node, so kept-row
        // indices diverge widely from original row indices. Endpoint lookup
        // must go through the explicit old-row → new-row map — any
        // off-by-anything there rewires edges to the wrong survivors.
        use tempo_graph::{AttributeSchema, GraphBuilder, TimeDomain};
        let mut b = GraphBuilder::new(TimeDomain::indexed(4), AttributeSchema::new());
        let n = 8usize;
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(&format!("v{i}")).unwrap())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                // partial presence → dropped by intersection zoom
                b.set_presence(id, TimePoint(0)).unwrap();
            } else {
                for t in 0..4 {
                    b.set_presence(id, TimePoint(t)).unwrap();
                }
            }
        }
        let pairs = [(1usize, 3usize), (3, 5), (5, 7), (1, 7)];
        for &(x, y) in &pairs {
            for t in 0..4 {
                b.add_edge_at(ids[x], ids[y], TimePoint(t)).unwrap();
            }
        }
        // edges touching to-be-dropped nodes must vanish with them
        b.add_edge_at(ids[0], ids[1], TimePoint(0)).unwrap();
        b.add_edge_at(ids[2], ids[3], TimePoint(0)).unwrap();
        let g = b.build().unwrap();

        let gr = Granularity::windows(g.domain(), 2).unwrap();
        let z = zoom_out(&g, &gr, SideTest::All).unwrap();
        assert!(z.validate().is_ok());
        assert_eq!(z.n_nodes(), 4);
        for i in 0..n {
            assert_eq!(
                z.node_id(&format!("v{i}")).is_some(),
                i % 2 == 1,
                "node v{i}"
            );
        }
        assert_eq!(z.n_edges(), pairs.len());
        for &(x, y) in &pairs {
            let u = z.node_id(&format!("v{x}")).unwrap();
            let v = z.node_id(&format!("v{y}")).unwrap();
            let e = z
                .edge_between(u, v)
                .expect("surviving edge keeps its endpoints");
            assert!(z.edge_alive_at(e, TimePoint(0)), "edge v{x}-v{y}");
            assert!(z.edge_alive_at(e, TimePoint(1)), "edge v{x}-v{y}");
        }
    }

    #[test]
    fn union_zoom_preserves_all_aggregate_entity_counts() {
        // union zoom keeps exactly the entities of the original graph
        let g = fig1();
        let gr = Granularity::windows(g.domain(), 2).unwrap();
        let z = zoom_out(&g, &gr, SideTest::Any).unwrap();
        assert_eq!(z.n_nodes(), g.n_nodes());
        assert_eq!(z.n_edges(), g.n_edges());
    }
}
