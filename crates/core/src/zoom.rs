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
//! Time-varying attribute values at a coarse point are taken from the
//! latest covered fine point at which the node exists (the most recent
//! observation), matching the "latest snapshot wins" convention.

use crate::ops::SideTest;
use tempo_columnar::{BitMatrix, Value, ValueMatrix};
use tempo_graph::{GraphError, TemporalGraph, TimeDomain, TimeSet};

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
        let mut groups = Vec::new();
        let mut labels = Vec::new();
        let mut start = 0;
        while start < n {
            let end = (start + window - 1).min(n - 1);
            groups.push((start, end));
            if start == end {
                labels.push(domain.labels()[start].clone());
            } else {
                labels.push(format!(
                    "{}..{}",
                    domain.labels()[start],
                    domain.labels()[end]
                ));
            }
            start = end + 1;
        }
        Ok(Granularity { groups, labels })
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
    let coarse_n = granularity.len();
    let coarse_domain = TimeDomain::new(granularity.labels().to_vec())?;
    let masks: Vec<TimeSet> = (0..coarse_n)
        .map(|i| {
            let (a, b) = granularity.group(i);
            TimeSet::range(fine_n, a, b)
        })
        .collect();

    let coarse_row =
        |tau: &TimeSet| -> Vec<bool> { masks.iter().map(|m| semantics.member(tau, m)).collect() };

    // Nodes.
    let mut keep_nodes: Vec<usize> = Vec::new();
    let mut node_rows: Vec<Vec<bool>> = Vec::new();
    for n in g.node_ids() {
        let row = coarse_row(&g.node_timestamp(n));
        if row.iter().any(|&b| b) {
            keep_nodes.push(n.index());
            node_rows.push(row);
        }
    }
    // Explicit old-row → new-row map for the kept nodes. The interner also
    // assigns codes in keep order (asserted below), but edge endpoint
    // lookup must not depend on that internal coincidence.
    let mut new_index = vec![usize::MAX; g.n_nodes()];
    let mut names = tempo_columnar::Interner::new();
    let mut node_presence = BitMatrix::new(coarse_n);
    for (new_i, &old) in keep_nodes.iter().enumerate() {
        let code = names.intern(g.node_name(tempo_graph::NodeId(old as u32)).to_owned());
        debug_assert_eq!(code as usize, new_i, "fresh names intern in keep order");
        new_index[old] = new_i;
        node_presence.push_row(&tempo_columnar::BitVec::from_bools(&node_rows[new_i]));
    }

    // Edges: keep those with coarse presence AND both endpoints present at
    // every coarse point the edge claims (an intersection-zoomed edge can
    // span a group its endpoint only partially covers — drop those bits).
    let mut edges = Vec::new();
    let mut edge_presence = BitMatrix::new(coarse_n);
    let mut edge_values = g.edge_values_matrix().map(|_| ValueMatrix::new(coarse_n));
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let (ui, vi) = (new_index[u.index()], new_index[v.index()]);
        if ui == usize::MAX || vi == usize::MAX {
            continue;
        }
        let mut row = coarse_row(&g.edge_timestamp(e));
        let urow = &node_rows[ui];
        let vrow = &node_rows[vi];
        for (i, b) in row.iter_mut().enumerate() {
            *b = *b && urow[i] && vrow[i];
        }
        if row.iter().any(|&b| b) {
            edges.push((
                tempo_graph::NodeId(ui as u32),
                tempo_graph::NodeId(vi as u32),
            ));
            if let (Some(out), Some(src)) = (&mut edge_values, g.edge_values_matrix()) {
                let new_r = out.push_null_row();
                for (ci, present) in row.iter().enumerate() {
                    if !present {
                        continue;
                    }
                    let (a, b) = granularity.group(ci);
                    let latest = (a..=b)
                        .rev()
                        .map(|t| src.get(e.index(), t))
                        .find(|v| !v.is_null())
                        .cloned()
                        .unwrap_or(Value::Null);
                    out.set(new_r, ci, latest);
                }
            }
            edge_presence.push_row(&tempo_columnar::BitVec::from_bools(&row));
        }
    }

    // Static attributes carry over; time-varying values take the latest
    // covered observation.
    let static_table = g.static_table().select_rows(&keep_nodes);
    let schema = g.schema().clone();
    let mut tv_tables = Vec::new();
    for &attr in &schema.time_varying_ids() {
        #[allow(clippy::expect_used)]
        let src = g
            .tv_table(attr)
            .expect("invariant: id came from time_varying_ids, so a table exists");
        let mut tbl = ValueMatrix::new(coarse_n);
        for (new_i, &old) in keep_nodes.iter().enumerate() {
            tbl.push_null_row();
            for (ci, present) in node_rows[new_i].iter().enumerate() {
                if !present {
                    continue;
                }
                let (a, b) = granularity.group(ci);
                let latest = (a..=b)
                    .rev()
                    .map(|t| src.get(old, t))
                    .find(|v| !v.is_null())
                    .cloned()
                    .unwrap_or(Value::Null);
                tbl.set(new_i, ci, latest);
            }
        }
        tv_tables.push(tbl);
    }

    TemporalGraph::from_parts_with_edge_values(
        coarse_domain,
        schema,
        names,
        node_presence,
        edges,
        edge_presence,
        static_table,
        tv_tables,
        edge_values,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
