//! Dataset statistics: the per-timepoint profiles of Tables 3 and 4.

use crate::graph::TemporalGraph;
use std::fmt::Write as _;

/// Per-timepoint and aggregate statistics of a temporal graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Time labels in domain order.
    pub time_labels: Vec<String>,
    /// Nodes existing at each time point.
    pub nodes_per_tp: Vec<usize>,
    /// Edges existing at each time point.
    pub edges_per_tp: Vec<usize>,
    /// Total node rows.
    pub total_nodes: usize,
    /// Total edge rows.
    pub total_edges: usize,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn compute(g: &TemporalGraph) -> Self {
        let nt = g.domain().len();
        let mut nodes_per_tp = Vec::with_capacity(nt);
        let mut edges_per_tp = Vec::with_capacity(nt);
        for t in g.domain().iter() {
            nodes_per_tp.push(g.nodes_at(t));
            edges_per_tp.push(g.edges_at(t));
        }
        GraphStats {
            time_labels: g.domain().labels().to_vec(),
            nodes_per_tp,
            edges_per_tp,
            total_nodes: g.n_nodes(),
            total_edges: g.n_edges(),
        }
    }

    /// Renders the statistics as a paper-style table (cf. Tables 3 and 4):
    /// one column per time point, rows `#Nodes` / `#Edges`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut header = String::from("#TP");
        let mut nodes = String::from("#Nodes");
        let mut edges = String::from("#Edges");
        for (i, label) in self.time_labels.iter().enumerate() {
            let width = label
                .len()
                .max(self.nodes_per_tp[i].to_string().len())
                .max(self.edges_per_tp[i].to_string().len());
            let _ = write!(header, " {label:>width$}");
            let _ = write!(nodes, " {:>width$}", self.nodes_per_tp[i]);
            let _ = write!(edges, " {:>width$}", self.edges_per_tp[i]);
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{nodes}");
        let _ = writeln!(out, "{edges}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;

    #[test]
    fn fig1_stats() {
        let g = fig1();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes_per_tp, vec![4, 3, 3]);
        assert_eq!(s.edges_per_tp, vec![3, 2, 2]);
        assert_eq!(s.total_nodes, 5);
        assert_eq!(s.total_edges, 4);
    }

    #[test]
    fn render_contains_counts() {
        let g = fig1();
        let table = GraphStats::compute(&g).render_table();
        assert!(table.contains("#Nodes"));
        assert!(table.contains("#Edges"));
        assert!(table.contains('4'));
    }
}
