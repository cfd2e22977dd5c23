//! Export of aggregate and evolution graphs.
//!
//! Aggregate graphs are the user-facing output of GraphTempo; this module
//! renders them as Graphviz DOT (the paper's Figs. 3–4 are exactly such
//! drawings) and as TSV frames for downstream tooling.

use crate::aggregate::{Aggregate, AggregateGraph};
use crate::evolution::{EvolutionAggregate, EvolutionWeights};
use std::fmt::Write as _;
use tempo_columnar::{ColumnarError, Frame, Value, ValueTuple};
use tempo_graph::{AttrId, TemporalGraph};

/// The text of an attribute tuple, `f,1`: each value as its attribute
/// renders it (a category by its label). Without a source graph, or with
/// attribute ids that do not match the tuple, each value prints bare
/// (a category by its code, `#1,1`).
pub fn render_tuple(source: Option<&TemporalGraph>, attrs: &[AttrId], tuple: &[Value]) -> String {
    let parts: Vec<String> = (labelled(source, attrs, tuple).iter())
        .map(Value::to_string)
        .collect();
    parts.join(",")
}

/// The values of `tuple` as [`render_tuple`] prints them: a category as its
/// label, when `source` and `attrs` resolve it, and every other value as
/// it is.
fn labelled(source: Option<&TemporalGraph>, attrs: &[AttrId], tuple: &[Value]) -> Vec<Value> {
    match source {
        Some(g) if attrs.len() == tuple.len() => (attrs.iter().zip(tuple))
            .map(|(&a, v)| match v {
                Value::Cat(_) => Value::Str(g.schema().def(a).render(v)),
                v => v.clone(),
            })
            .collect(),
        _ => tuple.to_vec(),
    }
}

/// Renders an aggregate graph as Graphviz DOT (directed).
///
/// When the source graph is supplied, categorical codes resolve to their
/// labels (e.g. `f,1` instead of `#1,1`).
pub fn aggregate_to_dot(agg: &AggregateGraph, source: Option<&TemporalGraph>) -> String {
    to_dot(
        agg,
        source,
        ("aggregate", ""),
        |w| format!("w={w}"),
        |w| w.to_string(),
    )
}

/// Renders an aggregated evolution graph as DOT, annotating every entity
/// with its stability/growth/shrinkage weights (the paper's Fig. 4b).
pub fn evolution_to_dot(evo: &EvolutionAggregate, source: Option<&TemporalGraph>) -> String {
    let weights = |w: EvolutionWeights| w.to_string();
    to_dot(evo, source, ("evolution", " [St/Gr/Shr]"), weights, weights)
}

/// `digraph <kind>`, titled `<kind> on (<attributes>)<legend>`: a node per
/// aggregate node, labelled with its tuple and `node_label` of its weight,
/// and an edge per aggregate edge, labelled with `edge_label` of its weight.
fn to_dot<W: Copy>(
    agg: &Aggregate<W>,
    source: Option<&TemporalGraph>,
    (kind, legend): (&str, &str),
    node_label: impl Fn(W) -> String,
    edge_label: impl Fn(W) -> String,
) -> String {
    let attrs = source.map(|g| agg.attr_ids(g)).unwrap_or_default();
    let tuple = |t: &[Value]| render_tuple(source, &attrs, t);
    let mut out = format!("digraph {kind} {{\n");
    let names = agg.attr_names().join(",");
    let _ = writeln!(out, "  label=\"{kind} on ({names}){legend}\";");
    for (t, w) in agg.iter_nodes() {
        let label = tuple(t);
        let _ = writeln!(
            out,
            "  \"{label}\" [label=\"{label}\\n{}\"];",
            node_label(w)
        );
    }
    for ((s, d), w) in agg.iter_edges() {
        let (s, d, w) = (tuple(s), tuple(d), edge_label(w));
        let _ = writeln!(out, "  \"{s}\" -> \"{d}\" [label=\"{w}\"];");
    }
    out.push_str("}\n");
    out
}

/// Converts an aggregate graph's nodes into a frame: one column per
/// attribute plus `weight`. When the source graph is supplied, categorical
/// codes resolve to their labels, as in [`aggregate_to_dot`].
///
/// # Errors
/// Returns an error if the attribute names collide with `weight`.
pub fn aggregate_nodes_frame(
    agg: &AggregateGraph,
    source: Option<&TemporalGraph>,
) -> Result<Frame, ColumnarError> {
    let rows = agg.iter_nodes().into_iter().map(|(t, w)| (vec![t], w));
    weighted_frame(agg, source, agg.attr_names().to_vec(), rows)
}

/// Converts an aggregate graph's edges into a frame: `src_*` and `dst_*`
/// columns per attribute plus `weight`, labelled as in
/// [`aggregate_nodes_frame`].
///
/// # Errors
/// Returns an error if the generated column names collide.
pub fn aggregate_edges_frame(
    agg: &AggregateGraph,
    source: Option<&TemporalGraph>,
) -> Result<Frame, ColumnarError> {
    let side = |side: &'static str| (agg.attr_names().iter()).map(move |n| format!("{side}_{n}"));
    let rows = agg
        .iter_edges()
        .into_iter()
        .map(|((s, d), w)| (vec![s, d], w));
    weighted_frame(agg, source, side("src").chain(side("dst")).collect(), rows)
}

/// A frame of `cols` and `weight`: a row per list of tuples and its weight,
/// each tuple's values as [`render_tuple`] prints them.
fn weighted_frame<'a>(
    agg: &AggregateGraph,
    source: Option<&TemporalGraph>,
    mut cols: Vec<String>,
    rows: impl Iterator<Item = (Vec<&'a ValueTuple>, u64)>,
) -> Result<Frame, ColumnarError> {
    let attrs = source.map(|g| agg.attr_ids(g)).unwrap_or_default();
    cols.push("weight".to_owned());
    let mut f = Frame::new(cols)?;
    for (tuples, w) in rows {
        let labels = tuples.iter().flat_map(|t| labelled(source, &attrs, t));
        f.push_row(labels.chain([Value::Int(w as i64)]).collect())?;
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{aggregate, AggMode};
    use crate::evolution::evolution_aggregate;
    use tempo_graph::fixtures::fig1;
    use tempo_graph::TimeSet;

    fn gender_agg() -> (TemporalGraph, AggregateGraph) {
        let g = fig1();
        let attrs = vec![g.schema().id("gender").unwrap()];
        let agg = aggregate(&g, &attrs, AggMode::Distinct);
        (g, agg)
    }

    #[test]
    fn dot_contains_resolved_labels() {
        let (g, agg) = gender_agg();
        let dot = aggregate_to_dot(&agg, Some(&g));
        assert!(dot.starts_with("digraph aggregate {"));
        assert!(dot.contains("\"f\""));
        assert!(dot.contains("\"m\""));
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_without_source_uses_codes() {
        let (_, agg) = gender_agg();
        let dot = aggregate_to_dot(&agg, None);
        assert!(dot.contains("#0") || dot.contains("#1"));
    }

    #[test]
    fn evolution_dot_has_three_weights() {
        let g = fig1();
        let attrs = vec![g.schema().id("gender").unwrap()];
        let t1 = TimeSet::from_indices(3, [0]);
        let t2 = TimeSet::from_indices(3, [1]);
        let evo = evolution_aggregate(&g, &t1, &t2, &attrs, None).unwrap();
        let dot = evolution_to_dot(&evo, Some(&g));
        assert!(dot.contains("St="));
        assert!(dot.contains("Gr="));
        assert!(dot.contains("Shr="));
    }

    /// Fig. 1 aggregated (DIST) on (gender, publications).
    fn pair_agg() -> (TemporalGraph, AggregateGraph) {
        let g = fig1();
        let attrs = ["gender", "publications"].map(|n| g.schema().id(n).unwrap());
        let agg = aggregate(&g, &attrs, AggMode::Distinct);
        (g, agg)
    }

    #[test]
    fn aggregate_dot_bytes() {
        let (g, agg) = pair_agg();
        let expected = "digraph aggregate {
  label=\"aggregate on (gender,publications)\";
  \"m,1\" [label=\"m,1\\nw=1\"];
  \"m,3\" [label=\"m,3\\nw=2\"];
  \"f,1\" [label=\"f,1\\nw=3\"];
  \"f,2\" [label=\"f,2\\nw=1\"];
  \"m,1\" -> \"f,1\" [label=\"1\"];
  \"m,3\" -> \"f,1\" [label=\"2\"];
  \"f,1\" -> \"f,1\" [label=\"2\"];
  \"f,2\" -> \"f,1\" [label=\"1\"];
}
";
        assert_eq!(aggregate_to_dot(&agg, Some(&g)), expected);
        let codes = expected.replace("m,", "#0,").replace("f,", "#1,");
        assert_eq!(aggregate_to_dot(&agg, None), codes);
    }

    #[test]
    fn evolution_dot_bytes() {
        let g = fig1();
        let attrs = vec![g.schema().id("gender").unwrap()];
        let (t1, t2) = (TimeSet::from_indices(3, [0]), TimeSet::from_indices(3, [1]));
        let evo = evolution_aggregate(&g, &t1, &t2, &attrs, None).unwrap();
        let expected = "digraph evolution {
  label=\"evolution on (gender) [St/Gr/Shr]\";
  \"m\" [label=\"m\\nSt=1 Gr=0 Shr=0\"];
  \"f\" [label=\"f\\nSt=2 Gr=0 Shr=1\"];
  \"m\" -> \"f\" [label=\"St=1 Gr=0 Shr=0\"];
  \"f\" -> \"f\" [label=\"St=1 Gr=0 Shr=1\"];
}
";
        assert_eq!(evolution_to_dot(&evo, Some(&g)), expected);
    }

    #[test]
    fn frame_tsv_bytes() {
        let (g, agg) = pair_agg();
        let tsv = |f: Frame| {
            let mut out = Vec::new();
            tempo_columnar::write_frame(&f, &mut out, '\t').unwrap();
            String::from_utf8(out).unwrap()
        };
        let nodes = "gender\tpublications\tweight\nm\t1\t1\nm\t3\t2\nf\t1\t3\nf\t2\t1\n";
        let edges = "src_gender\tsrc_publications\tdst_gender\tdst_publications\tweight\n\
             m\t1\tf\t1\t1\nm\t3\tf\t1\t2\nf\t1\tf\t1\t2\nf\t2\tf\t1\t1\n";
        assert_eq!(tsv(aggregate_nodes_frame(&agg, Some(&g)).unwrap()), nodes);
        assert_eq!(tsv(aggregate_edges_frame(&agg, Some(&g)).unwrap()), edges);
        let codes = |s: &str| s.replace("m\t", "#0\t").replace("f\t", "#1\t");
        assert_eq!(
            tsv(aggregate_nodes_frame(&agg, None).unwrap()),
            codes(nodes)
        );
        assert_eq!(
            tsv(aggregate_edges_frame(&agg, None).unwrap()),
            codes(edges)
        );
    }

    #[test]
    fn frames_roundtrip_weights() {
        let (_, agg) = gender_agg();
        let nodes = aggregate_nodes_frame(&agg, None).unwrap();
        assert_eq!(nodes.columns().last().map(String::as_str), Some("weight"));
        let total: i64 = nodes
            .iter_rows()
            .map(|r| r.last().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total as u64, agg.total_node_weight());

        let edges = aggregate_edges_frame(&agg, None).unwrap();
        assert_eq!(edges.ncols(), 3); // src_gender, dst_gender, weight
        let etotal: i64 = edges
            .iter_rows()
            .map(|r| r.last().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(etotal as u64, agg.total_edge_weight());
    }
}
