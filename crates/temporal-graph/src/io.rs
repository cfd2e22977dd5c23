//! On-disk format for temporal attributed graphs.
//!
//! A graph is saved as a directory of tab-separated files, mirroring the
//! layout of the paper's published datasets (presence arrays plus one file
//! per attribute):
//!
//! * `time.tsv` — ordered time labels;
//! * `schema.tsv` — attribute names and temporality;
//! * `nodes.tsv` — node id + one 0/1 presence column per time point;
//! * `edges.tsv` — src, dst + presence columns;
//! * `static.tsv` — node id + one column per static attribute;
//! * `attr_<name>.tsv` — node id + per-time values for each time-varying
//!   attribute (`-` marks absence).

use crate::attrs::{AttributeSchema, Temporality};
use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{NodeId, TemporalGraph};
use crate::time::{TimeDomain, TimePoint};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;
use tempo_columnar::{read_frame, write_frame, Frame, Value};

const DELIM: char = '\t';

fn node_label(g: &TemporalGraph, n: crate::graph::NodeId) -> Value {
    Value::Str(g.node_name(n).to_owned())
}

/// Saves `g` into directory `dir` (created if missing).
///
/// # Errors
/// Returns an error on IO failure.
pub fn save_dir(g: &TemporalGraph, dir: &Path) -> Result<(), GraphError> {
    std::fs::create_dir_all(dir)?;
    let nt = g.domain().len();
    let tlabels: Vec<String> = g.domain().labels().to_vec();

    // time.tsv
    let mut time = Frame::new(vec!["time"])?;
    for l in &tlabels {
        time.push_row(vec![Value::Str(l.clone())])?;
    }
    write_file(&time, &dir.join("time.tsv"))?;

    // schema.tsv
    let mut schema = Frame::new(vec!["name", "kind"])?;
    for (_, def) in g.schema().iter() {
        let kind = match def.temporality() {
            Temporality::Static => "static",
            Temporality::TimeVarying => "time-varying",
        };
        schema.push_row(vec![
            Value::Str(def.name().to_owned()),
            Value::Str(kind.to_owned()),
        ])?;
    }
    write_file(&schema, &dir.join("schema.tsv"))?;

    // nodes.tsv
    let mut cols = vec!["id".to_owned()];
    cols.extend(tlabels.iter().cloned());
    let mut nodes = Frame::new(cols.clone())?;
    for n in g.node_ids() {
        let mut row = Vec::with_capacity(nt + 1);
        row.push(node_label(g, n));
        for t in 0..nt {
            row.push(Value::Int(i64::from(
                g.node_alive_at(n, TimePoint(t as u32)),
            )));
        }
        nodes.push_row(row)?;
    }
    write_file(&nodes, &dir.join("nodes.tsv"))?;

    // edges.tsv
    let mut ecols = vec!["src".to_owned(), "dst".to_owned()];
    ecols.extend(tlabels.iter().cloned());
    let mut edges = Frame::new(ecols)?;
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let mut row = Vec::with_capacity(nt + 2);
        row.push(node_label(g, u));
        row.push(node_label(g, v));
        for t in 0..nt {
            row.push(Value::Int(i64::from(
                g.edge_alive_at(e, TimePoint(t as u32)),
            )));
        }
        edges.push_row(row)?;
    }
    write_file(&edges, &dir.join("edges.tsv"))?;

    // static.tsv
    let static_ids = g.schema().static_ids();
    let mut scols = vec!["id".to_owned()];
    scols.extend(
        static_ids
            .iter()
            .map(|&a| g.schema().def(a).name().to_owned()),
    );
    let mut stat = Frame::new(scols)?;
    for n in g.node_ids() {
        let mut row = Vec::with_capacity(static_ids.len() + 1);
        row.push(node_label(g, n));
        for &a in &static_ids {
            #[allow(clippy::expect_used)]
            let v = g
                .static_value(n, a)
                .expect("invariant: id came from static_ids, so the attribute is static");
            row.push(match v {
                Value::Null => Value::Null,
                Value::Cat(c) => Value::Str(
                    g.schema()
                        .def(a)
                        .category_label(c)
                        .cloned()
                        .unwrap_or_else(|| format!("#{c}")),
                ),
                other => other,
            });
        }
        stat.push_row(row)?;
    }
    write_file(&stat, &dir.join("static.tsv"))?;

    // edge_values.tsv (only when the graph carries edge values)
    if let Some(ev) = g.edge_values_matrix() {
        let mut vcols = vec!["src".to_owned(), "dst".to_owned()];
        vcols.extend(tlabels.iter().cloned());
        let mut vf = Frame::new(vcols)?;
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            let mut row = Vec::with_capacity(nt + 2);
            row.push(node_label(g, u));
            row.push(node_label(g, v));
            for t in 0..nt {
                row.push(ev.get(e.index(), t).clone());
            }
            vf.push_row(row)?;
        }
        write_file(&vf, &dir.join("edge_values.tsv"))?;
    }

    // attr_<name>.tsv
    for &a in &g.schema().time_varying_ids() {
        let def = g.schema().def(a);
        #[allow(clippy::expect_used)]
        let tbl = g
            .tv_table(a)
            .expect("invariant: id came from time_varying_ids, so a table exists");
        let mut acols = vec!["id".to_owned()];
        acols.extend(tlabels.iter().cloned());
        let mut af = Frame::new(acols)?;
        for n in g.node_ids() {
            let mut row = Vec::with_capacity(nt + 1);
            row.push(node_label(g, n));
            for t in 0..nt {
                row.push(match tbl.get(n.index(), t) {
                    Value::Cat(c) => Value::Str(
                        def.category_label(*c)
                            .cloned()
                            .unwrap_or_else(|| format!("#{c}")),
                    ),
                    other => other.clone(),
                });
            }
            af.push_row(row)?;
        }
        write_file(&af, &dir.join(format!("attr_{}.tsv", def.name())))?;
    }
    Ok(())
}

fn write_file(f: &Frame, path: &Path) -> Result<(), GraphError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_frame(f, &mut w, DELIM)?;
    Ok(())
}

fn read_file(path: &Path) -> Result<Frame, GraphError> {
    let file = File::open(path)
        .map_err(|e| GraphError::Format(format!("cannot open {}: {e}", path.display())))?;
    Ok(read_frame(BufReader::new(file), DELIM)?)
}

/// Resolves a node id that must already be declared in `nodes.tsv`.
///
/// Every file except `nodes.tsv` may only reference declared nodes; an
/// unknown id is a corrupt directory (e.g. a typo'd edge endpoint), not a
/// request to invent a phantom node with empty presence.
fn resolve_node(b: &GraphBuilder, file: &str, id: &str) -> Result<NodeId, GraphError> {
    b.node_id(id).ok_or_else(|| {
        GraphError::Format(format!(
            "{file}: unknown node id {id:?} (not declared in nodes.tsv)"
        ))
    })
}

/// Parses a presence cell, which must be exactly `0` or `1`.
fn presence_bit(cell: &Value, file: &str, who: &str) -> Result<bool, GraphError> {
    match cell.as_int() {
        Some(0) => Ok(false),
        Some(1) => Ok(true),
        _ => Err(GraphError::Format(format!(
            "{file}: presence cell for {who} must be 0 or 1, got {:?}",
            cell_to_string(cell)
        ))),
    }
}

fn cell_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Loads a graph from a directory written by [`save_dir`].
///
/// # Errors
/// Returns an error on IO failure or malformed/inconsistent files.
pub fn load_dir(dir: &Path) -> Result<TemporalGraph, GraphError> {
    let time = read_file(&dir.join("time.tsv"))?;
    let labels: Vec<String> = time.iter_rows().map(|r| cell_to_string(&r[0])).collect();
    let domain = TimeDomain::new(labels.clone())?;
    let nt = domain.len();

    let schema_frame = read_file(&dir.join("schema.tsv"))?;
    let mut schema = AttributeSchema::new();
    for row in schema_frame.iter_rows() {
        let name = cell_to_string(&row[0]);
        let kind = cell_to_string(&row[1]);
        let temporality = match kind.as_str() {
            "static" => Temporality::Static,
            "time-varying" => Temporality::TimeVarying,
            other => {
                return Err(GraphError::Format(format!(
                    "unknown attribute kind {other:?} for {name:?}"
                )))
            }
        };
        schema.declare(&name, temporality)?;
    }

    let mut b = GraphBuilder::new(domain, schema);

    let nodes = read_file(&dir.join("nodes.tsv"))?;
    if nodes.ncols() != nt + 1 {
        return Err(GraphError::Format(format!(
            "nodes.tsv has {} columns, expected {}",
            nodes.ncols(),
            nt + 1
        )));
    }
    for row in nodes.iter_rows() {
        let id = cell_to_string(&row[0]);
        let n = b.get_or_add_node(&id);
        for (t, cell) in row[1..].iter().enumerate() {
            if presence_bit(cell, "nodes.tsv", &id)? {
                b.set_presence(n, TimePoint(t as u32))?;
            }
        }
    }

    let stat = read_file(&dir.join("static.tsv"))?;
    let n_static = b.schema().static_ids().len();
    if stat.ncols() != n_static + 1 {
        return Err(GraphError::Format(format!(
            "static.tsv has {} columns, expected {}",
            stat.ncols(),
            n_static + 1
        )));
    }
    let static_names: Vec<String> = stat.columns()[1..].to_vec();
    for row in stat.iter_rows() {
        let n = resolve_node(&b, "static.tsv", &cell_to_string(&row[0]))?;
        for (i, name) in static_names.iter().enumerate() {
            let attr = b.schema().id(name)?;
            let cell = &row[i + 1];
            let value = match cell {
                Value::Null => Value::Null,
                Value::Int(v) => Value::Int(*v),
                other => b.intern_category(attr, &cell_to_string(other)),
            };
            b.set_static(n, attr, value)?;
        }
    }

    let tv_names: Vec<String> = b
        .schema()
        .time_varying_ids()
        .iter()
        .map(|&a| b.schema().def(a).name().to_owned())
        .collect();
    for name in tv_names {
        let attr = b.schema().id(&name)?;
        let af = read_file(&dir.join(format!("attr_{name}.tsv")))?;
        if af.ncols() != nt + 1 {
            return Err(GraphError::Format(format!(
                "attr_{name}.tsv has {} columns, expected {}",
                af.ncols(),
                nt + 1
            )));
        }
        let file = format!("attr_{name}.tsv");
        for row in af.iter_rows() {
            let n = resolve_node(&b, &file, &cell_to_string(&row[0]))?;
            for (t, cell) in row[1..].iter().enumerate() {
                let value = match cell {
                    Value::Null => continue,
                    Value::Int(v) => Value::Int(*v),
                    other => b.intern_category(attr, &cell_to_string(other)),
                };
                b.set_time_varying_unchecked(n, attr, TimePoint(t as u32), value)?;
            }
        }
    }

    let edges = read_file(&dir.join("edges.tsv"))?;
    if edges.ncols() != nt + 2 {
        return Err(GraphError::Format(format!(
            "edges.tsv has {} columns, expected {}",
            edges.ncols(),
            nt + 2
        )));
    }
    for row in edges.iter_rows() {
        let su = cell_to_string(&row[0]);
        let sv = cell_to_string(&row[1]);
        let u = resolve_node(&b, "edges.tsv", &su)?;
        let v = resolve_node(&b, "edges.tsv", &sv)?;
        let who = format!("{su}->{sv}");
        for (t, cell) in row[2..].iter().enumerate() {
            if presence_bit(cell, "edges.tsv", &who)? {
                b.add_edge_at_unchecked(u, v, TimePoint(t as u32))?;
            }
        }
    }

    let values_path = dir.join("edge_values.tsv");
    if values_path.exists() {
        let vf = read_file(&values_path)?;
        if vf.ncols() != nt + 2 {
            return Err(GraphError::Format(format!(
                "edge_values.tsv has {} columns, expected {}",
                vf.ncols(),
                nt + 2
            )));
        }
        for row in vf.iter_rows() {
            let u = resolve_node(&b, "edge_values.tsv", &cell_to_string(&row[0]))?;
            let v = resolve_node(&b, "edge_values.tsv", &cell_to_string(&row[1]))?;
            for (t, cell) in row[2..].iter().enumerate() {
                if !cell.is_null() {
                    b.set_edge_value(u, v, TimePoint(t as u32), cell.clone())?;
                }
            }
        }
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tempo_graph_io_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_fig1() {
        let g = fig1();
        let dir = tmpdir("roundtrip");
        save_dir(&g, &dir).unwrap();
        let h = load_dir(&dir).unwrap();
        assert_eq!(h.n_nodes(), g.n_nodes());
        assert_eq!(h.n_edges(), g.n_edges());
        assert_eq!(h.domain().labels(), g.domain().labels());
        for n in g.node_ids() {
            let name = g.node_name(n);
            let hn = h.node_id(name).unwrap();
            assert_eq!(
                h.node_timestamp(hn).iter().collect::<Vec<_>>(),
                g.node_timestamp(n).iter().collect::<Vec<_>>(),
                "presence of {name}"
            );
        }
        // attribute values survive (categorical labels re-interned)
        let gender_g = g.schema().id("gender").unwrap();
        let gender_h = h.schema().id("gender").unwrap();
        for n in g.node_ids() {
            let name = g.node_name(n);
            let hn = h.node_id(name).unwrap();
            let vg = g.static_value(n, gender_g).unwrap();
            let vh = h.static_value(hn, gender_h).unwrap();
            assert_eq!(
                g.schema().def(gender_g).render(&vg),
                h.schema().def(gender_h).render(&vh),
                "gender of {name}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_errors() {
        let err = load_dir(Path::new("/nonexistent/graphtempo")).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn load_malformed_schema_errors() {
        let dir = tmpdir("badschema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("time.tsv"), "time\nt0\n").unwrap();
        std::fs::write(dir.join("schema.tsv"), "name\tkind\ngender\tweird\n").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
