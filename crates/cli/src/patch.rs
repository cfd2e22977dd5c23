//! Parsing of `append` patch tokens into a [`TimepointPatch`], shared by
//! the interactive shell (`append <label> …`) and `tempo-server`
//! (`append <snapshot> <label> …`).

use crate::error::CliError;
use crate::parser::{parse_attr, parse_value};
use tempo_columnar::Value;
use tempo_graph::{AttrId, TemporalGraph, TimepointPatch};

/// Builds a [`TimepointPatch`] from `append`'s kwarg tokens, resolving
/// attribute names and values against the graph's schema.
///
/// # Errors
/// [`CliError::Usage`] on malformed tokens, [`CliError::Unknown`] for
/// attributes or values the schema cannot resolve.
pub fn parse_patch(
    graph: &TemporalGraph,
    label: &str,
    args: &[String],
) -> Result<TimepointPatch, CliError> {
    let mut patch = TimepointPatch::new(label);
    let pair = |v: &str, what: &str| -> Result<(String, String), CliError> {
        v.split_once(',')
            .map(|(a, b)| (a.trim().to_owned(), b.trim().to_owned()))
            .ok_or_else(|| CliError::Usage(format!("{what}=U,V")))
    };
    for a in args {
        if let Some(v) = a.strip_prefix("node=") {
            patch.mark_node(v.trim());
        } else if let Some(v) = a.strip_prefix("edge=") {
            let (u, w) = pair(v, "edge")?;
            patch.add_edge(u, w);
        } else if let Some(v) = a.strip_prefix("tv=") {
            let (node, attr, value) = attr_triple(graph, v, "tv")?;
            patch.set_time_varying(node, attr, value);
        } else if let Some(v) = a.strip_prefix("static=") {
            let (node, attr, value) = attr_triple(graph, v, "static")?;
            patch.set_static(node, attr, value);
        } else if let Some(v) = a.strip_prefix("edgeval=") {
            let parts: Vec<&str> = v.splitn(3, ',').collect();
            let [u, w, val] = parts[..] else {
                return Err(CliError::Usage("edgeval=U,V,VAL".into()));
            };
            let value = val
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| CliError::Usage("edgeval value must be an integer".into()))?;
            patch.set_edge_value(u.trim(), w.trim(), value);
        } else {
            return Err(CliError::Usage(format!("unexpected append token {a:?}")));
        }
    }
    Ok(patch)
}

/// Parses `NODE,ATTR,VALUE`, resolving the attribute by name and the value
/// as a categorical label of that attribute first, then as an integer.
fn attr_triple(
    graph: &TemporalGraph,
    spec: &str,
    what: &str,
) -> Result<(String, AttrId, Value), CliError> {
    let parts: Vec<&str> = spec.splitn(3, ',').collect();
    let [node, attr_name, val] = parts[..] else {
        return Err(CliError::Usage(format!("{what}=NODE,ATTR,VALUE")));
    };
    let attr = parse_attr(graph, attr_name)?;
    Ok((
        node.trim().to_owned(),
        attr,
        parse_value(graph, attr, val.trim())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_patch_resolves_schema_values() {
        let g = tempo_graph::fixtures::fig1();
        let gender = g.schema().id("gender").expect("fig1 has gender");
        let args: Vec<String> = [
            "node=u9",
            "edge=u1,u9",
            "tv=u9,publications,4",
            "static=u9,gender,f",
            "edgeval=u1,u9,7",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let patch = parse_patch(&g, "t3", &args).expect("valid patch");
        assert_eq!(patch.label(), "t3");
        // the categorical label resolves through the schema …
        assert!(g.schema().category(gender, "f").is_some());
        // … so a token that is neither a category nor an int is rejected
        assert!(parse_patch(&g, "t3", &["static=u9,gender,zzz".to_owned()]).is_err());
        // malformed tokens are usage errors
        assert!(parse_patch(&g, "t3", &["edge=u1".to_owned()]).is_err());
        assert!(parse_patch(&g, "t3", &["tv=u9,publications".to_owned()]).is_err());
        assert!(parse_patch(&g, "t3", &["tv=u9,bogus,1".to_owned()]).is_err());
        assert!(parse_patch(&g, "t3", &["edgeval=u1,u9,notanint".to_owned()]).is_err());
        assert!(parse_patch(&g, "t3", &["wat".to_owned()]).is_err());
    }
}
