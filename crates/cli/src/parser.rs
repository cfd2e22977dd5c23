//! Command-line tokenization and interval/argument parsing.

use crate::error::CliError;
use tempo_columnar::Value;
use tempo_graph::{AttrId, TemporalGraph, TimeDomain, TimeSet};

/// Splits a command line into tokens, honoring double quotes.
pub fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Parses a time-point reference: a domain label (`2005`, `May`) or a
/// 0-based index written `#3`.
pub fn parse_point(domain: &TimeDomain, token: &str) -> Result<usize, CliError> {
    if let Some(idx) = token.strip_prefix('#') {
        let i: usize = idx
            .parse()
            .map_err(|_| CliError::Unknown(format!("time index {token:?}")))?;
        if i >= domain.len() {
            return Err(CliError::Unknown(format!(
                "time index {i} (domain has {} points)",
                domain.len()
            )));
        }
        return Ok(i);
    }
    domain
        .point(token)
        .map(|t| t.index())
        .ok_or_else(|| CliError::Unknown(format!("time point {token:?}")))
}

/// Parses an interval: `<point>` or `<point>..<point>` (inclusive).
pub fn parse_interval(domain: &TimeDomain, token: &str) -> Result<TimeSet, CliError> {
    let n = domain.len();
    if let Some((a, b)) = token.split_once("..") {
        let (ia, ib) = (parse_point(domain, a)?, parse_point(domain, b)?);
        if ia > ib {
            return Err(CliError::Usage(format!(
                "interval {token:?} is reversed ({a} comes after {b})"
            )));
        }
        Ok(TimeSet::range(n, ia, ib))
    } else {
        let i = parse_point(domain, token)?;
        Ok(TimeSet::range(n, i, i))
    }
}

/// Resolves an attribute by name.
pub fn parse_attr(g: &TemporalGraph, name: &str) -> Result<AttrId, CliError> {
    g.schema()
        .id(name.trim())
        .map_err(|_| CliError::Unknown(format!("attribute {name:?}")))
}

/// Parses an attribute value token: categorical label first, then int.
pub fn parse_value(g: &TemporalGraph, attr: AttrId, token: &str) -> Result<Value, CliError> {
    if let Some(v) = g.schema().category(attr, token) {
        return Ok(v);
    }
    token
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| CliError::Unknown(format!("value {token:?} for attribute")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> TimeDomain {
        TimeDomain::new(vec!["May", "Jun", "Jul", "Aug"]).unwrap()
    }

    #[test]
    fn tokenize_respects_quotes() {
        assert_eq!(
            tokenize(r#"load "my dir/graph"  extra"#),
            vec!["load", "my dir/graph", "extra"]
        );
        assert_eq!(tokenize("   "), Vec::<String>::new());
    }

    #[test]
    fn parse_points_by_label_and_index() {
        let d = domain();
        assert_eq!(parse_point(&d, "Jun").unwrap(), 1);
        assert_eq!(parse_point(&d, "#3").unwrap(), 3);
        assert!(parse_point(&d, "Nov").is_err());
        assert!(parse_point(&d, "#9").is_err());
        assert!(parse_point(&d, "#x").is_err());
    }

    #[test]
    fn parse_intervals() {
        let d = domain();
        let s = parse_interval(&d, "Jun..Aug").unwrap();
        assert_eq!(s.len(), 3);
        let p = parse_interval(&d, "May").unwrap();
        assert_eq!(p.len(), 1);
        assert!(parse_interval(&d, "Aug..May").is_err());
        assert!(parse_interval(&d, "Aug..Nov").is_err());
    }
}
