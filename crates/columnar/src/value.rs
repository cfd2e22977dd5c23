//! Scalar cell values for labeled arrays.
//!
//! Attribute values in GraphTempo are either categorical (gender, age group,
//! occupation) or numeric (publication counts, rating buckets). A missing
//! cell — an attribute of a node at a time point where the node does not
//! exist, rendered "–" in the paper's Table 2 — is [`Value::Null`].

use std::cmp::Ordering;
use std::fmt;

/// A scalar value stored in a frame cell or an attribute table.
///
/// `Value` has a total order so it can serve as a group-by key:
/// `Null < Int(_) < Cat(_) < Str(_)`, with natural ordering inside each
/// variant. Categorical values are interned codes; the mapping back to the
/// original label is owned by the attribute schema.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Missing value (entity absent at this time point).
    Null,
    /// Integer value (counts, bucketed numerics).
    Int(i64),
    /// Interned categorical code.
    Cat(u32),
    /// Owned string (used mainly by IO before interning).
    Str(String),
}

impl Value {
    /// True if the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Cat(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Cat(a), Value::Cat(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "∅"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Cat(c) => write!(f, "#{c}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Cat(c) => write!(f, "#{c}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A tuple of values used as a composite key (a node's attribute tuple
/// `a'`, or the pair of endpoint tuples of an aggregate edge).
pub type ValueTuple = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Cat(1).as_int(), None);
    }

    #[test]
    fn total_order_across_variants() {
        let mut vals = vec![
            Value::Str("b".into()),
            Value::Cat(1),
            Value::Int(-5),
            Value::Null,
            Value::Str("a".into()),
            Value::Int(10),
            Value::Cat(0),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(-5),
                Value::Int(10),
                Value::Cat(0),
                Value::Cat(1),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ]
        );
    }

    #[test]
    fn display_matches_paper_table() {
        assert_eq!(Value::Null.to_string(), "-");
        assert_eq!(Value::Int(3).to_string(), "3");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from("m"), Value::Str("m".into()));
    }
}
