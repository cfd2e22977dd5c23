//! CLI error type.

use std::fmt;
use tempo_graph::GraphError;

/// Errors surfaced to the shell user.
#[derive(Debug)]
pub enum CliError {
    /// Command syntax problem (with usage hint).
    Usage(String),
    /// No graph is loaded yet.
    NoGraph,
    /// Nothing to export yet (no aggregate computed).
    NoAggregate,
    /// A referenced label does not exist.
    Unknown(String),
    /// Underlying model error.
    Graph(GraphError),
    /// Filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "usage: {u}"),
            CliError::NoGraph => write!(f, "no graph loaded — use `generate` or `load` first"),
            CliError::NoAggregate => {
                write!(f, "no aggregate computed yet — run `agg` or `cube` first")
            }
            CliError::Unknown(w) => write!(f, "unknown {w}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<GraphError> for CliError {
    fn from(e: GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CliError::NoGraph.to_string().contains("no graph"));
        assert!(CliError::Usage("agg ...".into())
            .to_string()
            .starts_with("usage"));
        assert!(CliError::Unknown("attribute \"x\"".into())
            .to_string()
            .contains("unknown"));
    }
}
