//! Error types for the columnar engine.

use std::fmt;

/// Errors produced by frame and matrix operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnarError {
    /// A frame was created with two columns of the same name.
    DuplicateColumn(String),
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A row had the wrong number of values for the frame.
    ArityMismatch {
        /// Expected arity (number of columns).
        expected: usize,
        /// Arity of the offending row.
        got: usize,
    },
    /// Malformed input encountered while parsing delimited text.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An underlying IO failure (message only, kept `Eq`-friendly).
    Io(String),
}

impl fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnarError::DuplicateColumn(c) => write!(f, "duplicate column name {c:?}"),
            ColumnarError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ColumnarError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} values, got {got}"
                )
            }
            ColumnarError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ColumnarError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ColumnarError {}

impl From<std::io::Error> for ColumnarError {
    fn from(e: std::io::Error) -> Self {
        ColumnarError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ColumnarError::ArityMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = ColumnarError::Parse {
            line: 7,
            message: "bad int".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn from_io_error() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: ColumnarError = io.into();
        assert!(matches!(e, ColumnarError::Io(_)));
    }
}
