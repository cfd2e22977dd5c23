//! The declaration table: every metric the workspace records, once.
//!
//! An emitter writes `metrics::EXPLORE_EVALUATIONS.inc()`; a name that is
//! not declared here, or a counter used as a histogram, does not compile.
//! [`ALL`] is what [`crate::Registry::snapshot`] walks, so a reader sees
//! every declared name from the first snapshot on. Keep the table sorted by
//! name — a unit test enforces it — and give every metric a reader (a
//! benchmark row, a test, a CI assertion or a doc section): one nobody reads
//! is deleted with its emit code.
//!
//! The server's per-verb `server.cmd.<verb>_ns` family is not declared here:
//! its members follow the command table, so `tempo-server` builds one
//! [`Histogram`] per served verb and appends them to the snapshot it renders.

use crate::{Counter, Histogram, MetricRef};

/// Declares each `Kind IDENT = "name";` as a `pub static` and lists them
/// all, by name, in [`ALL`].
macro_rules! metrics {
    ($($(#[$doc:meta])* $kind:ident $id:ident = $name:literal;)*) => {
        $($(#[$doc])* pub static $id: $kind = $kind::new();)*

        /// Every declared metric under its dotted name, sorted by name.
        pub static ALL: &[(&str, MetricRef)] = &[$(($name, MetricRef::$kind(&$id))),*];
    };
}

metrics! {
    /// Group-id columns of a cached attribute list extended by an append.
    Counter GROUP_TABLE_CACHE_EXTENDS = "aggregate.group_table.cache_extends";
    /// Requests that found their attribute list's group-id columns cached.
    Counter GROUP_TABLE_CACHE_HITS = "aggregate.group_table.cache_hits";
    /// Requests that had to build their attribute list's group-id columns.
    Counter GROUP_TABLE_CACHE_MISSES = "aggregate.group_table.cache_misses";
    /// Time to build one attribute list's group-id columns from scratch.
    Histogram GROUP_TABLE_BUILD_NS = "aggregate.group_table_build_ns";
    /// Group-id column sets built from scratch, cached or not.
    Counter GROUP_TABLES_BUILT = "aggregate.group_tables_built";
    /// Time counting an evaluation's written event mask.
    Histogram EXPLORE_COUNT_NS = "explore.count_ns";
    /// Chain cursors built: one per exploration run or threshold scan.
    Counter EXPLORE_CURSOR_BUILDS = "explore.cursor.builds";
    /// Reference chains loaded into a cursor.
    Counter EXPLORE_CURSOR_CHAINS = "explore.cursor.chains";
    /// Time of one incremental chain step.
    Histogram EXPLORE_CURSOR_STEP_NS = "explore.cursor.step_ns";
    /// Incremental chain steps (one whole-vector OR/AND each).
    Counter EXPLORE_CURSOR_STEPS = "explore.cursor.steps";
    /// Time of one interval-pair evaluation.
    Histogram EXPLORE_EVAL_NS = "explore.eval_ns";
    /// Interval pairs evaluated; the sum of `ExploreOutcome::evaluations`.
    Counter EXPLORE_EVALUATIONS = "explore.evaluations";
    /// Time to set up one exploration kernel (group table + count target).
    Histogram EXPLORE_KERNEL_BUILD_NS = "explore.kernel_build_ns";
    /// Time writing an evaluation's event mask.
    Histogram EXPLORE_MASK_NS = "explore.mask_ns";
    /// Selector match columns built for a tuple selector.
    Counter EXPLORE_MATCH_COLS_BUILDS = "explore.match_cols.builds";
    /// Selector match columns found cached on the snapshot.
    Counter EXPLORE_MATCH_COLS_HITS = "explore.match_cols.hits";
    /// Interval pairs a monotonicity shortcut skipped.
    Counter EXPLORE_PRUNED = "explore.pruned";
    /// Time to build a per-time-point aggregate store.
    Histogram MATERIALIZE_STORE_BUILD_NS = "materialize.store_build_ns";
    /// Requests answered `ERR` other than a timeout.
    Counter SERVER_ERRORS = "server.errors";
    /// Time from a request line's arrival to its encoded answer.
    Histogram SERVER_REQUEST_NS = "server.request_ns";
    /// Request lines handled.
    Counter SERVER_REQUESTS = "server.requests";
    /// Reply rows a row limit cut, shell and wire.
    Counter SERVER_ROWS_TRUNCATED = "server.rows_truncated";
    /// Requests answered `ERR timeout`.
    Counter SERVER_TIMEOUTS = "server.timeouts";
}
