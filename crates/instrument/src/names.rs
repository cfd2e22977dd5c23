//! Central registry of metric names.
//!
//! Every counter/gauge/histogram name recorded anywhere in the workspace
//! must appear in [`ALL`]: the global registry `debug_assert!`s each name it
//! is asked for against this list, literal or computed, so an emitter and
//! the readers of a snapshot cannot silently drift apart. Keep the list
//! sorted — a unit test enforces it.

/// All metric names the workspace may record, sorted.
pub const ALL: &[&str] = &[
    "aggregate.count_distinct.bitmask_fast",
    "aggregate.count_distinct.calls",
    "aggregate.count_distinct.unknown_target",
    "aggregate.group_table.cache_extends",
    "aggregate.group_table.cache_hits",
    "aggregate.group_table.cache_misses",
    "aggregate.group_table_build_ns",
    "aggregate.group_table_extend_ns",
    "aggregate.group_tables_built",
    "aggregate.groups_interned",
    "columnar.presence.dense_cols",
    "columnar.presence.sparse_cols",
    "columnar.presence.sparse_overflow_forced_dense",
    "explore.count_ns",
    "explore.cursor.builds",
    "explore.cursor.chains",
    "explore.cursor.step_ns",
    "explore.cursor.steps",
    "explore.eval_ns",
    "explore.evaluations",
    "explore.kernel_build_ns",
    "explore.mask_ns",
    "explore.match_cols.builds",
    "explore.match_cols.hits",
    "explore.pruned",
    "explore.pruned.intersection_decreasing",
    "explore.pruned.intersection_increasing",
    "explore.pruned.union_decreasing",
    "explore.pruned.union_increasing",
    "graph.index.append_cols",
    "graph.transpose_build_ns",
    "graph.transpose_builds",
    "io.load_ns",
    "io.read.cells",
    "io.read.rows",
    "io.save_ns",
    "io.write.cells",
    "io.write.rows",
    "materialize.points_appended",
    "materialize.store_build_ns",
    "server.active_connections",
    "server.cmd.agg_ns",
    "server.cmd.append_ns",
    "server.cmd.cube_ns",
    "server.cmd.diff_ns",
    "server.cmd.drop_ns",
    "server.cmd.evolution_ns",
    "server.cmd.explore_ns",
    "server.cmd.generate_ns",
    "server.cmd.help_ns",
    "server.cmd.intersect_ns",
    "server.cmd.load_ns",
    "server.cmd.measure_ns",
    "server.cmd.metrics_ns",
    "server.cmd.ping_ns",
    "server.cmd.project_ns",
    "server.cmd.save_ns",
    "server.cmd.schema_ns",
    "server.cmd.shutdown_ns",
    "server.cmd.snapshots_ns",
    "server.cmd.solve_ns",
    "server.cmd.stats_ns",
    "server.cmd.suggest_ns",
    "server.cmd.union_ns",
    "server.cmd.unknown_ns",
    "server.cmd.zoom_ns",
    "server.connections",
    "server.errors",
    "server.request_ns",
    "server.requests",
    "server.rows_truncated",
    "server.timeouts",
];

/// Whether `name` is a registered metric name.
#[must_use]
pub fn is_registered(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_and_unique() {
        for w in ALL.windows(2) {
            assert!(w[0] < w[1], "names out of order: {:?} >= {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn lookup() {
        assert!(is_registered("explore.evaluations"));
        assert!(!is_registered("explore.typo"));
    }
}
