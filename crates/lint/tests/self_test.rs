//! Self-test: the lint binary must fail (non-zero exit, `file:line`
//! diagnostics) on each seeded fixture violation, accept the clean fixture,
//! and pass the real workspace — the PR's acceptance criterion, enforced
//! continuously.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_lint(paths: &[PathBuf]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tempo-lint"));
    cmd.args(paths);
    let out = cmd.output().expect("lint binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts the fixture fails with the expected rule at the expected lines.
fn assert_fails(name: &str, rule: &str, lines: &[usize]) {
    let path = fixture(name);
    let (code, stdout, stderr) = run_lint(std::slice::from_ref(&path));
    assert_eq!(
        code, 1,
        "{name} should fail with exit 1 (stdout: {stdout}; stderr: {stderr})"
    );
    for &line in lines {
        let needle = format!(":{line}: [{rule}]");
        assert!(
            stdout.lines().any(|l| l.contains(&needle)),
            "{name} should report `{needle}`, got:\n{stdout}"
        );
    }
    let flagged = stdout
        .lines()
        .filter(|l| l.contains(&format!("[{rule}]")))
        .count();
    assert_eq!(
        flagged,
        lines.len(),
        "{name} should flag exactly {} `{rule}` sites, got:\n{stdout}",
        lines.len()
    );
}

#[test]
fn bad_panics_fixture_fails() {
    // line 4: unwrap, line 8: vague expect, line 13: panic! — the
    // `invariant:`-documented expect on line 19 must NOT be flagged.
    assert_fails("bad_panics.rs", "no-panic", &[4, 8, 13]);
}

#[test]
fn bad_instant_fixture_fails() {
    assert_fails("bad_instant.rs", "no-instant", &[3, 6]);
}

#[test]
fn bad_print_fixture_fails() {
    assert_fails("bad_print.rs", "no-print", &[4, 6]);
}

#[test]
fn bad_metric_fixture_fails() {
    assert_fails("bad_metric.rs", "metric-registry", &[5]);
}

#[test]
fn bad_must_use_fixture_fails() {
    assert_fails("bad_must_use.rs", "must-use", &[7]);
}

#[test]
fn bad_atomic_fixture_fails() {
    // lines 5 and 9: explicit orderings without a `// ordering:` rationale;
    // line 13: ordering passed as a variable — the commented Acquire on
    // line 18 must NOT be flagged.
    assert_fails("bad_atomic.rs", "atomic-ordering", &[5, 9, 13]);
}

#[test]
fn bad_lock_scope_fixture_fails() {
    // spawn/join and write_all/flush while a guard is live; the
    // clone-and-release idiom on line 19 must NOT be flagged.
    assert_fails("bad_lock_scope.rs", "lock-scope", &[6, 7, 13, 14]);
}

#[test]
fn bad_cache_seam_fixture_fails() {
    // `flip` mutates node_presence without invalidating; the sibling that
    // calls `invalidate_index_caches()` must NOT be flagged.
    assert_fails("bad_cache_seam.rs", "cache-seam", &[6]);
}

#[test]
fn bad_env_read_fixture_fails() {
    assert_fails("bad_env_read.rs", "env-read", &[3]);
}

#[test]
fn bad_uncached_groups_fixture_fails() {
    // both from-scratch builds; the cached table on line 11 and the test
    // oracle on line 17 must NOT be flagged.
    assert_fails("bad_uncached_groups.rs", "uncached-groups", &[5, 6]);
}

#[test]
fn clean_fixture_passes() {
    let (code, stdout, _) = run_lint(&[fixture("clean.rs")]);
    assert_eq!(code, 0, "clean fixture should pass, got:\n{stdout}");
}

#[test]
fn directory_of_fixtures_fails_with_many_diagnostics() {
    let (code, stdout, _) = run_lint(&[fixture("")]);
    assert_eq!(code, 1);
    // at least one diagnostic from each seeded rule
    for rule in [
        "no-panic",
        "no-instant",
        "no-print",
        "metric-registry",
        "must-use",
        "atomic-ordering",
        "lock-scope",
        "cache-seam",
        "env-read",
        "uncached-groups",
    ] {
        assert!(
            stdout.contains(&format!("[{rule}]")),
            "directory scan should surface `{rule}`, got:\n{stdout}"
        );
    }
}

#[test]
fn workspace_is_clean() {
    let (code, stdout, stderr) = run_lint(&[]);
    assert_eq!(
        code, 0,
        "the workspace must lint clean\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}
