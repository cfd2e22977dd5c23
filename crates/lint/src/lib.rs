//! `tempo-lint`: repo-specific static analysis for the GraphTempo workspace.
//!
//! The exploration speedups rest on word-level bitset kernels whose
//! correctness depends on conventions a generic linter cannot check: which
//! crates may panic, where wall-clock reads are allowed, and that every
//! metric name recorded anywhere is listed in the central registry
//! `tempo_instrument::names::ALL`. This crate walks the workspace sources
//! with a small line/token scanner (no syn, no proc-macro machinery — it
//! must build with `--offline --locked` before anything else) and enforces:
//!
//! * **`no-panic`** — no `.unwrap()` / `.expect(..)` / `panic!(..)` in
//!   library-crate code outside `#[cfg(test)]`. An `.expect("invariant: ..")`
//!   whose message documents the invariant that makes the failure impossible
//!   is permitted; everything else needs a typed error or an allowlist entry
//!   (see `crates/lint/allowlist.txt`, burned down per crate).
//! * **`no-instant`** — no `std::time::Instant` outside `tempo-instrument`:
//!   all timing flows through the registry so it can be disabled and
//!   snapshotted coherently.
//! * **`no-print`** — no `println!` / `eprintln!` in library crates; output
//!   belongs to the CLI and the bench binaries.
//! * **`metric-registry`** — every string literal passed to
//!   `.counter("…")` / `.gauge("…")` / `.histogram("…")` must appear in
//!   `crates/instrument/src/names.rs`, catching counter-name drift between
//!   emitters and consumers.
//! * **`must-use`** — a pure `pub fn` returning an owned `BitVec`,
//!   `BitMatrix`, `TransposedBitMatrix`, `EventMask` or `GroupTable` must
//!   carry `#[must_use]`: silently dropping one of these values almost
//!   always means a mask or table was computed and thrown away.
//! * **`uncached-groups`** — no `GroupTable::build(` / `GroupColumns::build(`
//!   outside `groups.rs` and the cache-miss arm of
//!   `TemporalGraph::group_columns`: read queries take the group ids the
//!   snapshot caches (`GroupTable::cached`), so interning a whole graph per
//!   request cannot come back unnoticed.
//!
//! The scanner strips comments and string/char literals before matching, so
//! doc examples and message text never trigger rules; `#[cfg(test)]` items
//! (and whole `tests/` / `benches/` / `examples/` directories) are exempt.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers, also used in the allowlist file.
pub const RULE_NO_PANIC: &str = "no-panic";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_INSTANT: &str = "no-instant";
/// See [`RULE_NO_PANIC`].
pub const RULE_NO_PRINT: &str = "no-print";
/// See [`RULE_NO_PANIC`].
pub const RULE_METRIC_REGISTRY: &str = "metric-registry";
/// See [`RULE_NO_PANIC`].
pub const RULE_MUST_USE: &str = "must-use";
/// See [`RULE_NO_PANIC`].
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
/// See [`RULE_NO_PANIC`].
pub const RULE_LOCK_SCOPE: &str = "lock-scope";
/// See [`RULE_NO_PANIC`].
pub const RULE_CACHE_SEAM: &str = "cache-seam";
/// See [`RULE_NO_PANIC`].
pub const RULE_ENV_READ: &str = "env-read";
/// See [`RULE_NO_PANIC`].
pub const RULE_UNCACHED_GROUPS: &str = "uncached-groups";

/// Expect messages beginning with this prefix document an invariant that
/// makes the failure impossible, and are therefore exempt from `no-panic`.
pub const INVARIANT_PREFIX: &str = "invariant";

/// One lint finding at a source location.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A string literal found in source, with its line (1-based), start column,
/// and unescaped-enough content (escapes are kept verbatim; rules only
/// prefix-match or compare registry names, which contain no escapes).
#[derive(Clone, Debug)]
pub struct StrLit {
    /// 1-based line of the opening quote.
    pub line: usize,
    /// 0-based column of the opening quote within the code view line.
    pub col: usize,
    /// Literal content between the quotes.
    pub value: String,
}

/// The scanner's view of one file: per-line code text with comments and
/// literal contents blanked, collected string literals, and test exemption.
#[derive(Debug, Default)]
pub struct FileView {
    /// Code text per line; comment and string-literal bytes are replaced by
    /// spaces so rule patterns never match inside them.
    pub code: Vec<String>,
    /// All string literals, in source order.
    pub strings: Vec<StrLit>,
    /// `exempt[i]` is true when line `i+1` lies in a `#[cfg(test)]` item.
    pub exempt: Vec<bool>,
    /// Raw source lines (comments intact) — `atomic-ordering` looks for
    /// `// ordering:` rationale comments here, which the code view blanks.
    pub raw: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Strips comments and literals from `source`, keeping byte-for-byte line
/// structure, and records every string literal with its position.
pub fn preprocess(source: &str) -> FileView {
    let chars: Vec<char> = source.chars().collect();
    let mut view = FileView {
        raw: source.lines().map(str::to_owned).collect(),
        ..FileView::default()
    };
    let mut code = String::new();
    let mut line_no = 1usize;
    let mut col = 0usize;
    let mut state = State::Normal;
    let mut lit = String::new();
    let mut lit_start = (0usize, 0usize);
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Normal;
            }
            view.code.push(std::mem::take(&mut code));
            line_no += 1;
            col = 0;
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                    continue;
                }
                // Raw (and byte/raw-byte) strings: r"..." / r#"..."# etc.
                if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"')
                        && (hashes > 0 || j > i + (c as u8 == b'b') as usize)
                    {
                        for _ in i..=j {
                            code.push(' ');
                            col += 1;
                        }
                        lit_start = (line_no, col.saturating_sub(1));
                        lit.clear();
                        state = State::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '"' {
                    code.push('"');
                    lit_start = (line_no, col);
                    lit.clear();
                    state = State::Str;
                    col += 1;
                    i += 1;
                    continue;
                }
                if c == 'b' && chars.get(i + 1) == Some(&'\'') && !prev_is_ident(&chars, i) {
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                    state = State::Char;
                    continue;
                }
                if c == '\'' {
                    // Lifetime vs char literal: a char literal closes within
                    // two characters (or starts with an escape).
                    let is_char = match chars.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        code.push(' ');
                        col += 1;
                        i += 1;
                        state = State::Char;
                    } else {
                        code.push('\'');
                        col += 1;
                        i += 1;
                    }
                    continue;
                }
                code.push(c);
                col += 1;
                i += 1;
            }
            State::LineComment => {
                code.push(' ');
                col += 1;
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                } else {
                    code.push(' ');
                    col += 1;
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    lit.push(c);
                    if let Some(&n) = chars.get(i + 1) {
                        lit.push(n);
                        code.push_str("  ");
                        col += 2;
                        i += 2;
                        continue;
                    }
                    code.push(' ');
                    col += 1;
                    i += 1;
                } else if c == '"' {
                    code.push('"');
                    col += 1;
                    i += 1;
                    view.strings.push(StrLit {
                        line: lit_start.0,
                        col: lit_start.1,
                        value: std::mem::take(&mut lit),
                    });
                    state = State::Normal;
                } else {
                    lit.push(c);
                    code.push(' ');
                    col += 1;
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if chars.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..=hashes as usize {
                            code.push(' ');
                            col += 1;
                        }
                        i += 1 + hashes as usize;
                        view.strings.push(StrLit {
                            line: lit_start.0,
                            col: lit_start.1,
                            value: std::mem::take(&mut lit),
                        });
                        state = State::Normal;
                        continue;
                    }
                }
                lit.push(c);
                code.push(' ');
                col += 1;
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    col += 2;
                    i += 2;
                } else if c == '\'' {
                    code.push(' ');
                    col += 1;
                    i += 1;
                    state = State::Normal;
                } else {
                    code.push(' ');
                    col += 1;
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || source.ends_with('\n') {
        view.code.push(code);
    }
    mark_test_exemptions(&mut view);
    view
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Marks lines inside `#[cfg(test)]` items as exempt from every rule.
fn mark_test_exemptions(view: &mut FileView) {
    let mut exempt = vec![false; view.code.len()];
    let mut depth = 0i64;
    // Depth below which we leave the exempt region (None = not exempt).
    let mut exempt_floor: Option<i64> = None;
    // A `#[cfg(test)]` was seen; waiting for the item's opening brace.
    let mut pending = false;
    for (idx, line) in view.code.iter().enumerate() {
        if pending || exempt_floor.is_some() {
            exempt[idx] = true;
        }
        if line.contains("#[cfg(test)]") {
            pending = true;
            exempt[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending && exempt_floor.is_none() {
                        exempt_floor = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if exempt_floor == Some(depth) {
                        exempt_floor = None;
                    }
                }
                // `#[cfg(test)] mod tests;` — item ends without a body.
                ';' if pending && exempt_floor.is_none() => pending = false,
                _ => {}
            }
        }
    }
    view.exempt = exempt;
}

/// Which rule applies to which workspace-relative path prefix.
///
/// When `explicit` is set (paths given on the command line, e.g. the lint
/// self-test fixtures), every rule applies everywhere.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    /// Apply every rule to every scanned file, ignoring crate layout.
    pub explicit: bool,
}

/// Library-crate source prefixes: no panics, no printing.
const LIB_PREFIXES: &[&str] = &[
    "crates/columnar/src",
    "crates/temporal-graph/src",
    "crates/core/src",
    "crates/instrument/src",
    "crates/datagen/src",
    "src",
];

/// Prefixes where `must-use` is enforced (the bit-kernel surface).
const MUST_USE_PREFIXES: &[&str] = &[
    "crates/columnar/src",
    "crates/temporal-graph/src",
    "crates/core/src",
];

fn has_prefix(rel: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
}

impl Scope {
    /// Whether `rule` applies to the file at workspace-relative `rel`.
    pub fn applies(&self, rule: &str, rel: &str) -> bool {
        if self.explicit {
            return true;
        }
        match rule {
            RULE_NO_PANIC => {
                has_prefix(rel, LIB_PREFIXES)
                    || has_prefix(rel, &["crates/cli/src", "crates/server/src"])
            }
            RULE_NO_PRINT => has_prefix(rel, LIB_PREFIXES),
            RULE_NO_INSTANT => !has_prefix(rel, &["crates/instrument/src"]),
            RULE_METRIC_REGISTRY => true,
            RULE_MUST_USE => has_prefix(rel, MUST_USE_PREFIXES),
            RULE_ATOMIC_ORDERING => true,
            RULE_LOCK_SCOPE => true,
            RULE_CACHE_SEAM => has_prefix(rel, &["crates/temporal-graph/src"]),
            RULE_ENV_READ => true,
            // where the uncached build is defined, and the cache's miss arm
            RULE_UNCACHED_GROUPS => !has_prefix(
                rel,
                &[
                    "crates/temporal-graph/src/groups.rs",
                    "crates/temporal-graph/src/graph.rs",
                ],
            ),
            _ => false,
        }
    }
}

/// Return types whose silent drop `must-use` guards against.
const MUST_USE_TYPES: &[&str] = &[
    "BitVec",
    "BitMatrix",
    "TransposedBitMatrix",
    "PresenceColumn",
    "EventMask",
    "GroupTable",
];

/// Lints one preprocessed file. `registry` holds the known metric names;
/// `seams` the cache-seam-exempt function names
/// (`crates/temporal-graph/src/seams.rs`).
pub fn lint_file(
    rel: &str,
    view: &FileView,
    registry: &[String],
    seams: &[String],
    scope: Scope,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let diag = |out: &mut Vec<Diagnostic>, line: usize, rule: &'static str, message: String| {
        out.push(Diagnostic {
            path: rel.to_owned(),
            line,
            rule,
            message,
        });
    };

    let no_panic = scope.applies(RULE_NO_PANIC, rel);
    let no_print = scope.applies(RULE_NO_PRINT, rel);
    let no_instant = scope.applies(RULE_NO_INSTANT, rel);
    let metric = scope.applies(RULE_METRIC_REGISTRY, rel);
    let atomic = scope.applies(RULE_ATOMIC_ORDERING, rel);
    // Binaries read configuration at startup; everything else takes it as
    // arguments so behavior is reproducible from the call site alone.
    let env_read =
        scope.applies(RULE_ENV_READ, rel) && !rel.ends_with("/main.rs") && !rel.contains("/bin/");
    let uncached_groups = scope.applies(RULE_UNCACHED_GROUPS, rel);

    for (idx, code) in view.code.iter().enumerate() {
        if view.exempt.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let line = idx + 1;
        if no_panic {
            if code.contains(".unwrap()") {
                diag(
                    &mut out,
                    line,
                    RULE_NO_PANIC,
                    "`.unwrap()` in library code: return a typed error or \
                     use `.expect(\"invariant: ..\")` with the reason it cannot fail"
                        .into(),
                );
            }
            for col in find_all(code, ".expect(") {
                if !expect_is_invariant(view, idx, col + ".expect(".len()) {
                    diag(
                        &mut out,
                        line,
                        RULE_NO_PANIC,
                        "`.expect(..)` without an `invariant:`-prefixed message: \
                         return a typed error or document why it cannot fail"
                            .into(),
                    );
                }
            }
            if contains_macro(code, "panic") {
                diag(
                    &mut out,
                    line,
                    RULE_NO_PANIC,
                    "`panic!` in library code: return a typed error".into(),
                );
            }
        }
        if no_print && (contains_macro(code, "println") || contains_macro(code, "eprintln")) {
            diag(
                &mut out,
                line,
                RULE_NO_PRINT,
                "`println!`/`eprintln!` in library code: route output through \
                 the CLI or the instrumentation registry"
                    .into(),
            );
        }
        if no_instant && contains_word(code, "Instant") {
            diag(
                &mut out,
                line,
                RULE_NO_INSTANT,
                "`std::time::Instant` outside tempo-instrument: use registry \
                 histograms/spans so timing can be disabled and snapshotted"
                    .into(),
            );
        }
        if atomic && ATOMIC_OPS.iter().any(|t| code.contains(t)) {
            match nearby_atomic_ordering(view, idx) {
                None => diag(
                    &mut out,
                    line,
                    RULE_ATOMIC_ORDERING,
                    "atomic operation without an explicit `Ordering::` at the \
                     call site: spell the ordering out where the access happens"
                        .into(),
                ),
                Some(ord) => {
                    // tempo-instrument is the designated relaxed-counter
                    // surface: bare `Relaxed` is its contract. Everywhere
                    // else (and for anything stronger than `Relaxed` even
                    // there) the choice must be justified in an adjacent
                    // `// ordering:` comment.
                    let instrument = rel.starts_with("crates/instrument/src");
                    let free = instrument && ord == "Relaxed";
                    if !free && !has_ordering_rationale(view, idx) {
                        diag(
                            &mut out,
                            line,
                            RULE_ATOMIC_ORDERING,
                            format!(
                                "`Ordering::{ord}` without an adjacent `// ordering:` \
                                 rationale comment: state which data this edge \
                                 publishes/acquires (or why none)"
                            ),
                        );
                    }
                }
            }
        }
        if env_read && ENV_OPS.iter().any(|t| code.contains(t)) {
            diag(
                &mut out,
                line,
                RULE_ENV_READ,
                "`std::env` read outside binary startup: thread the \
                 configuration through arguments/config structs so behavior \
                 is reproducible"
                    .into(),
            );
        }
        if uncached_groups
            && ["GroupTable::build(", "GroupColumns::build("]
                .iter()
                .any(|t| code.contains(t))
        {
            diag(
                &mut out,
                line,
                RULE_UNCACHED_GROUPS,
                "group ids interned from scratch: take the columns the snapshot \
                 caches (`GroupTable::cached` / `TemporalGraph::group_columns`)"
                    .into(),
            );
        }
        if metric {
            for pat in [".counter(", ".gauge(", ".histogram("] {
                for col in find_all(code, pat) {
                    // Only a literal that IS the argument is checkable; a
                    // computed name (`.histogram(&format!(..))`) is not.
                    if let Some(lit) = direct_literal_arg(view, idx, col + pat.len()) {
                        if !registry.iter().any(|n| n == &lit.value) {
                            diag(
                                &mut out,
                                lit.line,
                                RULE_METRIC_REGISTRY,
                                format!(
                                    "metric name {:?} is not in the central registry \
                                     (crates/instrument/src/names.rs)",
                                    lit.value
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    if scope.applies(RULE_MUST_USE, rel) {
        lint_must_use(rel, view, &mut out);
    }
    if scope.applies(RULE_LOCK_SCOPE, rel) {
        lint_lock_scope(rel, view, &mut out);
    }
    if scope.applies(RULE_CACHE_SEAM, rel) {
        lint_cache_seam(rel, view, seams, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

/// Method tokens of the `std::sync::atomic` API surface.
const ATOMIC_OPS: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

/// `std::env` process-environment accessors.
const ENV_OPS: &[&str] = &[
    "env::var(",
    "env::var_os(",
    "env::set_var(",
    "env::remove_var(",
];

/// Atomic memory orderings (so `std::cmp::Ordering::Less` never matches).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The atomic `Ordering::` variant named on this line or the next two
/// (rustfmt may wrap the argument), if any.
fn nearby_atomic_ordering(view: &FileView, idx: usize) -> Option<&'static str> {
    (idx..idx + 3)
        .filter_map(|j| view.code.get(j))
        .find_map(|l| {
            find_all(l, "Ordering::").into_iter().find_map(|off| {
                let rest = &l[off + "Ordering::".len()..];
                ATOMIC_ORDERINGS
                    .iter()
                    .find(|o| {
                        rest.starts_with(**o)
                            && !rest[o.len()..]
                                .starts_with(|c: char| c.is_alphanumeric() || c == '_')
                    })
                    .copied()
            })
        })
}

/// Whether a `// ordering:` rationale comment sits on the site line or one
/// of the three lines above it (raw view — comments are blanked in code).
fn has_ordering_rationale(view: &FileView, idx: usize) -> bool {
    (idx.saturating_sub(3)..=idx)
        .filter_map(|j| view.raw.get(j))
        .any(|l| l.contains("// ordering:"))
}

/// Calls that park, block on IO, or wait on another thread: holding a lock
/// guard across one turns every other acquirer into a hostage of that
/// wait (and of the remote peer, for socket IO).
const BLOCKING_CALLS: &[&str] = &[
    "thread::spawn(",
    ".join()",
    ".write_all(",
    ".read_line(",
    ".flush()",
    "TcpStream::connect",
    ".accept(",
];

/// Methods through which a `.lock()` call still yields the guard itself.
fn is_guard_adapter(name: &str) -> bool {
    matches!(name, "unwrap" | "expect" | "unwrap_or_else")
}

/// Skips one balanced `(..)` group; `s` must start at the open paren.
fn skip_balanced_parens(s: &str) -> Option<&str> {
    let mut depth = 0i32;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[i + 1..]);
                }
            }
            _ => {}
        }
    }
    None
}

/// If `stmt` is `let [mut] NAME = <recv>.lock()[.unwrap…()];`, i.e. binds a
/// live guard, returns `NAME`. A chain that keeps going past the unwrap
/// adapters (`.lock().unwrap().clone()`) consumes the guard within the
/// statement — the clone-and-release idiom — and binds no guard. Stdio
/// locks (`stdin.lock()`) are not mutexes and are skipped.
fn lock_guard_binding(stmt: &str) -> Option<String> {
    let t = stmt.trim_start().strip_prefix("let ")?.trim_start();
    let t = t.strip_prefix("mut ").unwrap_or(t).trim_start();
    let name: String = t
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let rest = t[name.len()..].trim_start().strip_prefix('=')?;
    let lock_at = rest.find(".lock(")?;
    let recv = rest[..lock_at].trim_end();
    if ["stdin", "stdout", "stderr"]
        .iter()
        .any(|s| recv.ends_with(s))
    {
        return None;
    }
    let mut after = skip_balanced_parens(&rest[lock_at + ".lock".len()..])?;
    loop {
        let t = after.trim_start();
        if t.is_empty() || t.starts_with(';') || t.starts_with('?') {
            return Some(name);
        }
        let t = t.strip_prefix('.')?;
        let method: String = t
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !is_guard_adapter(&method) {
            return None;
        }
        after = skip_balanced_parens(t[method.len()..].trim_start())?;
    }
}

/// Flags blocking calls made while a `let`-bound lock guard is live: from
/// the binding statement to the end of its block scope or an explicit
/// `drop(guard)`, whichever comes first.
fn lint_lock_scope(rel: &str, view: &FileView, out: &mut Vec<Diagnostic>) {
    let n = view.code.len();
    for idx in 0..n {
        if view.exempt.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let code = &view.code[idx];
        if !code.contains("let ") {
            continue;
        }
        // Gather the whole (possibly rustfmt-wrapped) statement.
        let mut stmt = String::new();
        let mut stmt_end = idx;
        for j in idx..n.min(idx + 6) {
            stmt.push_str(&view.code[j]);
            stmt.push(' ');
            stmt_end = j;
            if view.code[j].contains(';') {
                break;
            }
        }
        let Some(guard) = lock_guard_binding(&stmt) else {
            continue;
        };
        let dropped = format!("drop({guard})");
        let mut depth = 0i64;
        for j in (stmt_end + 1)..n {
            let l = &view.code[j];
            if l.contains(&dropped) {
                break;
            }
            for call in BLOCKING_CALLS {
                if l.contains(call) {
                    let what = call.trim_end_matches('(');
                    let bind = idx + 1;
                    out.push(Diagnostic {
                        path: rel.to_owned(),
                        line: j + 1,
                        rule: RULE_LOCK_SCOPE,
                        message: format!(
                            "`{what}` while MutexGuard `{guard}` (bound on line {bind}) \
                             is live: clone the data out and release the lock first, \
                             or drop the guard explicitly"
                        ),
                    });
                }
            }
            for c in l.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if depth < 0 || j > stmt_end + 400 {
                break;
            }
        }
    }
}

/// Presence-matrix mutating calls (the index caches derive from these
/// matrices, so every mutation is a cache seam).
fn is_presence_mutation(code: &str) -> bool {
    (code.contains("node_presence") || code.contains("edge_presence"))
        && [".set(", ".push_empty_row(", ".push_col(", ".widen("]
            .iter()
            .any(|t| code.contains(t))
}

/// First function name declared on this line, if any.
fn fn_decl_name(code: &str) -> Option<String> {
    for off in find_all(code, "fn ") {
        let before_ok = off == 0 || {
            let b = code.as_bytes()[off - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if !before_ok {
            continue;
        }
        let name: String = code[off + 3..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

/// Flags functions that mutate a presence matrix without calling
/// `invalidate_index_caches` and without an entry in the seam registry
/// (`crates/temporal-graph/src/seams.rs`) documenting why the caches are
/// safe (builder paths where no cache exists yet, append paths that carry
/// caches forward explicitly).
fn lint_cache_seam(rel: &str, view: &FileView, seams: &[String], out: &mut Vec<Diagnostic>) {
    // (depth at which the fn's body opened, name, saw invalidate, mutation lines)
    let mut stack: Vec<(i64, String, bool, Vec<usize>)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i64;
    for (idx, code) in view.code.iter().enumerate() {
        let exempt = view.exempt.get(idx).copied().unwrap_or(false);
        if !exempt {
            if let Some(name) = fn_decl_name(code) {
                pending = Some(name);
            }
            if let Some(top) = stack.last_mut() {
                if code.contains("invalidate_index_caches") {
                    top.2 = true;
                }
                if is_presence_mutation(code) {
                    top.3.push(idx + 1);
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if let Some(name) = pending.take() {
                        stack.push((depth, name, false, Vec::new()));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if stack.last().is_some_and(|(d, _, _, _)| *d == depth) {
                        let (_, name, saw, muts) =
                            stack.pop().unwrap_or((0, String::new(), false, Vec::new()));
                        if let Some(&first) = muts.first() {
                            if !saw && !seams.iter().any(|s| s == &name) {
                                out.push(Diagnostic {
                                    path: rel.to_owned(),
                                    line: first,
                                    rule: RULE_CACHE_SEAM,
                                    message: format!(
                                        "`{name}` mutates a presence matrix without \
                                         `invalidate_index_caches()` and is not in the \
                                         seam registry (crates/temporal-graph/src/seams.rs)"
                                    ),
                                });
                            }
                        }
                    }
                }
                // `fn f();` — declaration without a body.
                ';' => pending = None,
                _ => {}
            }
        }
    }
}

/// All start offsets of `pat` within `hay`.
fn find_all(hay: &str, pat: &str) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(pat) {
        offs.push(from + p);
        from += p + pat.len();
    }
    offs
}

/// Whole-word match (neither neighbor is an identifier character).
fn contains_word(hay: &str, word: &str) -> bool {
    let bytes = hay.as_bytes();
    for off in find_all(hay, word) {
        let before_ok = off == 0 || {
            let b = bytes[off - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = off + word.len();
        let after_ok = after >= bytes.len() || {
            let b = bytes[after];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// `name!(` as a macro invocation (not `debug_name!` etc.).
fn contains_macro(hay: &str, name: &str) -> bool {
    let pat = format!("{name}!");
    let bytes = hay.as_bytes();
    for off in find_all(hay, &pat) {
        let before_ok = off == 0 || {
            let b = bytes[off - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after = off + pat.len();
        let after_ok = matches!(bytes.get(after), Some(b'(') | Some(b'[') | Some(b'{'));
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Whether the `.expect(` at (`line_idx`, ending at `col`) takes a string
/// literal starting with the invariant prefix. Looks on the same line first,
/// then at the next line (for rustfmt-wrapped arguments).
fn expect_is_invariant(view: &FileView, line_idx: usize, col: usize) -> bool {
    match first_literal_after(view, line_idx, col) {
        Some(lit) => lit.value.to_ascii_lowercase().starts_with(INVARIANT_PREFIX),
        None => false,
    }
}

/// First string literal at or after (`line_idx`, `col`), searching this line
/// and the next (arguments wrapped by rustfmt land on the following line).
fn first_literal_after(view: &FileView, line_idx: usize, col: usize) -> Option<&StrLit> {
    let line = line_idx + 1;
    view.strings
        .iter()
        .find(|s| (s.line == line && s.col >= col) || s.line == line + 1)
}

/// Like [`first_literal_after`], but only when the literal is *directly* the
/// argument — nothing but whitespace between the open paren and the opening
/// quote (possibly wrapped to the next line). A computed name such as
/// `.histogram(&format!(..))` yields `None`: it cannot be statically checked.
fn direct_literal_arg(view: &FileView, line_idx: usize, col: usize) -> Option<&StrLit> {
    let lit = first_literal_after(view, line_idx, col)?;
    let this = &view.code[line_idx];
    if lit.line == line_idx + 1 {
        let between = this.get(col..lit.col)?;
        between.trim().is_empty().then_some(lit)
    } else {
        let rest_blank = this.get(col..).is_some_and(|r| r.trim().is_empty());
        let lead_blank = view
            .code
            .get(line_idx + 1)
            .and_then(|l| l.get(..lit.col))
            .is_some_and(|r| r.trim().is_empty());
        (rest_blank && lead_blank).then_some(lit)
    }
}

/// Enforces `#[must_use]` on pure `pub fn`s returning the bit-kernel types.
fn lint_must_use(rel: &str, view: &FileView, out: &mut Vec<Diagnostic>) {
    // Track the inherent-impl type so `-> Self` resolves.
    let mut impl_stack: Vec<(i64, Option<String>)> = Vec::new();
    let mut depth = 0i64;
    let n = view.code.len();
    let mut idx = 0usize;
    while idx < n {
        let code = &view.code[idx];
        let exempt = view.exempt.get(idx).copied().unwrap_or(false);
        if !exempt {
            if let Some(impl_ty) = parse_impl_header(code) {
                impl_stack.push((depth, impl_ty));
            }
            // Inside a trait impl (`impl Trait for Type`) `#[must_use]` on a
            // method is ineffective — the attribute belongs on the trait.
            let in_trait_impl = matches!(impl_stack.last(), Some((_, None)));
            if let Some(col) = find_pub_fn(code).filter(|_| !in_trait_impl) {
                // Collect the signature until its body opens (or `;`).
                let mut sig = String::new();
                let mut j = idx;
                loop {
                    let part = if j == idx {
                        &code[col..]
                    } else {
                        &view.code[j]
                    };
                    if let Some(stop) = sig_end(part) {
                        sig.push_str(&part[..stop]);
                        break;
                    }
                    sig.push_str(part);
                    sig.push(' ');
                    j += 1;
                    if j >= n || j > idx + 12 {
                        break;
                    }
                }
                let self_ty = impl_stack
                    .last()
                    .and_then(|(_, t)| t.as_deref())
                    .unwrap_or("");
                if let Some(ret) = signature_return_type(&sig) {
                    let resolved = if ret == "Self" { self_ty } else { ret.as_str() };
                    let last_seg = resolved.rsplit("::").next().unwrap_or(resolved);
                    if MUST_USE_TYPES.contains(&last_seg)
                        && !preceding_attrs_have_must_use(view, idx)
                    {
                        out.push(Diagnostic {
                            path: rel.to_owned(),
                            line: idx + 1,
                            rule: RULE_MUST_USE,
                            message: format!(
                                "pub fn returning `{last_seg}` must be `#[must_use]`: \
                                 dropping it silently discards a computed mask/table"
                            ),
                        });
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    while matches!(impl_stack.last(), Some((d, _)) if *d >= depth) {
                        impl_stack.pop();
                    }
                }
                _ => {}
            }
        }
        idx += 1;
    }
}

/// Parses `impl [<..>] Type {` headers of inherent impls (trait impls —
/// `impl Trait for Type` — return `None`: attributes there are ineffective).
fn parse_impl_header(code: &str) -> Option<Option<String>> {
    let t = code.trim_start();
    if !(t.starts_with("impl ") || t.starts_with("impl<")) {
        return None;
    }
    if contains_word(t, "for") {
        return Some(None);
    }
    let mut rest = &t[4..];
    if rest.starts_with('<') {
        let mut d = 0i32;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => d += 1,
                '>' => {
                    d -= 1;
                    if d == 0 {
                        rest = &rest[i + 1..];
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let ty: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    if ty.is_empty() {
        Some(None)
    } else {
        Some(Some(ty))
    }
}

/// Column of a `pub fn` item start on this line, if any. `pub(crate)` and
/// other restricted visibilities are not part of the public surface.
fn find_pub_fn(code: &str) -> Option<usize> {
    for off in find_all(code, "pub fn ") {
        let before_ok = off == 0 || !code.as_bytes()[off - 1].is_ascii_alphanumeric();
        if before_ok {
            return Some(off);
        }
    }
    None
}

/// Offset where a signature's body (or `;`) starts, if on this fragment.
fn sig_end(part: &str) -> Option<usize> {
    part.find(['{', ';'])
}

/// The return type of a collected signature, if it has one: the text after
/// the last top-level `->`, up to a `where` clause, trimmed.
fn signature_return_type(sig: &str) -> Option<String> {
    let bytes = sig.as_bytes();
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut arrow_at = None;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => paren += 1,
            b')' => paren -= 1,
            b'[' => bracket += 1,
            b']' => bracket -= 1,
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                if paren == 0 && bracket == 0 {
                    arrow_at = Some(i + 2);
                }
                i += 2;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    let start = arrow_at?;
    let mut ret = sig[start..].trim();
    if let Some(w) = ret.find(" where ") {
        ret = ret[..w].trim();
    }
    if ret.ends_with("where") {
        ret = ret[..ret.len() - 5].trim();
    }
    let ret: String = ret.split_whitespace().collect::<Vec<_>>().join("");
    if ret.is_empty() {
        None
    } else {
        Some(ret)
    }
}

/// Whether the attribute lines immediately above `idx` include `must_use`.
fn preceding_attrs_have_must_use(view: &FileView, idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = view.code[j].trim();
        if t.is_empty() {
            continue;
        }
        if t.starts_with("#[") || t.starts_with("#!") || t.ends_with(']') && t.contains("#[") {
            if t.contains("must_use") {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// Reads the metric-name registry: every string literal in the file.
///
/// # Errors
/// Returns an error when the file cannot be read.
pub fn load_registry(path: &Path) -> Result<Vec<String>, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metric registry {}: {e}", path.display()))?;
    let view = preprocess(&src);
    Ok(view.strings.into_iter().map(|s| s.value).collect())
}

/// One allowlist entry: up to `count` violations of `rule` in `path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier.
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Maximum number of tolerated violations.
    pub count: usize,
}

/// Parses the allowlist format: `rule path count` per line, `#` comments.
///
/// # Errors
/// Returns a message naming the malformed line.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(path), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "allowlist line {}: expected `rule path count`, got {line:?}",
                i + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", i + 1))?;
        out.push(AllowEntry {
            rule: rule.to_owned(),
            path: path.to_owned(),
            count,
        });
    }
    Ok(out)
}

/// Result of a lint run after the allowlist is applied.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Violations not absorbed by the allowlist — each fails the run.
    pub diagnostics: Vec<Diagnostic>,
    /// `(rule, path, count)` groups silenced by the allowlist.
    pub suppressed: Vec<(String, String, usize)>,
    /// Allowlist entries whose budget exceeds the observed count — the
    /// ratchet should be tightened (warning, not failure).
    pub stale: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// True when no unsuppressed violations remain.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Applies the allowlist: groups diagnostics per `(rule, path)` and keeps a
/// group only when it exceeds its budget (then *all* its diagnostics are
/// reported, so the offending lines are visible).
pub fn apply_allowlist(diags: Vec<Diagnostic>, allow: &[AllowEntry]) -> Outcome {
    let mut groups: BTreeMap<(String, String), Vec<Diagnostic>> = BTreeMap::new();
    for d in diags {
        groups
            .entry((d.rule.to_owned(), d.path.clone()))
            .or_default()
            .push(d);
    }
    let mut out = Outcome::default();
    for entry in allow {
        let observed = groups
            .get(&(entry.rule.clone(), entry.path.clone()))
            .map_or(0, Vec::len);
        if observed < entry.count {
            out.stale.push(entry.clone());
        }
    }
    for ((rule, path), ds) in groups {
        let budget = allow
            .iter()
            .find(|e| e.rule == rule && e.path == path)
            .map_or(0, |e| e.count);
        if ds.len() <= budget {
            out.suppressed.push((rule, path, ds.len()));
        } else {
            out.diagnostics.extend(ds);
        }
    }
    out.diagnostics.sort();
    out
}

/// Collects `.rs` files under `roots`, skipping test/bench/example trees and
/// build/vendor directories.
pub fn collect_files(roots: &[PathBuf]) -> Vec<PathBuf> {
    const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "target", "vendor", ".git"];
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = roots.to_vec();
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            let Ok(rd) = std::fs::read_dir(&p) else {
                continue;
            };
            for entry in rd.flatten() {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if path.is_dir() {
                    if !SKIP_DIRS.contains(&name.as_ref()) {
                        stack.push(path);
                    }
                } else if name.ends_with(".rs") {
                    files.push(path);
                }
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            files.push(p);
        }
    }
    files.sort();
    files
}

/// Workspace-relative path with forward slashes (falls back to the full
/// path when `path` is not under `root`).
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs the linter over `roots` (workspace-relative scoping against `root`),
/// with `registry` metric names, `seams` cache-seam-exempt function names,
/// and `allow` entries.
///
/// # Errors
/// Returns a message when a source file cannot be read.
pub fn run(
    root: &Path,
    roots: &[PathBuf],
    scope: Scope,
    registry: &[String],
    seams: &[String],
    allow: &[AllowEntry],
) -> Result<Outcome, String> {
    let files = collect_files(roots);
    let mut diags = Vec::new();
    let n_files = files.len();
    for file in files {
        let src = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = rel_path(root, &file);
        let view = preprocess(&src);
        diags.extend(lint_file(&rel, &view, registry, seams, scope));
    }
    let mut outcome = apply_allowlist(diags, allow);
    outcome.files_scanned = n_files;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        let view = preprocess(src);
        lint_file("f.rs", &view, &[], &[], Scope { explicit: true })
    }

    #[test]
    fn strips_comments_and_strings() {
        let v = preprocess("let x = \"a.unwrap()\"; // .unwrap()\n/* panic!( */ let y = 1;\n");
        assert!(!v.code[0].contains("unwrap"));
        assert!(!v.code[1].contains("panic"));
        assert_eq!(v.strings.len(), 1);
        assert_eq!(v.strings[0].value, "a.unwrap()");
    }

    #[test]
    fn raw_strings_and_chars() {
        let v = preprocess("let s = r#\"x.unwrap()\"#; let c = '\\n'; let l: &'static str = s;");
        assert!(!v.code[0].contains("unwrap"));
        assert_eq!(v.strings[0].value, "x.unwrap()");
        assert!(v.code[0].contains("'static"));
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let ds = lint_src(src);
        let lines: Vec<usize> = ds
            .iter()
            .filter(|d| d.rule == RULE_NO_PANIC)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![1, 6]);
    }

    #[test]
    fn expect_invariant_prefix_is_allowed() {
        let ok = "fn a() { x.expect(\"invariant: width checked above\"); }";
        assert!(lint_src(ok).is_empty());
        let bad = "fn a() { x.expect(\"oops\"); }";
        assert_eq!(lint_src(bad).len(), 1);
        let none = "fn a() { x.expect(msg); }";
        assert_eq!(lint_src(none).len(), 1);
    }

    #[test]
    fn panic_and_print_and_instant_flagged() {
        let ds = lint_src("fn a() { panic!(\"x\"); println!(\"y\"); let t = Instant::now(); }");
        let rules: Vec<&str> = ds.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&RULE_NO_PANIC));
        assert!(rules.contains(&RULE_NO_PRINT));
        assert!(rules.contains(&RULE_NO_INSTANT));
        // `debug_assert!`-style names must not match the panic macro rule
        assert!(lint_src("fn a() { debug_assert!(true, \"m\"); }").is_empty());
    }

    #[test]
    fn metric_literal_checked_against_registry() {
        let view = preprocess(
            "fn a() { ins.counter(\"known.name\").inc(); ins.histogram(\"bad.name\"); }",
        );
        let reg = vec!["known.name".to_owned()];
        let ds = lint_file("f.rs", &view, &reg, &[], Scope { explicit: true });
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("bad.name"));
    }

    #[test]
    fn computed_metric_name_is_skipped() {
        let view = preprocess("fn a() { ins.histogram(&format!(\"dyn.{x}\", x = 1)).span(); }");
        assert!(lint_file("f.rs", &view, &[], &[], Scope { explicit: true }).is_empty());
    }

    #[test]
    fn metric_literal_on_next_line_checked() {
        let view = preprocess("fn a() {\n    ins.counter(\n        \"bad.name\",\n    );\n}");
        let ds = lint_file("f.rs", &view, &[], &[], Scope { explicit: true });
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn must_use_flags_missing_attribute_and_resolves_self() {
        let src = "impl BitVec {\n    pub fn and(&self, o: &BitVec) -> BitVec { o.clone() }\n    pub fn zeros(n: usize) -> Self { todo() }\n    #[must_use]\n    pub fn ones(n: usize) -> Self { todo() }\n    pub fn len(&self) -> usize { 0 }\n}\n";
        let ds = lint_src(src);
        let lines: Vec<usize> = ds
            .iter()
            .filter(|d| d.rule == RULE_MUST_USE)
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn must_use_skips_trait_impls_and_wrapped_returns() {
        let src = "impl Clone for BitVec {\n    pub fn and(&self) -> BitVec { todo() }\n}\npub fn f() -> Result<BitVec, E> { todo() }\n";
        assert!(lint_src(src).is_empty());
    }

    #[test]
    fn must_use_handles_multiline_signatures() {
        let src = "impl GroupTable {\n    pub fn build(\n        g: &G,\n        attrs: &[A],\n    ) -> GroupTable {\n        todo()\n    }\n}\n";
        let ds = lint_src(src);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].line, 2);
    }

    #[test]
    fn allowlist_budget_and_staleness() {
        let diags = vec![
            Diagnostic {
                path: "a.rs".into(),
                line: 1,
                rule: RULE_NO_PANIC,
                message: "m".into(),
            },
            Diagnostic {
                path: "a.rs".into(),
                line: 2,
                rule: RULE_NO_PANIC,
                message: "m".into(),
            },
        ];
        let allow = parse_allowlist("no-panic a.rs 2\nno-panic b.rs 3\n").unwrap();
        let out = apply_allowlist(diags.clone(), &allow);
        assert!(out.is_clean());
        assert_eq!(out.suppressed, vec![("no-panic".into(), "a.rs".into(), 2)]);
        assert_eq!(out.stale.len(), 1); // b.rs has no violations left

        // over budget: the whole group is reported
        let tight = parse_allowlist("no-panic a.rs 1\n").unwrap();
        let out = apply_allowlist(diags, &tight);
        assert_eq!(out.diagnostics.len(), 2);
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(parse_allowlist("# fine\nno-panic a.rs 1\n").is_ok());
        assert!(parse_allowlist("no-panic a.rs\n").is_err());
        assert!(parse_allowlist("no-panic a.rs many\n").is_err());
    }

    #[test]
    fn scope_prefixes() {
        let s = Scope { explicit: false };
        assert!(s.applies(RULE_NO_PANIC, "crates/columnar/src/bitset.rs"));
        assert!(s.applies(RULE_NO_PANIC, "crates/cli/src/main.rs"));
        assert!(s.applies(RULE_NO_PANIC, "crates/server/src/lib.rs"));
        assert!(!s.applies(RULE_NO_PRINT, "crates/server/src/main.rs"));
        assert!(!s.applies(RULE_NO_PANIC, "crates/bench/src/report.rs"));
        assert!(!s.applies(RULE_NO_INSTANT, "crates/instrument/src/lib.rs"));
        assert!(s.applies(RULE_NO_INSTANT, "crates/bench/src/report.rs"));
        assert!(s.applies(RULE_MUST_USE, "crates/core/src/ops.rs"));
        assert!(!s.applies(RULE_MUST_USE, "crates/cli/src/main.rs"));
        assert!(s.applies(RULE_METRIC_REGISTRY, "crates/bench/src/bin/exp_explore.rs"));
        assert!(s.applies(RULE_ATOMIC_ORDERING, "crates/core/src/explore/budget.rs"));
        assert!(s.applies(RULE_ATOMIC_ORDERING, "crates/instrument/src/lib.rs"));
        assert!(s.applies(RULE_LOCK_SCOPE, "crates/server/src/lib.rs"));
        assert!(s.applies(RULE_CACHE_SEAM, "crates/temporal-graph/src/builder.rs"));
        assert!(!s.applies(RULE_CACHE_SEAM, "crates/core/src/ops.rs"));
        assert!(s.applies(RULE_ENV_READ, "crates/core/src/ops.rs"));
        assert!(s.applies(RULE_UNCACHED_GROUPS, "crates/core/src/explore/kernel.rs"));
        assert!(s.applies(RULE_UNCACHED_GROUPS, "crates/bench/src/bin/exp_fig10.rs"));
        assert!(!s.applies(RULE_UNCACHED_GROUPS, "crates/temporal-graph/src/groups.rs"));
        assert!(!s.applies(RULE_UNCACHED_GROUPS, "crates/temporal-graph/src/graph.rs"));
    }

    #[test]
    fn lock_guard_binding_recognizes_guards_and_idioms() {
        assert_eq!(
            lock_guard_binding("let guard = self.state.lock().unwrap();"),
            Some("guard".to_owned())
        );
        assert_eq!(
            lock_guard_binding("let mut g = m.lock().unwrap_or_else(|e| e.into_inner());"),
            Some("g".to_owned())
        );
        // Clone-and-release consumes the guard within the statement.
        assert_eq!(
            lock_guard_binding("let v = m.lock().unwrap().clone();"),
            None
        );
        assert_eq!(
            lock_guard_binding("let v = m.lock().unwrap().current();"),
            None
        );
        // Stdio locks are not mutexes.
        assert_eq!(lock_guard_binding("let h = stdin.lock();"), None);
        // No lock call at all.
        assert_eq!(lock_guard_binding("let x = compute();"), None);
    }

    #[test]
    fn atomic_ordering_sees_wrapped_arguments() {
        let src = "fn a(f: &AtomicU64) {\n    f.store(\n        1,\n        Ordering::Release,\n    );\n}";
        let view = preprocess(src);
        // The ordering sits two lines below the op: found, but unjustified.
        let ds = lint_file("f.rs", &view, &[], &[], Scope { explicit: true });
        assert_eq!(ds.len(), 1);
        assert!(ds[0].message.contains("Ordering::Release"));
    }
}
