#!/usr/bin/env bash
# Builds the benchmark crate offline and runs it from the repo's root.
# Usage and metrics: benchmark/README.md, or `benchmark/run.sh --help`.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"
TARGET="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$TARGET" >&2
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$TARGET/release/tempo-benchmark" --commit "$COMMIT" "$@"
