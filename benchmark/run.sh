#!/usr/bin/env bash
# Builds the gpa CLI and this benchmark from the checkout, then runs one
# workload. Run from the repository root:
#
#   bash benchmark/run.sh --workload cold-edgar --seed 0 --seconds 20 --trace 0
#
# Both builds share CARGO_TARGET_DIR (default `target`), which puts the
# benchmark binary next to the `gpa` binary it drives. Build output goes
# to stderr; the last line on stdout is the result. The benchmark runs as
# a child rather than replacing this shell, so the peak memory of its own
# children (`getrusage(RUSAGE_CHILDREN)`) does not include cargo's.
set -euo pipefail
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml -p gpa-cli >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/gpa-benchmark" "$@"
