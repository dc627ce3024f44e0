#!/usr/bin/env bash
# Checks the benchmark package: formatting, lints, unit tests, then a
# smoke pass that runs every workload once on a small input (one set-up,
# one pass, two images re-derived) and requires its checks to pass. Run
# from the repository root:
#
#   bash benchmark/check.sh
set -euo pipefail
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --manifest-path "$manifest"
start=$SECONDS
for workload in cold-edgar batch-variants serve-edits serve-hot; do
  result=$(bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 0 --smoke \
    --out .bench_out/smoke | tail -n 1)
  echo "smoke $workload: ${result:0:60}"
  [[ $result == *'"correct": true'* ]]
done
echo "smoke pass took $((SECONDS - start)) s"
