#!/usr/bin/env bash
# Builds the release `coca-serve` binary and the benchmark harness from the
# checkout, then runs the harness with the given arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p coca-serve --bin coca-serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/coca-benchmark" \
  --serve-bin "$CARGO_TARGET_DIR/release/coca-serve" "$@"
