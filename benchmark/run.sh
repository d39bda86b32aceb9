#!/usr/bin/env bash
# Builds tpbench from source (offline) and runs it.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload in this process; the last line of stdout is the result
#       as one JSON object (the form BENCHMARK.json's command takes).
#       --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
#   benchmark/run.sh [--seed S] [--quick]
#       every workload, each run in a fresh process, untraced at three seeds
#       and traced once; results in benchmark/out/set-a.json
#   benchmark/run.sh --twice
#       two such sets of the same build, ten seeds each, compared: the
#       repeatability gate
#
# Run it from the repository root.
set -euo pipefail
here=$(dirname "$0")

# the build's own output goes to stderr, so stdout stays the benchmark's
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/tpbench"

mode=suite
for arg in "$@"; do
    if [ "$arg" = --workload ]; then mode=run; fi
done
exec "$bin" "$mode" --expected-dir "$here/expected" --out "$here/out" "$@"
