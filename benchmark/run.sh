#!/usr/bin/env bash
# Builds the benchmark (release, offline), runs every workload — each in a
# fresh child process, untraced and traced — writes benchmark/out/results.json
# and prints the table. Arguments go to `armus-benchmark all`, e.g.
#
#   benchmark/run.sh                 # the full benchmark, one run per workload
#   benchmark/run.sh --smoke         # small sizes, finishes in < 20 s
#   benchmark/run.sh --runs 5 --no-trace --out benchmark/out/a.json
#
# then `compare` two result files:
#
#   benchmark/run.sh compare benchmark/out/a.json benchmark/out/b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
bin="$target/release/armus-benchmark"
if [[ "${1:-}" == "compare" ]]; then
    exec "$bin" "$@"
fi
exec "$bin" all "$@"
