#!/usr/bin/env bash
# The benchmark's one entry point.
#
#   benchmark/run.sh                      every workload, untraced and traced, one result file
#   benchmark/run.sh run --smoke          the same at a fiftieth of the size (< 15 s)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1     one run, one JSON line
#
# Builds offline in release mode into $CARGO_TARGET_DIR (default
# benchmark/target); never touches the repository's manifest or lockfile.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
  set -- run --traced
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
