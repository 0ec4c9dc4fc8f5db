#!/usr/bin/env bash
# Alternating parent/change pairs of the pinned benchmark: the evidence a
# performance claim is judged on.
#
#   scripts/bench-pairs.sh <parent-rev> <pairs> [workload]   e.g. HEAD~1 10 cold_fetch
#
# Exports <parent-rev> into a tree outside the repository (`git archive`,
# so the repository's own metadata is never touched) and builds each
# tree's benchmark into its own target directory: the change is the
# working tree as it stands. Then runs <pairs> untraced pairs, the
# parent first in odd pairs and the change first in even ones, appending
# each side's runs to one result file, and prints `compare` on the two
# files. Last, for each workload and end-to-end metric, it prints the
# change's inter-quartile range beside 25% of the parent's median (the
# spread test: where the IQR is the wider, `compare` reads `unresolved`
# and the metric cannot carry a claim), and how many pairs the change
# won (a claim needs nine in ten). With a workload named, it then runs
# that workload once traced on each side and prints every per-layer
# metric side by side with the change/parent ratio: the ladder that
# names the layer that moved. Exits with `compare`'s status, or a failed
# traced run's.
#
# Each run takes the benchmark's own seed and run length. Environment:
# BENCH_PAIRS_DIR (work directory, default a new temporary one; the
# result files stay there).
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
  echo "usage: $0 <parent-rev> <pairs> [workload]" >&2
  exit 2
fi
rev="$1"
pairs="$2"
ladder="${3:-}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}"
case "$work" in
  "$repo" | "$repo"/*)
    echo "$0: the work directory must lie outside the repository" >&2
    exit 2
    ;;
esac

parent_tree="$work/parent"
rm -rf "$parent_tree"
mkdir -p "$parent_tree"
git -C "$repo" archive "$rev" | tar -x -C "$parent_tree"
echo "parent $(git -C "$repo" rev-parse --short "$rev") exported to $parent_tree" >&2

# side <name> <tree> <args…>: the benchmark of one tree, in its own
# target directory.
side() {
  local name="$1" tree="$2"
  shift 2
  CARGO_TARGET_DIR="$work/$name-target" bash "$tree/benchmark/run.sh" "$@"
}

for s in parent change; do
  rm -f "$work/$s.json"
done
for ((i = 1; i <= pairs; i++)); do
  order="parent change"
  ((i % 2 == 0)) && order="change parent"
  for s in $order; do
    tree="$repo"
    [ "$s" = parent ] && tree="$parent_tree"
    echo "pair $i/$pairs: $s" >&2
    side "$s" "$tree" run --repeats 1 --label "$s" --out "$work/$s.json" \
      > "$work/$s-run$i.log"
  done
done

status=0
side change "$repo" compare "$work/parent.json" "$work/change.json" \
  | tee "$work/compare.txt" || status=$?

# The compare table's columns: workload, metric, then per side
# `median [q1, q3] (n)`, the ratio and the verdict.
echo
printf '%-12s %-10s %14s %20s  %s\n' workload metric "change IQR" "25% parent median" spread
tr -d '[],' < "$work/compare.txt" | awk 'NR > 1 && NF >= 11 {
  iqr = $9 - $8; limit = 0.25 * $3
  printf "%-12s %-10s %14.4f %20.4f  %s\n", $1, $2, iqr, limit, (iqr <= limit ? "ok" : "TOO WIDE")
}'

# Pair by pair: both files list their runs in the same workload order.
echo
printf '%-12s %-10s %s\n' workload metric "pairs the change won"
for m in p50_us p95_us qps cache_mb setup_s; do
  for s in parent change; do
    sed -n "s/.*\"workload\":\"\([a-z_]*\)\".*\"$m\":{\"value\":\([^,}]*\).*/\1 \2/p" \
      "$work/$s.json" > "$work/$s.$m"
  done
  paste -d' ' "$work/parent.$m" "$work/change.$m" | awk -v m="$m" '
    { won[$1] += (m == "qps") ? ($4 > $2) : ($4 < $2); n[$1]++; if (!($1 in seen)) { seen[$1]; order[++k] = $1 } }
    END { for (i = 1; i <= k; i++) printf "%-12s %-10s %d/%d\n", order[i], m, won[order[i]], n[order[i]] }'
done

# The per-layer ladder of one workload: one traced run a side, each
# printing its metrics as the last line of its output, in the order
# BENCHMARK.json lists them.
if [ -n "$ladder" ]; then
  for s in parent change; do
    tree="$repo"
    [ "$s" = parent ] && tree="$parent_tree"
    echo "traced $ladder: $s" >&2
    side "$s" "$tree" --workload "$ladder" --trace 1 > "$work/$s-traced.log" || status=$?
    tail -n 1 "$work/$s-traced.log" | grep -o '"[a-z0-9_.]*":{"value":[^,}]*' \
      | sed 's/^"\([^"]*\)":{"value":/\1 /' > "$work/$s.ladder"
  done
  echo
  printf '%-32s %14s %14s %8s\n' "$ladder (traced)" parent change ratio
  paste -d' ' "$work/parent.ladder" "$work/change.ladder" | awk '{
    ratio = ($2 != 0) ? sprintf("%.3f", $4 / $2) : "-"
    printf "%-32s %14.4f %14.4f %8s\n", $1, $2, $4, ratio
  }'
fi
echo "results: $work" >&2
exit "$status"
