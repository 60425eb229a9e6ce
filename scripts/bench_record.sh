#!/usr/bin/env bash
# The training stage record: writes BENCH_<n>.json at the repository root.
#
#   scripts/bench_record.sh <n>        (make bench-record PR=<n>)
#
# Runs `taser-bench -exp table3 -datasets wikipedia -scale 0.2` (both
# backbones, every Table III variant) at GOMAXPROCS=1 as `laps` separate
# processes, and records each cell's median and interquartile range over the
# laps, with the commit and a host line. The laps' JSON rows come from
# `taser-bench -json`; no experiment's arithmetic changes. Takes ~10 s a lap
# on a 2-vCPU Xeon. Compare a PR's file with its parent's cell by cell.
set -eu
cd "$(dirname "$0")/.."

[ $# -eq 1 ] && [ -n "$1" ] || { echo "usage: $0 <n>" >&2; exit 2; }
n=$1
laps=7
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

go build -o "$d/taser-bench" ./cmd/taser-bench
for i in $(seq "$laps"); do
    GOMAXPROCS=1 "$d/taser-bench" -exp table3 -datasets wikipedia -scale 0.2 -json "$d/lap$i.json" >/dev/null
done

commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- . ':(exclude)BENCH_*.json' || commit="$commit-dirty"
cpu=$(grep -m1 'model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2 | sed 's/^ *//' || true)
host="$(uname -sm), ${cpu:-unknown CPU}, $(nproc) CPUs, $(go env GOVERSION)"

# Every lap lists the same cells in the same order; a cell's laps are sorted
# and read at the quartiles by linear interpolation.
jq -s --arg commit "$commit" --arg host "$host" --argjson pr "$n" --argjson laps "$laps" '
def q(p): ((length - 1) * p) as $h | ($h | floor) as $i
    | if $i + 1 < length then .[$i] + ($h - $i) * (.[$i + 1] - .[$i]) else .[$i] end;
[.[] | .[0].rows] as $runs
| if ([$runs[] | map([.group, .variant, .metric])] | unique | length) != 1
  then error("laps disagree on the table3 cells") else . end
| {pr: $pr, commit: $commit, host: $host,
   profile: "taser-bench -exp table3 -datasets wikipedia -scale 0.2, GOMAXPROCS=1",
   laps: $laps,
   table3: [$runs[0] | to_entries[] | .key as $k
     | ([$runs[] | .[$k].value] | sort) as $v
     | {group: .value.group, variant: .value.variant, metric: .value.metric, unit: .value.unit,
        median: ($v | q(0.5)), iqr: (($v | q(0.75)) - ($v | q(0.25)))}]}
' "$d"/lap*.json >"BENCH_$n.json"
echo "wrote BENCH_$n.json ($laps laps, $commit)"
