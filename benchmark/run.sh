#!/usr/bin/env bash
# The benchmark's only script. Two uses, both from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       builds the binary if needed and runs one workload (BENCHMARK.json's
#       command; any flag of the binary passes through).
#
#   bash benchmark/run.sh set LABEL [N] [SEED] [vary]
#       a run-set: every workload N times (default 5) in fresh processes,
#       alternating the workload order between repetitions, results in
#       benchmark/out/LABEL/. With "vary", repetition i uses seed SEED+i.
#       WORKLOADS="a b" restricts the set to those workloads.
#
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache, temp files and the binary.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
build="$PWD/.bench_build"
bin="$build/taser-benchmark"

build_binary() {
	mkdir -p "$build/tmp"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		GOENV=off GOTOOLCHAIN=local GOTELEMETRY=off \
		XDG_CONFIG_HOME="$build/config" \
		go build -C "$here" -o "$bin" .
}

if [ "${1:-}" != "set" ]; then
	build_binary >&2
	exec "$bin" "$@"
fi

label="${2:?usage: run.sh set LABEL [N] [SEED] [vary]}"
n="${3:-5}"
seed="${4:-1}"
vary="${5:-}"
build_binary
out="$here/out/$label"
mkdir -p "$out"
workloads=(${WORKLOADS:-train-taser-tgat train-base-mixer serve-cold serve-http-mixed})
for ((i = 0; i < n; i++)); do
	order=("${workloads[@]}")
	if ((i % 2 == 1)); then
		order=()
		for ((k = ${#workloads[@]} - 1; k >= 0; k--)); do order+=("${workloads[k]}"); done
	fi
	s="$seed"
	if [ "$vary" = "vary" ]; then s=$((seed + i)); fi
	for w in "${order[@]}"; do
		echo "run $((i + 1))/$n $w seed $s" >&2
		"$bin" -workload "$w" -seed "$s" >"$out/$w-$i.json"
	done
done
echo "$out"
