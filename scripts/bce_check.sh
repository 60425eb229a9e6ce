#!/usr/bin/env bash
# Bounds-check-elimination guard for the tensor hot loops.
#
# Compiles internal/tensor with -d=ssa/check_bce and diffs the emitted check
# sites against scripts/bce_allowlist.txt. Every allowlisted site is setup
# code — per row, per panel call, per block or k step of the Go twin — and
# the loops that run once per multiply-add carry none. A new site in a hot
# loop therefore shows up as a diff and fails CI.
#
# What guards the matmul path (tile.go, matmul.go):
#   - The Go twin of the 4×8 tile (tileGo) must keep its multiply-add body
#     check-free: its k loop carries two checks per step (one a element, one
#     8-wide b row — runtime strides cannot be proven), then 8 unchecked
#     multiply-adds through an array pointer. The scalar fallbacks (axpyRows,
#     dotRows) hoist theirs out of the innermost loop with reslice hints.
#   - The AVX2 routine (tile_amd64.s) is invisible to this check: it performs
#     none. Its safety is the Go wrapper (tile), which indexes the last
#     element each operand will touch in the whole panel, bias included,
#     before the call — those sites are in the allowlist and must stay, and
#     TestTileStaysInsideItsOperands / TestTilePanicsOnShortOperand pin the
#     behaviour.
#
# The neighborhood reductions (GroupedScoreInto, GroupedWeightedSumInto,
# GroupMeanInto) and ScatterRowsInto read a slot index: the slot lookup and
# the score or weight position it names are data-dependent and keep their
# checks, once per slot (per row), never inside a per-element loop.
#
# If the diff is legitimate (a kernel changed shape and its setup checks
# moved), regenerate the allowlist with:  scripts/bce_check.sh -update
set -eu
cd "$(dirname "$0")/.."

allowlist=scripts/bce_allowlist.txt
current=$(mktemp)
trap 'rm -f "$current"' EXIT

# The compiler emits one "Found IsInBounds"/"Found IsSliceInBounds" line per
# residual check; the build cache replays diagnostics, so repeated runs are
# stable. Sort for a canonical order.
go build -o /dev/null -gcflags='-d=ssa/check_bce' ./internal/tensor/ 2>&1 |
    grep 'Found Is' | sort -t: -k1,1 -k2,2n >"$current" || true

if [ "${1:-}" = "-update" ]; then
    cp "$current" "$allowlist"
    echo "bce_check: allowlist regenerated ($(wc -l <"$allowlist") sites)"
    exit 0
fi

if ! diff -u "$allowlist" "$current"; then
    echo >&2
    echo "bce_check: FAIL — bounds-check sites in internal/tensor changed." >&2
    echo "Lines prefixed '+' are new checks (a hot loop may have regressed);" >&2
    echo "lines prefixed '-' disappeared (update the allowlist)." >&2
    echo "After verifying no innermost loop regressed: scripts/bce_check.sh -update" >&2
    exit 1
fi
echo "bce_check: OK ($(wc -l <"$allowlist") allowlisted setup sites, hot loops clean)"
