#!/usr/bin/env bash
# Two-process replication smoke test (DESIGN.md §12): a real leader and a
# real follower over localhost HTTP, a hard leader kill, a promotion, and
# the demoted leader's store re-joining the new leader — the full hand-off
# drill the in-process tests cover only single-process.
#
#   leader :18191 (durable) ← follower :18192 tails it
#   ingest → leader, follower converges, follower rejects writes with 421
#   kill -9 leader → POST /v1/repl/promote → follower serves writes
#   old store restarts as a follower of the new leader and converges
set -euo pipefail

ADDR_A=127.0.0.1:18191
ADDR_B=127.0.0.1:18192
ADDR_C=127.0.0.1:18193
COMMON="-dataset wikipedia -scale 0.02 -epochs 0 -seed 42"

SMOKE_TAG=repl-smoke
source "$(dirname "$0")/smoke_lib.sh"

go build -o "$BIN" ./cmd/taser-serve
say "built $BIN"

say "starting leader on $ADDR_A"
"$BIN" $COMMON -addr "$ADDR_A" -wal-dir "$WORK/leader" >"$WORK/leader.log" 2>&1 &
LEADER=$!; PIDS+=("$LEADER"); disown
wait_json "http://$ADDR_A/v1/healthz" '"status":"ok"'

say "ingesting 100 events into the leader"
T0=$(field "http://$ADDR_A/v1/stats" live_watermark)
for i in $(seq 100); do
    curl -fsS --max-time 2 -X POST "http://$ADDR_A/v1/ingest" \
        -d "{\"src\":1,\"dst\":2,\"t\":$(awk "BEGIN{printf \"%.1f\", $T0 + $i}")}" >/dev/null
done
LEADER_EVENTS=$(field "http://$ADDR_A/v1/stats" events)

say "starting follower on $ADDR_B (replicating from $ADDR_A)"
"$BIN" $COMMON -addr "$ADDR_B" -wal-dir "$WORK/follower" \
    -replicate-from "http://$ADDR_A" >"$WORK/follower.log" 2>&1 &
FOLLOWER=$!; PIDS+=("$FOLLOWER"); disown
wait_json "http://$ADDR_B/v1/healthz" '"role":"follower"'
wait_json "http://$ADDR_B/v1/stats" '"repl_lag":0[,}]'
say "follower caught up (leader has $LEADER_EVENTS events)"

say "follower must reject writes with 421 and point at the leader"
CODE=$(curl -s --max-time 2 -o "$WORK/rej.json" -w '%{http_code}' -X POST \
    "http://$ADDR_B/v1/ingest" -d '{"src":1,"dst":2,"t":9e9}')
[ "$CODE" = 421 ] || die "follower ingest returned $CODE, want 421"
grep -q "$ADDR_A" "$WORK/rej.json" || die "421 body does not name the leader"

say "follower serves reads while tailing"
curl -fsS --max-time 5 -X POST "http://$ADDR_B/v1/predict" \
    -d '{"src":1,"dst":2,"t":9e9}' | grep -q '"score"' || die "follower predict failed"

say "killing the leader (kill -9) and promoting the follower"
kill -9 "$LEADER"
curl -fsS --max-time 5 -X POST "http://$ADDR_B/v1/repl/promote" | grep -q true
wait_json "http://$ADDR_B/v1/healthz" '"role":"leader"'

say "promoted follower must accept writes and keep serving"
WM=$(field "http://$ADDR_B/v1/stats" live_watermark)
for i in $(seq 70); do
    curl -fsS --max-time 2 -X POST "http://$ADDR_B/v1/ingest" \
        -d "{\"src\":3,\"dst\":4,\"t\":$(awk "BEGIN{printf \"%.1f\", $WM + $i}")}" \
        >"$WORK/ing.json" || die "promoted follower rejected write $i"
done
grep -q '"events"' "$WORK/ing.json" || die "promoted follower ingest gave no event count"
NEW_EVENTS=$(grep -o '"events":[0-9]*' "$WORK/ing.json" | cut -d: -f2)
curl -fsS --max-time 5 -X POST "http://$ADDR_B/v1/predict" \
    -d '{"src":3,"dst":4,"t":9e9}' | grep -q '"score"' || die "post-promotion predict failed"

say "demoted leader's store re-joins as a follower of the new leader"
"$BIN" $COMMON -addr "$ADDR_C" -wal-dir "$WORK/leader" \
    -replicate-from "http://$ADDR_B" >"$WORK/rejoin.log" 2>&1 &
REJOIN=$!; PIDS+=("$REJOIN"); disown
wait_json "http://$ADDR_C/v1/healthz" '"role":"follower"'
wait_json "http://$ADDR_C/v1/stats" '"repl_lag":0[,}]'
REJOIN_APPLIED=$(field "http://$ADDR_C/v1/stats" repl_applied)
# The rejoined node must have advanced past the kill point into the new
# leader's writes; only the new leader's unsynced tail (< 64) may be missing.
[ "$REJOIN_APPLIED" -ge "$((NEW_EVENTS - 64))" ] || \
    die "rejoined node applied $REJOIN_APPLIED events, new leader has $NEW_EVENTS"

say "PASS: converge → 421 → kill → promote → write → re-join all held"
