#!/usr/bin/env bash
# Sharded-serving smoke test (DESIGN.md §13): one real taser-serve process
# running a 4-shard fleet over localhost HTTP, mixed ingest/predict traffic,
# a hard kill, and a -recover restart over the same per-shard WAL directories
# — asserting watermark and prediction continuity across the crash.
#
#   fleet :18201 (-shards 4, durable, -wal-sync-every 1 → zero loss)
#   mixed ingest (cross-shard pairs included) + predict + embed
#   kill -9 → restart -recover → watermark equal, same probe scores bitwise,
#   ingest keeps working; contradictory flags (-shards + -replicate-from)
#   must fail fast before any of that.
set -euo pipefail

ADDR=127.0.0.1:18201
# -snapshot-every 1: publish every ingested event into serving, so pre-kill
# probes see the full stream — recovery always publishes everything it
# restored, and the continuity check below compares the two bitwise.
COMMON="-dataset wikipedia -scale 0.02 -epochs 0 -seed 42 -model graphmixer -shards 4 -snapshot-every 1"

SMOKE_TAG=shard-smoke
source "$(dirname "$0")/smoke_lib.sh"

go build -o "$BIN" ./cmd/taser-serve
say "built $BIN"

say "contradictory flags must fail fast"
if "$BIN" $COMMON -replicate-from http://127.0.0.1:1 >"$WORK/flags.log" 2>&1; then
    die "-shards 4 with -replicate-from was accepted"
fi
grep -q "replicate-from" "$WORK/flags.log" || die "rejection did not name the flag"
if "$BIN" -dataset wikipedia -scale 0.02 -epochs 0 -shards 4 -model tgat >"$WORK/flags2.log" 2>&1; then
    die "-shards 4 with a multi-layer model was accepted"
fi
grep -q "graphmixer" "$WORK/flags2.log" || die "model rejection did not name graphmixer"

say "starting a 4-shard fleet on $ADDR"
"$BIN" $COMMON -addr "$ADDR" -wal-dir "$WORK/fleet" -wal-sync-every 1 \
    >"$WORK/fleet.log" 2>&1 &
FLEET=$!; PIDS+=("$FLEET"); disown
wait_json "http://$ADDR/v1/healthz" '"status":"ok"'
curl -fsS --max-time 2 "http://$ADDR/v1/stats" | grep -q '"shard_count":4' \
    || die "/v1/stats has no shard_count:4"
for s in 0 1 2 3; do
    [ -d "$WORK/fleet/shard-$s" ] || die "per-shard WAL dir shard-$s missing"
done

say "mixed ingest/predict traffic (cross-shard pairs included)"
T0=$(field "http://$ADDR/v1/stats" live_watermark)
for i in $(seq 60); do
    # Rotating endpoints across a handful of node ids guarantees both
    # same-shard and cross-shard events under any 4-way partition.
    SRC=$((i % 7)); DST=$(( (i * 3 + 1) % 11 ))
    [ "$SRC" = "$DST" ] && DST=$(( (DST + 1) % 11 ))
    curl -fsS --max-time 2 -X POST "http://$ADDR/v1/ingest" \
        -d "{\"src\":$SRC,\"dst\":$DST,\"t\":$(awk "BEGIN{printf \"%.1f\", $T0 + $i}")}" >/dev/null
    if [ $((i % 10)) = 0 ]; then
        curl -fsS --max-time 5 -X POST "http://$ADDR/v1/predict" \
            -d "{\"src\":$SRC,\"dst\":$DST,\"t\":9e9}" | grep -q '"score"' \
            || die "predict during ingest failed"
    fi
done
TEED=$(field "http://$ADDR/v1/stats" events_teed)
[ "${TEED%%.*}" -ge 1 ] || die "no events were teed across shards (teed=$TEED)"
EVENTS_PRE=$(field "http://$ADDR/v1/stats" events)
WM_PRE=$(field "http://$ADDR/v1/stats" live_watermark)
SCORE_PRE=$(curl -fsS --max-time 5 -X POST "http://$ADDR/v1/predict" \
    -d '{"src":1,"dst":4,"t":9e9}' | grep -o '"score":[0-9.eE+-]*' | cut -d: -f2)
EMB_PRE=$(curl -fsS --max-time 5 -X POST "http://$ADDR/v1/embed" \
    -d '{"node":1,"t":9e9}' | grep -o '"embedding":\[[^]]*\]')
say "pre-kill: $EVENTS_PRE events, watermark $WM_PRE, probe score $SCORE_PRE"

say "killing the fleet (kill -9) and restarting with -recover"
kill -9 "$FLEET"
"$BIN" $COMMON -addr "$ADDR" -wal-dir "$WORK/fleet" -wal-sync-every 1 \
    >"$WORK/recovered.log" 2>&1 &
REC=$!; PIDS+=("$REC"); disown
wait_json "http://$ADDR/v1/healthz" '"status":"ok"'
grep -q "recovered" "$WORK/recovered.log" || die "restart did not report a recovery"

say "watermark and event-count continuity (sync-every 1 → zero loss)"
EVENTS_POST=$(field "http://$ADDR/v1/stats" events)
WM_POST=$(field "http://$ADDR/v1/stats" live_watermark)
[ "$EVENTS_POST" = "$EVENTS_PRE" ] || die "events $EVENTS_PRE → $EVENTS_POST across the crash"
[ "$WM_POST" = "$WM_PRE" ] || die "watermark $WM_PRE → $WM_POST across the crash"

say "prediction continuity: the same probes must score bitwise-identically"
SCORE_POST=$(curl -fsS --max-time 5 -X POST "http://$ADDR/v1/predict" \
    -d '{"src":1,"dst":4,"t":9e9}' | grep -o '"score":[0-9.eE+-]*' | cut -d: -f2)
[ "$SCORE_POST" = "$SCORE_PRE" ] || die "probe score $SCORE_PRE → $SCORE_POST across the crash"
EMB_POST=$(curl -fsS --max-time 5 -X POST "http://$ADDR/v1/embed" \
    -d '{"node":1,"t":9e9}' | grep -o '"embedding":\[[^]]*\]')
[ "$EMB_POST" = "$EMB_PRE" ] || die "probe embedding changed across the crash"

say "the recovered fleet keeps accepting writes"
WM=$(field "http://$ADDR/v1/stats" live_watermark)
for i in $(seq 10); do
    curl -fsS --max-time 2 -X POST "http://$ADDR/v1/ingest" \
        -d "{\"src\":2,\"dst\":5,\"t\":$(awk "BEGIN{printf \"%.1f\", $WM + $i}")}" >/dev/null \
        || die "post-recovery ingest $i failed"
done

say "PASS: flag validation → 4-shard serve → kill → recover → continuity all held"
