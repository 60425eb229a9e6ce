#!/usr/bin/env bash
# Overload-plane smoke test (DESIGN.md §14): one real taser-serve process
# with the SLO controller and a deliberately tiny admission gate, a parallel
# predict burst that must shed deliberately (429 + usable Retry-After, shed
# counters in /v1/stats), full recovery once the burst drains, and a SIGTERM
# mid-burst that must exit cleanly — the process-level analog of the
# in-process zero-goroutine-leak drain test (TestCloseDuringShedBurst).
#
#   server :18301 (-slo-p99 25ms -max-queue 2 -overload-capacity 1
#                  → at most 1 in service + 2 queued per lane; everything
#                    else sheds)
#   8 predict clients, 4 requests in flight each → guaranteed rejections
#   contradictory overload flags must fail fast before any of that.
set -euo pipefail

ADDR=127.0.0.1:18301
COMMON="-dataset wikipedia -scale 0.02 -epochs 0 -seed 42 -snapshot-every 1"

WORK=$(mktemp -d /tmp/taser-overload-smoke.XXXXXX)
BIN=$WORK/taser-serve
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "[overload-smoke] $*"; }
die() { say "FAIL: $*"; exit 1; }

# wait_json URL PATTERN TRIES — poll until the JSON body matches the pattern.
wait_json() {
    local url=$1 pattern=$2 tries=${3:-100}
    for _ in $(seq "$tries"); do
        if curl -fsS --max-time 2 "$url" 2>/dev/null | grep -q "$pattern"; then
            return 0
        fi
        sleep 0.2
    done
    die "$url never matched '$pattern'"
}

# field URL NAME — extract a numeric JSON field (scientific notation included).
field() { curl -fsS --max-time 2 "$1" | grep -o "\"$2\":[0-9.eE+-]*" | head -1 | cut -d: -f2; }

# lane_shed LANE — the shed counter of one lane in the overload gate block.
lane_shed() {
    curl -fsS --max-time 2 "http://$ADDR/v1/stats" \
        | grep -o "\"$1\":{[^}]*" | grep -o '"shed":[0-9]*' | cut -d: -f2
}

go build -o "$BIN" ./cmd/taser-serve
say "built $BIN"

say "contradictory overload flags must fail fast"
if "$BIN" $COMMON -slo-p99 0s >"$WORK/flags1.log" 2>&1; then
    die "an explicit -slo-p99 0s was accepted"
fi
grep -q "slo-p99" "$WORK/flags1.log" || die "zero-SLO rejection did not name the flag"
if "$BIN" $COMMON -overload-interval 100ms >"$WORK/flags2.log" 2>&1; then
    die "-overload-interval without -slo-p99 was accepted"
fi
grep -q "overload-interval requires -slo-p99" "$WORK/flags2.log" \
    || die "interval-without-target rejection did not explain itself"
if "$BIN" $COMMON -overload-capacity 4 >"$WORK/flags3.log" 2>&1; then
    die "-overload-capacity without -max-queue was accepted"
fi
grep -q "overload-capacity requires -max-queue" "$WORK/flags3.log" \
    || die "capacity-without-queue rejection did not explain itself"
if "$BIN" $COMMON -max-queue -1 >"$WORK/flags4.log" 2>&1; then
    die "a negative -max-queue was accepted"
fi
grep -q "max-queue must be positive" "$WORK/flags4.log" \
    || die "negative-queue rejection did not explain itself"

say "starting taser-serve with the overload plane on tiny queues"
"$BIN" $COMMON -addr "$ADDR" -slo-p99 25ms -max-queue 2 -overload-capacity 1 \
    >"$WORK/serve.log" 2>&1 &
SRV=$!; PIDS+=("$SRV")
wait_json "http://$ADDR/v1/healthz" '"status":"ok"'
STATS=$(curl -fsS --max-time 2 "http://$ADDR/v1/stats")
echo "$STATS" | grep -q '"overload"' || die "/v1/stats has no overload block"
echo "$STATS" | grep -q '"effective_max_batch"' || die "overload block has no effective batch"
echo "$STATS" | grep -q '"target_p99_us"' || die "overload block has no controller view"
echo "$STATS" | grep -q '"lanes"' || die "overload block has no gate lanes"

say "burst: 8 clients × 4 in flight against capacity 1 / queue 2 must shed"
T0=$(field "http://$ADDR/v1/stats" live_watermark)
QT=$(awk "BEGIN{printf \"%.1f\", $T0 + 1e9}")
# flood N_REQS OUT — N predicts, 4 in flight at a time, one status code per
# line. One curl process holds the connections (-Z over a globbed URL; the
# handler ignores the query): a hot predict is answered in well under a
# millisecond, so clients that fork a curl per request never overlap enough
# to fill even this gate.
flood() {
    curl -s -Z --parallel-max 4 -o /dev/null --max-time 10 -w '%{http_code}\n' \
        -X POST -d "{\"src\":1,\"dst\":4,\"t\":$QT}" \
        "http://$ADDR/v1/predict?n=[1-$1]" >>"$2" 2>/dev/null || true
}
FLOODERS=()
for c in $(seq 8); do
    flood 400 "$WORK/codes.$c" &
    FLOODERS+=("$!")
done
# While the flood holds the gate full, capture one full shed response: it
# must be a 429 and it must carry a usable (integer ≥ 1) Retry-After.
GOT429=""
for _ in $(seq 200); do
    RESP=$(curl -s -i --max-time 10 -X POST "http://$ADDR/v1/predict" \
        -d "{\"src\":2,\"dst\":5,\"t\":$QT}" || true)
    if echo "$RESP" | head -1 | grep -q 429; then GOT429=$RESP; break; fi
done
for pid in "${FLOODERS[@]}"; do wait "$pid"; done
[ -n "$GOT429" ] || die "never captured a 429 during the burst"
RA=$(echo "$GOT429" | grep -i '^retry-after:' | tr -dc 0-9)
[ -n "$RA" ] && [ "$RA" -ge 1 ] || die "429 carried no usable Retry-After (got '$RA')"
echo "$GOT429" | grep -q '"lane":"predict"' || die "429 body did not name the lane"
SHED_TOTAL=$(cat "$WORK"/codes.* | grep -c '^429' || true)
OK_TOTAL=$(cat "$WORK"/codes.* | grep -c '^200' || true)
[ "$SHED_TOTAL" -ge 1 ] || die "no flood request was shed (codes: $(sort "$WORK"/codes.* | uniq -c | tr '\n' ' '))"
[ "$OK_TOTAL" -ge 1 ] || die "no flood request succeeded — that is an outage, not load shedding"
STATS_SHED=$(lane_shed predict)
[ -n "$STATS_SHED" ] && [ "$STATS_SHED" -ge "$SHED_TOTAL" ] \
    || die "/v1/stats shed counter ($STATS_SHED) below the client-observed count ($SHED_TOTAL)"
say "burst: $OK_TOTAL served, $SHED_TOTAL shed with Retry-After=${RA}s, stats counter $STATS_SHED"

say "recovery: once the burst drains, serial requests must all succeed"
for _ in $(seq 100); do
    [ "$(field "http://$ADDR/v1/stats" in_service)" = "0" ] && break
    sleep 0.1
done
[ "$(field "http://$ADDR/v1/stats" in_service)" = "0" ] || die "gate never drained after the burst"
for i in $(seq 10); do
    curl -fsS --max-time 5 -X POST "http://$ADDR/v1/predict" \
        -d "{\"src\":$i,\"dst\":$((i + 3)),\"t\":$QT}" | grep -q '"score"' \
        || die "post-burst predict $i failed — shedding must stop when pressure does"
done

say "SIGTERM mid-burst: the drain must terminate, queued work must not hang it"
for c in $(seq 4); do
    flood 4000 /dev/null &
    FLOODERS+=("$!")
done
sleep 0.3
kill -TERM "$SRV"
for _ in $(seq 150); do
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.2
done
kill -0 "$SRV" 2>/dev/null && die "server still alive 30s after SIGTERM under load"
grep -q "bye" "$WORK/serve.log" || die "shutdown did not reach the clean 'bye' exit"
wait 2>/dev/null || true

say "PASS: flag validation → tiny-gate boot → shed burst (429+Retry-After) → recovery → clean SIGTERM drain"
