# Helpers the smoke scripts share (overload_smoke.sh, repl_smoke.sh,
# shard_smoke.sh). A script sets SMOKE_TAG — its log prefix and the name of
# its work directory — and sources this file, which makes the work directory
# $WORK (the binary goes to $BIN) and an EXIT trap that kills -9 every pid the
# script appended to PIDS and removes $WORK.

WORK=$(mktemp -d "/tmp/taser-$SMOKE_TAG.XXXXXX")
BIN=$WORK/taser-serve
PIDS=()
cleanup() {
    for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "[$SMOKE_TAG] $*"; }
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
