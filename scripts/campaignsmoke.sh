#!/bin/sh
# Campaign service integration smoke: build cmd/reprod under -race,
# start it, submit the same job set twice through the mutsample campaign
# client, run it once more in-process, and assert the contract the
# service exists for —
#
#   1. every report of the second pass is byte-identical to the first
#      pass's (content addressing: equal key, equal bytes),
#   2. the second pass is served from the content cache (the server's
#      /v1/stats hit counter grows by the size of the job set), and
#   3. every served report of the first pass is byte-identical to the
#      in-process report of the same job (one semantics, whoever runs
#      it: the server splits the b01 fault-simulation job into shards
#      and merges them, the in-process run does not).
#
# Usage: sh scripts/campaignsmoke.sh [port]
set -eu

PORT="${1:-19190}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT INT TERM

echo "campaignsmoke: building (race-instrumented server)"
go build -race -o "$WORK/reprod" ./cmd/reprod
go build -o "$WORK/mutsample" ./cmd/mutsample

"$WORK/reprod" -listen "127.0.0.1:$PORT" -parallel 2 \
    -cache-dir "$WORK/cache" -ckpt-dir "$WORK/ckpt" &
SERVER_PID=$!

# Wait for the server to come up.
tries=0
until "$WORK/mutsample" campaign -server "$BASE" -kind faultsim \
        -horizon 16 c17 >/dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 50 ]; then
        echo "campaignsmoke: server did not come up on $BASE" >&2
        exit 1
    fi
    sleep 0.2
done

# run_all PASS [-server URL]: run the job set, through the server when
# -server is given and in-process otherwise, into $WORK/PASS.<kind>.json.
run_all() {
    pass="$1"
    shift
    "$WORK/mutsample" campaign "$@" -kind faultsim \
        -seed 3 -horizon 256 -window 64 b01 >"$WORK/$pass.faultsim.json"
    "$WORK/mutsample" campaign "$@" -kind tg \
        -seed 5 -maxlen 64 b02 >"$WORK/$pass.tg.json"
    "$WORK/mutsample" campaign "$@" -kind atpg \
        -seed 1 c432 >"$WORK/$pass.atpg.json"
}

hits() {
    curl -sf "$BASE/v1/stats" | sed 's/.*"hits":\([0-9]*\).*/\1/'
}

echo "campaignsmoke: first pass (cold cache)"
run_all first -server "$BASE"
HITS_AFTER_FIRST="$(hits)"

echo "campaignsmoke: second pass (must be served from cache)"
run_all second -server "$BASE"
HITS_AFTER_SECOND="$(hits)"

echo "campaignsmoke: in-process pass"
run_all local

status=0
for kind in faultsim tg atpg; do
    if cmp -s "$WORK/first.$kind.json" "$WORK/second.$kind.json"; then
        echo "campaignsmoke: $kind reports byte-identical"
    else
        echo "campaignsmoke: FAIL: $kind reports differ between passes" >&2
        diff "$WORK/first.$kind.json" "$WORK/second.$kind.json" >&2 || true
        status=1
    fi
    if cmp -s "$WORK/first.$kind.json" "$WORK/local.$kind.json"; then
        echo "campaignsmoke: $kind served report equals the in-process one"
    else
        echo "campaignsmoke: FAIL: $kind served report differs from the in-process one" >&2
        diff "$WORK/first.$kind.json" "$WORK/local.$kind.json" >&2 || true
        status=1
    fi
done

GAINED=$((HITS_AFTER_SECOND - HITS_AFTER_FIRST))
if [ "$GAINED" -lt 3 ]; then
    echo "campaignsmoke: FAIL: second pass gained $GAINED cache hits, want >= 3" >&2
    status=1
else
    echo "campaignsmoke: second pass served from cache ($GAINED hits)"
fi

exit "$status"
