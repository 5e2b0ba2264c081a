#!/bin/sh
# serve-smoke.sh — end-to-end smoke test of the simulation service.
#
# Builds esteem-serve and esteem-client, boots a daemon on a free
# port, and drives the full client workflow against it: submit, poll,
# stream events, fetch the result. Then proves the content-addressed
# store's headline guarantees with cmp(1):
#
#   1. a cache-hit resubmission returns byte-identical result bytes
#      and executes zero simulations;
#   2. a daemon restarted over the same store directory serves the
#      same bytes from disk, again executing nothing;
#   3. SIGTERM drains gracefully (the daemon exits 0).
set -eu
cd "$(dirname "$0")/.."
. ./scripts/lib.sh

WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building service binaries =="
go build -o "$WORK/" ./cmd/esteem-serve ./cmd/esteem-client

start_daemon() {
    rm -f "$WORK/addr"
    "$WORK/esteem-serve" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
        -cache "$WORK/store" -job-timeout 2m >"$WORK/serve.log" 2>&1 &
    SERVE_PID=$!
    wait_file "$WORK/addr" 10 || { cat "$WORK/serve.log"; exit 1; }
    SERVER="http://$(cat "$WORK/addr")"
    wait_healthz "$SERVER" 15 || { cat "$WORK/serve.log"; exit 1; }
    echo "== daemon up at $SERVER =="
}

stop_daemon() {
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID" || { echo "daemon exited non-zero on SIGTERM"; cat "$WORK/serve.log"; exit 1; }
    SERVE_PID=""
}

# submit_job VAR: submits the canonical tiny job and stores its id.
SUBMIT_ARGS="-bench gcc -technique esteem -instr 200000 -warmup 50000 -interval 100000 -seed 1 -wait"
submit_job() {
    "$WORK/esteem-client" submit -server "$SERVER" $SUBMIT_ARGS 2>/dev/null |
        sed -n 's/^  "id": "\([0-9a-f]*\)",$/\1/p'
}

metric() {
    curl -sf "$SERVER/metrics" | awk -v m="$1" '$1 == m {print $2}'
}

start_daemon

echo "== cold submit =="
COLD_ID="$(submit_job)"
[ -n "$COLD_ID" ] || { echo "submit returned no job id"; exit 1; }
"$WORK/esteem-client" result -server "$SERVER" -o "$WORK/cold.json" "$COLD_ID"

echo "== metrics exposition =="
curl -sf "$SERVER/metrics" >"$WORK/metrics.prom"
check_families "$WORK/metrics.prom" || { echo "/metrics splits a metric family"; exit 1; }
grep -qx '# TYPE esteem_serve_jobs_completed_total counter' "$WORK/metrics.prom" ||
    { echo "/metrics lacks the jobs-completed TYPE line"; exit 1; }

echo "== event stream =="
"$WORK/esteem-client" watch -server "$SERVER" "$COLD_ID" | tee "$WORK/events.log"
grep -q '"state":"done"' "$WORK/events.log" || { echo "event stream missing terminal state"; exit 1; }
grep -q '"task":"done"' "$WORK/events.log" || { echo "event stream missing task events"; exit 1; }

echo "== trace export =="
# The client validates the span tree (every span parented, start <=
# end, parents containing children) and enforces that the job's
# queue/run phases account for >= 95% of its wall-clock.
"$WORK/esteem-client" trace -server "$SERVER" -min-coverage 0.95 \
    -o "$WORK/trace-tree.json" "$COLD_ID" 2>"$WORK/trace.log"
cat "$WORK/trace.log"
"$WORK/esteem-client" trace -server "$SERVER" -format chrome \
    -o "$WORK/trace-chrome.json" "$COLD_ID" 2>/dev/null
grep -q '"traceEvents"' "$WORK/trace-chrome.json" || { echo "chrome trace malformed"; exit 1; }
for phase in '"queue"' '"run"' '"task"' '"sim"' '"warmup"' '"measure"'; do
    grep -q "$phase" "$WORK/trace-tree.json" || { echo "trace missing $phase span"; exit 1; }
done
# One trace ID end to end: the SSE events and the exported tree agree.
EVENT_TID="$(sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p' "$WORK/events.log" | sort -u)"
TREE_TID="$(sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$WORK/trace-tree.json" | head -1)"
[ -n "$TREE_TID" ] || { echo "trace tree has no trace_id"; exit 1; }
[ "$EVENT_TID" = "$TREE_TID" ] || { echo "trace ids diverge: events=$EVENT_TID tree=$TREE_TID"; exit 1; }
echo "trace id $TREE_TID consistent across events and span tree"

echo "== warm submit (cache hit) =="
WARM_ID="$(submit_job)"
"$WORK/esteem-client" result -server "$SERVER" -o "$WORK/warm.json" "$WARM_ID"
cmp "$WORK/cold.json" "$WORK/warm.json" || { echo "warm result differs from cold result"; exit 1; }
COMPUTES="$(metric esteem_serve_cache_computes_total)"
[ "$COMPUTES" = "1" ] || { echo "expected exactly 1 compute, got $COMPUTES"; exit 1; }
echo "byte-identical, $COMPUTES simulation executed"

echo "== health and version =="
curl -sf "$SERVER/healthz" | grep -q '"ok"' || { echo "healthz not ok"; exit 1; }
curl -sf "$SERVER/v1/version" | grep -q '"esteem-serve"' || { echo "version endpoint broken"; exit 1; }

echo "== graceful drain =="
stop_daemon

echo "== restart over the same store =="
start_daemon
RESTART_ID="$(submit_job)"
"$WORK/esteem-client" result -server "$SERVER" -o "$WORK/restart.json" "$RESTART_ID"
cmp "$WORK/cold.json" "$WORK/restart.json" || { echo "restarted daemon served different bytes"; exit 1; }
COMPUTES="$(metric esteem_serve_cache_computes_total)"
[ "$COMPUTES" = "0" ] || { echo "restart re-ran the simulation ($COMPUTES computes)"; exit 1; }
echo "restart served from disk, 0 simulations executed"
stop_daemon

echo "== serve smoke OK =="
