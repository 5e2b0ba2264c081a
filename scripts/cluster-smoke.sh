#!/bin/sh
# cluster-smoke.sh — end-to-end smoke test of the distributed sweep
# cluster.
#
# Builds esteem-serve and esteem-client, runs the same sweep twice —
# once on a standalone daemon, once on a coordinator with two joined
# workers — and proves the distribution contract with cmp(1):
#
#   1. the cluster serves every artifact byte-identical to the
#      standalone run of the same spec;
#   2. the work actually distributed: the workers' combined compute
#      count equals the number of unique units (exactly once each),
#      and artifacts replicated across shards;
#   3. the coordinator's cluster status and /metrics expose the
#      membership and lease counters;
#   4. the fleet aggregation endpoint (/v1/cluster/metrics) sums the
#      per-worker snapshots — fleet sims total equals the unit count —
#      and carries both workers as labeled series;
#   5. the cluster event journal (/v1/cluster/events) recorded the
#      lifecycle (worker-joined, lease-granted, task-completed);
#   6. the distributed job exports one merged, validated span tree
#      whose Chrome form has a per-node lane for every node. When
#      CLUSTER_OUT is set, the merged trace (tree + chrome) is saved
#      there for upload as a CI artifact.
#
# (Worker-failure recovery — SIGKILL mid-sweep — is covered by the Go
# e2e test TestClusterWorkerKill in internal/cluster.)
set -eu
cd "$(dirname "$0")/.."
. ./scripts/lib.sh

WORK="$(mktemp -d)"
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building service binaries =="
go build -o "$WORK/" ./cmd/esteem-serve ./cmd/esteem-client

# start_node NAME ARGS... : boots esteem-serve, waits for health, and
# sets NODE_URL. The PID is appended to PIDS for cleanup.
start_node() {
    _name="$1"; shift
    rm -f "$WORK/$_name.addr"
    "$WORK/esteem-serve" -addr 127.0.0.1:0 -addr-file "$WORK/$_name.addr" \
        -log-level warn "$@" >"$WORK/$_name.log" 2>&1 &
    PIDS="$PIDS $!"
    wait_file "$WORK/$_name.addr" 10 || { cat "$WORK/$_name.log"; exit 1; }
    NODE_URL="http://$(cat "$WORK/$_name.addr")"
    wait_healthz "$NODE_URL" 15 || { cat "$WORK/$_name.log"; exit 1; }
    echo "== $_name up at $NODE_URL =="
}

SUBMIT_ARGS="-bench gcc+gobmk,nekbone+gamess -technique baseline,esteem \
    -instr 200000 -warmup 50000 -interval 100000 -seed 42 -wait"
# submit_and_fetch SERVER OUTDIR: submits the canonical sweep, waits,
# and downloads every unit artifact as OUTDIR/<key>.json.
submit_and_fetch() {
    _server="$1"; _out="$2"
    mkdir -p "$_out"
    _id="$("$WORK/esteem-client" submit -server "$_server" $SUBMIT_ARGS 2>/dev/null |
        sed -n 's/^  "id": "\([0-9a-f]*\)",$/\1/p')"
    [ -n "$_id" ] || { echo "submit returned no job id"; exit 1; }
    JOB_ID="$_id"
    for _key in $("$WORK/esteem-client" status -server "$_server" "$_id" |
        sed -n 's/^ *"key": "\([0-9a-f]*\)",*$/\1/p'); do
        "$WORK/esteem-client" artifact -server "$_server" -o "$_out/$_key.json" "$_key"
    done
}

echo "== standalone reference sweep =="
start_node standalone
STANDALONE_PID="${PIDS##* }"
submit_and_fetch "$NODE_URL" "$WORK/ref"
kill "$STANDALONE_PID" && wait "$STANDALONE_PID" || true
REF_COUNT="$(ls "$WORK/ref" | wc -l)"
[ "$REF_COUNT" -eq 4 ] || { echo "expected 4 reference artifacts, got $REF_COUNT"; exit 1; }

echo "== cluster: coordinator + 2 workers =="
start_node coordinator -role coordinator -heartbeat 500ms
COORD_URL="$NODE_URL"
start_node worker1 -role worker -join "$COORD_URL"
start_node worker2 -role worker -join "$COORD_URL"
WORKER1_URL="$NODE_URL"

echo "== cluster status =="
"$WORK/esteem-client" cluster status -server "$COORD_URL" | tee "$WORK/status.json"
WORKERS="$(grep -c '"url"' "$WORK/status.json")"
[ "$WORKERS" -eq 2 ] || { echo "cluster status shows $WORKERS workers, want 2"; exit 1; }

echo "== distributed sweep =="
submit_and_fetch "$COORD_URL" "$WORK/cluster"

echo "== byte identity =="
for ref in "$WORK/ref"/*.json; do
    key="$(basename "$ref")"
    [ -f "$WORK/cluster/$key" ] || { echo "cluster missing artifact $key"; exit 1; }
    cmp "$ref" "$WORK/cluster/$key" || { echo "artifact $key differs from standalone"; exit 1; }
done
echo "all $REF_COUNT artifacts byte-identical to the standalone sweep"

echo "== exactly-once compute across workers =="
metric() {
    curl -sf "$1/metrics" | awk -v m="$2" '$1 == m {print $2}'
}
W1="$(metric "$WORKER1_URL" esteem_worker_sims_computed_total)"
# worker2's URL was clobbered by worker1's start; recover it from its addr file.
W2URL="http://$(cat "$WORK/worker2.addr")"
W2="$(metric "$W2URL" esteem_worker_sims_computed_total)"
TOTAL=$(( ${W1:-0} + ${W2:-0} ))
[ "$TOTAL" -eq "$REF_COUNT" ] || { echo "workers computed $TOTAL sims for $REF_COUNT units"; exit 1; }
echo "workers computed $W1 + $W2 = $TOTAL simulations for $REF_COUNT units"

echo "== coordinator cluster metrics =="
for m in esteem_cluster_workers_live esteem_cluster_tasks_completed_total \
    esteem_serve_shard_remote_puts_total; do
    V="$(metric "$COORD_URL" "$m")"
    [ -n "$V" ] || { echo "metric $m missing from coordinator"; exit 1; }
done
LIVE="$(metric "$COORD_URL" esteem_cluster_workers_live)"
[ "$LIVE" = "2" ] || { echo "workers_live=$LIVE, want 2"; exit 1; }
DONE_TASKS="$(metric "$COORD_URL" esteem_cluster_tasks_completed_total)"
[ "$DONE_TASKS" = "$REF_COUNT" ] || { echo "tasks_completed=$DONE_TASKS, want $REF_COUNT"; exit 1; }

echo "== fleet metrics aggregation =="
# The fleet text exposition keeps the aggregate series unlabeled (the
# {node="..."} breakdowns ride alongside), so the same awk works.
fleet_metric() {
    curl -sf "$COORD_URL/v1/cluster/metrics" | awk -v m="$1" '$1 == m {print $2}'
}
FLEET_SIMS="$(fleet_metric esteem_worker_sims_computed_total)"
[ "$FLEET_SIMS" = "$REF_COUNT" ] ||
    { echo "fleet sims_computed_total=$FLEET_SIMS, want $REF_COUNT"; exit 1; }
curl -sf "$COORD_URL/v1/cluster/metrics" >"$WORK/fleet.prom"
for url in "$WORKER1_URL" "$W2URL"; do
    grep -q "node=\"$url\"" "$WORK/fleet.prom" ||
        { echo "fleet metrics missing per-member series for $url"; exit 1; }
done
# Each family is one group: TYPE, the aggregate, then member samples.
check_families "$WORK/fleet.prom" || { echo "fleet metrics split a metric family"; exit 1; }
grep -qx '# TYPE esteem_worker_sims_computed_total counter' "$WORK/fleet.prom" ||
    { echo "fleet metrics lack the sims-computed TYPE line"; exit 1; }
echo "fleet sims total $FLEET_SIMS == $REF_COUNT units, both workers labeled"

echo "== client fleet view (cluster top) =="
"$WORK/esteem-client" cluster top -server "$COORD_URL" -count 1 -plain |
    tee "$WORK/top.txt"
grep -q "members 3/3 reachable" "$WORK/top.txt" ||
    { echo "cluster top did not show 3/3 members reachable"; exit 1; }

echo "== cluster event journal =="
"$WORK/esteem-client" cluster events -server "$COORD_URL" >"$WORK/events.json"
for kind in worker-joined task-submitted lease-granted task-completed; do
    grep -q "\"kind\": *\"$kind\"" "$WORK/events.json" ||
        { echo "journal missing $kind event"; exit 1; }
done
COMPLETED="$(grep -c '"kind": *"task-completed"' "$WORK/events.json")"
[ "$COMPLETED" -eq "$REF_COUNT" ] ||
    { echo "journal shows $COMPLETED task-completed events, want $REF_COUNT"; exit 1; }
echo "journal recorded the full lifecycle ($COMPLETED completions)"

echo "== node attribution header =="
curl -sf -o /dev/null -D "$WORK/headers.txt" "$COORD_URL/v1/cluster/status"
grep -qi '^x-esteem-node:' "$WORK/headers.txt" ||
    { echo "cluster response missing X-Esteem-Node header"; exit 1; }

echo "== merged cluster trace =="
# One span tree for the distributed job: coordinator root, lease spans,
# worker-shipped spans — Validate + coverage gate client-side, and the
# Chrome export must carry a named lane per node.
"$WORK/esteem-client" trace -server "$COORD_URL" -min-coverage 0.5 \
    -o "$WORK/trace-tree.json" "$JOB_ID"
"$WORK/esteem-client" trace -server "$COORD_URL" -format chrome \
    -o "$WORK/trace-chrome.json" "$JOB_ID" 2>/dev/null
grep -q '"traceEvents"' "$WORK/trace-chrome.json" ||
    { echo "cluster chrome trace malformed"; exit 1; }
grep -q '"process_name"' "$WORK/trace-chrome.json" ||
    { echo "cluster chrome trace has no per-node lanes"; exit 1; }
for url in "$COORD_URL" "$WORKER1_URL" "$W2URL"; do
    grep -q "$url" "$WORK/trace-chrome.json" ||
        { echo "chrome trace missing a lane for $url"; exit 1; }
done
echo "merged trace valid, per-node lanes for coordinator + both workers"

if [ -n "${CLUSTER_OUT:-}" ]; then
    mkdir -p "$CLUSTER_OUT"
    cp "$WORK/trace-tree.json" "$WORK/trace-chrome.json" \
        "$WORK/fleet.prom" "$WORK/events.json" "$CLUSTER_OUT/"
    echo "== saved cluster artifacts to $CLUSTER_OUT =="
fi

echo "== cluster smoke OK =="
