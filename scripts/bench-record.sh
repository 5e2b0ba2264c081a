#!/bin/sh
# bench-record.sh — run the pinned hot-path benchmarks (cache access,
# cache construction, active-fraction scan, refresh window, short
# simulator run) with a fixed benchtime and either append a dated
# entry to BENCH_sim.json (default) or gate the fresh numbers against
# the latest recorded entry (`bench-record.sh check`): >15% ns/op
# regression or any allocs/op increase fails. Before the real check,
# check mode proves the gate is live: a 3x-degraded copy of the fresh
# numbers must be rejected.
#
# BENCHTIME / COUNT override the fixed budget, e.g. quick local runs
# with BENCHTIME=100ms.
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-record}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
out="$work/bench.txt"
go build -o "$work/" ./cmd/esteem-gate

{
    go test ./internal/cache/ -run '^$' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^(BenchmarkCacheAccess|BenchmarkCacheNew|BenchmarkActiveFraction)$'
    go test ./internal/refrint/ -run '^$' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkRefreshWindow$'
    go test ./internal/sim/ -run '^$' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkSimRunShort$'
    go test ./internal/cluster/ -run '^$' -benchmem -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkClusterTask$'
} | tee "$out"

case "$MODE" in
record)
    "$work/esteem-gate" -benchtime "$BENCHTIME" sim record BENCH_sim.json <"$out"
    ;;
check)
    echo "== gate self-test (degraded copy must fail) =="
    "$work/esteem-gate" sim degrade 3 <"$out" >"$work/degraded.txt"
    if "$work/esteem-gate" sim check BENCH_sim.json <"$work/degraded.txt" >"$work/degraded.out" 2>&1; then
        echo "gate PASSED a 3x-degraded run; thresholds are dead" >&2
        cat "$work/degraded.out" >&2
        exit 1
    fi
    echo "degraded copy rejected, as it should be"
    echo "== benchmark gate =="
    "$work/esteem-gate" sim check BENCH_sim.json <"$out"
    ;;
*)
    echo "usage: $0 [record|check]" >&2
    exit 2
    ;;
esac
