#!/bin/sh
# golden.sh — the behavioral-drift gate. The canonical quick-run JSON
# outputs live under results/golden/; this script re-runs the same
# experiments and diffs the machine-readable outputs byte for byte.
#
#   scripts/golden.sh          # check (CI mode): fail on any drift
#   scripts/golden.sh update   # regenerate results/golden/ in place
#
# The golden set is deliberately small but broad: table2 exercises the
# energy model alone, fig3 the full single-core simulation pipeline
# (baseline, RPV, ESTEEM over the quick workload subset), ablation
# every other refresh policy, and fig4 the dual-core path (two
# interleaved per-core streams over a shared 8 MB L2). Floats in the JSON are canonicalized to
# 12 significant digits (internal/obs), which absorbs last-ulp
# cross-architecture differences; any remaining diff is a real
# behavioral change. When a change is intentional, run
# `scripts/golden.sh update` and commit the new files with a note in
# the commit message explaining the drift.
set -eu
cd "$(dirname "$0")/.."

GOLDEN_DIR=results/golden
GOLDEN_ARGS="-exp table2,fig3,ablation,fig4 -quick -seed 1 -telemetry=false"

mode="${1:-check}"

run_golden() {
    out="$1"
    # shellcheck disable=SC2086 # intentional word splitting of the args
    go run ./cmd/esteem-bench $GOLDEN_ARGS -out "$out" >/dev/null
}

case "$mode" in
update)
    mkdir -p "$GOLDEN_DIR"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    run_golden "$tmp"
    rm -f "$GOLDEN_DIR"/*.json
    cp "$tmp"/*.json "$GOLDEN_DIR"/
    echo "== golden outputs updated in $GOLDEN_DIR =="
    ls "$GOLDEN_DIR"
    ;;
check)
    if [ ! -d "$GOLDEN_DIR" ] || [ -z "$(ls "$GOLDEN_DIR"/*.json 2>/dev/null)" ]; then
        echo "error: no golden outputs in $GOLDEN_DIR; run 'scripts/golden.sh update' first" >&2
        exit 1
    fi
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    run_golden "$tmp"

    status=0
    # Every golden file must be reproduced byte-identically.
    for want in "$GOLDEN_DIR"/*.json; do
        name="$(basename "$want")"
        got="$tmp/$name"
        if [ ! -f "$got" ]; then
            echo "MISSING: run did not produce $name" >&2
            status=1
            continue
        fi
        if ! diff -u "$want" "$got" >/dev/null; then
            echo "DRIFT: $name differs from golden" >&2
            diff -u "$want" "$got" | head -40 >&2 || true
            status=1
        fi
    done
    # And the run must not grow outputs the golden set doesn't know.
    for got in "$tmp"/*.json; do
        name="$(basename "$got")"
        [ "$name" = manifest.json ] && continue
        if [ ! -f "$GOLDEN_DIR/$name" ]; then
            echo "NEW: run produced $name not present in $GOLDEN_DIR (run update?)" >&2
            status=1
        fi
    done
    if [ "$status" -ne 0 ]; then
        echo "== golden check FAILED; if intentional: scripts/golden.sh update ==" >&2
        exit "$status"
    fi
    echo "== golden check OK ($(ls "$GOLDEN_DIR" | wc -l | tr -d ' ') files) =="
    ;;
*)
    echo "usage: scripts/golden.sh [check|update]" >&2
    exit 2
    ;;
esac
