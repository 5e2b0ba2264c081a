#!/usr/bin/env bash
# run.sh — entry point of the repository benchmark (see README.md).
#
#   bash perfbench/run.sh --workload sweep-1core --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare BASE_DIR HEAD_DIR
#
# Run from the repository root. Everything the benchmark builds or
# writes stays under .bench_build/ in that root: the Go build cache,
# the esteem-bench / esteem-serve binaries under test, the benchmark
# binary itself, and each run's working directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/esteem-bench" ] || [ ! -d "$root/cmd/esteem-serve" ]; then
    echo "perfbench: run from the repository root (no go.mod or cmd/esteem-* here)" >&2
    exit 2
fi

case "${CARGO_TARGET_DIR:-}" in
"") build="$root/.bench_build" ;;
/*) build="$CARGO_TARGET_DIR" ;;
*) build="$root/$CARGO_TARGET_DIR" ;;
esac
case "$build" in
"$root"/*) ;;
*) build="$root/.bench_build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/esteem-bench ./cmd/esteem-serve >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

if [ "${1:-}" = compare ]; then
    shift
    exec "$build/bin/perfbench" compare -root "$root" "$@"
fi
exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
