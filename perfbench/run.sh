#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, span files) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/perfbench/gocache" "$build/perfbench/tmp" "$build/perfbench/config"

export GOCACHE="$build/perfbench/gocache"
export GOTMPDIR="$build/perfbench/tmp"
export GOPATH="$build/perfbench/gopath"
export GOMODCACHE="$build/perfbench/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/perfbench/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
