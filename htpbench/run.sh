#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash htpbench/run.sh --workload ml65k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spans,
# determinism records, daemon scratch files) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd htpbench && go build -o "$build/htpbench" .)
exec "$build/htpbench" -build-dir "$build" "$@"
