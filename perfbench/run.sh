#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload attack-serial --seed 1 --seconds 30 --trace 0
#
# Every build output, cache, config and temporary file stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
