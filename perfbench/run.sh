#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-fleet --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced runs' span files all live under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# Every file the go command writes (build cache, module cache, temporary
# files, telemetry counters under the config directory) stays in $build.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
