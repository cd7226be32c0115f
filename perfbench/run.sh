#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload ssb_warm --seed 1 --seconds 10 --trace 0
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_GIT_SHA=$sha exec "$build/perfbench" "$@"
