#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run from the repository root:
#
#   bash placebench/run.sh --workload exp3-batch --seed 1 --seconds 40 --trace 0
#
# Every build product and cache stays inside .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
# The go command keeps telemetry counters under the user configuration
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
(cd placebench && go build -trimpath -o "$out/placebench" .)
exec "$out/placebench" "$@"
