#!/usr/bin/env bash
# Builds the icebench benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash icebench/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the go command's config
# directory (where it keeps its local telemetry counters), the binary,
# daemon state (removed at exit) and traced-run output.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd icebench && go build -o "$out/icebench" .)
exec "$out/icebench" --out "$out" "$@"
