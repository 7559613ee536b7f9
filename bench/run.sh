#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's source and runs it.
#
# Run from the repository root:
#
#   bash bench/run.sh --workload online_sparse --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory. Without the repository around
# bench/ the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/mvgload" .)
exec "$out/mvgload" "$@"
