#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload hicma-lci --seed 3 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary) goes under
# .bench_build in the repository root. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
