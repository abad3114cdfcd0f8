#!/usr/bin/env bash
# Builds the catsim benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the benchmark binary and the
# traced run's span files.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -trimpath -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
