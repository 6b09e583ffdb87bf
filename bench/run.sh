#!/usr/bin/env bash
# Driver entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload mine-mem --seed 1 --seconds 10 --trace 0
#
# Builds the benchmark (and, inside it, convoyd) from source with every
# build output — Go's build cache included — under .bench_build/ in the
# checkout, then runs it. Fails before printing a result when the
# repository's sources are not there to build.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache" # stays empty: no dependencies
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" -build-dir "$root/.bench_build" -src "$root/bench" "$@"
