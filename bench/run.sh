#!/usr/bin/env bash
# The one command: builds the benchmark from source inside the checkout
# and runs it. Everything the toolchain writes (build cache, binary)
# stays under .bench_build/ in the checkout; results and traces go to
# bench/out/. Arguments are passed through, e.g.
#
#   bash bench/run.sh --workload hot-shapes --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/trapp-bench" .) >&2
cd "$root"
exec "$build/trapp-bench" "$@"
