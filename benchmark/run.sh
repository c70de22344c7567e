#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash benchmark/run.sh                                  # every workload, untraced then traced
#   bash benchmark/run.sh --workload hub-in --seed 7 --seconds 30 --trace 0
#   bash benchmark/run.sh -aa 5                            # self-agreement of two sets of runs
#
# Everything the build and the run write (Go build cache, the binary, graph
# files, session directories, Chrome traces) lands under .bench_build/ at the
# root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$build/inferturbo-bench" .
exec "$build/inferturbo-bench" -tmp "$build/tmp" "$@"
