#!/usr/bin/env bash
# Builds the benchmark (its own module, in this directory) and runs it
# from the checkout root. Every argument goes to the benchmark:
#
#   bench/run.sh                      all four workloads, then the traced run
#   bench/run.sh -aa                  the same twice, compared against the bounds
#   bench/run.sh --workload warm_boot --seed 1 --seconds 15 --trace 0
#
# Everything built lands in <checkout>/.bench_build, the Go build cache
# included, so a run reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local # never fetch a toolchain: build with the one installed

(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
