#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything the build and the run write stays inside the
# checkout, under .bench_build/ (which .gitignore names): the Go build
# cache, the binary, and the library snapshots of serve-replay.
#
#   bash bench/run.sh --workload pareto-rings --seed 1 --seconds 16 --trace 0
#   bash bench/run.sh -list
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
# No dependency outside this repository and the standard library: never
# reach for the network, another toolchain or a workspace file.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" -spec "$root/BENCHMARK.json" -tmpdir "$build/tmp" "$@"
