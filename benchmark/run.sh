#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# (compiler cache and temporaries included, so nothing is written outside
# it) and runs it from the checkout's root. A second call reuses the
# build. Arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/evs-benchmark" .)
cd "$root"
exec "$build/evs-benchmark" "$@"
