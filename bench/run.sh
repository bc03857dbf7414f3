#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's own build directory and
# runs it from the checkout's root with the arguments given. Nothing is read or
# written outside the checkout: the Go build cache lives in .bench_build too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$build/dice-bench" .)
cd "$root"
exec "$build/dice-bench" "$@"
