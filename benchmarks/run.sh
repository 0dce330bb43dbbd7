#!/usr/bin/env bash
# Builds visperf from source and runs it with the given arguments, from
# the root of the checkout. Everything the Go toolchain writes (build
# cache, module cache, telemetry) goes under .bench_build in the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go -C "$here" build -o "$build/visperf" ./visperf
cd "$root"
exec "$build/visperf" "$@"
