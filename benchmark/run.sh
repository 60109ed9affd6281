#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain leaves behind (build cache, module path,
# telemetry counters, the binary) goes under .bench_build/ at the checkout
# root, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go build -C "$root/benchmark" -o "$build/segshare-benchmark" segshare/benchmark
cd "$root"
exec "$build/segshare-benchmark" "$@"
