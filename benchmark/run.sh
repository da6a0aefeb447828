#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, GOPATH, the go command's own config and
# telemetry, and the Chrome traces all stay under .bench_build at the root
# of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
