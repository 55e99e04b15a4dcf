#!/usr/bin/env bash
# Entry point BENCHMARK.json names. It builds the benchmark from the checkout
# it is run from and runs it, keeping everything the Go toolchain writes (build
# cache, scratch files, telemetry settings) inside the checkout, under
# .bench_build.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# By hand, `go run ./bench ...` does the same with the caches where they are.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run it from the root of a checkout of the whole repository (no go.mod or internal/ here)" >&2
	exit 1
fi
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false
# With telemetry in its default "local" mode the go command starts a detached
# side process of itself (once per config directory per day) that outlives it.
# The benchmark may leave no process behind, so the private config directory
# says "off" before go runs for the first time.
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" -out "$build" "$@"
