#!/bin/sh
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
# bench/ is a module of its own (bench/go.mod) that takes the repository
# around it as module `repro`. Everything the Go toolchain writes — build
# cache, temporary files, telemetry — is kept under .bench_build, so a run
# reads and writes only inside its checkout.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
