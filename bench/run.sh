#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root: bash bench/run.sh -workload all -seed 1
#
# The binary, the Go build cache and the go command's own config and
# telemetry files live in ${CARGO_TARGET_DIR:-.bench_build} (relative to the
# current directory unless absolute), so nothing is written outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$(pwd)/$out"
mkdir -p "$out"
export GOCACHE="$out/go-build" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C bench build -o "$out/chromebench" .
exec "$out/chromebench" "$@"
