#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload.
# Run from the repository root:
#
#   bash hspbench/run.sh --workload serve-cold --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry files, and the traced run's span files all go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd hspbench && go build -o "$out/hspbench" .)
exec "$out/hspbench" --out "$out" "$@"
