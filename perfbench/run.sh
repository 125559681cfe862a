#!/usr/bin/env bash
# Builds the benchmark and cmd/experiments from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweepd-mmpp --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and scratch file stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin"

# Keep the Go toolchain's caches, config and telemetry inside the build
# directory, and never reach the network.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/experiments
(cd perfbench && go build -o "$build/bin/perfbench" .)

export PERFBENCH_BIN=$build/bin PERFBENCH_TMP=$build/tmp
exec "$build/bin/perfbench" "$@"
