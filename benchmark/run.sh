#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload admit-open --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build in the current directory (or
# $CARGO_TARGET_DIR when set), so nothing is written outside it. Build
# output goes to standard error; a failed build exits non-zero before
# anything is measured.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/vod-benchmark" .) >&2
exec "$build/vod-benchmark" "$@"
