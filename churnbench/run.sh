#!/usr/bin/env bash
# Builds the churn benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash churnbench/run.sh --workload sim-open --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind (Go build cache,
# binary, traced-run spans and CPU profiles) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

# Keep the Go toolchain's caches, temporary files and settings inside
# the build directory, and never reach for the network.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$bench" && go build -o "$build/churnbench" .) >&2
exec "$build/churnbench" --out "$build/churnbench-trace" "$@"
