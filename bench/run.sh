#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the arguments given. The Go build and module caches
# live there too, so nothing outside the checkout is read or written.
#
#   bash bench/run.sh --workload conv_gc --seed 42 --seconds 10 --trace 0
#
# bench/ is a module of its own (bench/go.mod) that reaches the simulator's
# internal packages through a replace directive on the parent directory, so
# the build fails — and this script exits non-zero without printing a
# result — when the rest of the repository is not there.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/bench" .) >&2

cd "$root"
exec "$build/bench" "$@"
