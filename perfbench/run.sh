#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments (see perfbench/README.md). Run from the repository
# root:
#
#   bash perfbench/run.sh --workload deploy-mix --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# configuration and telemetry files) stays under .bench_build/ in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
