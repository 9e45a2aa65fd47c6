#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# All build products, the Go build cache included, stay in .bench_build at
# the root of the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/netpart-bench" .)
cd "$root"
exec "$build/netpart-bench" "$@"
