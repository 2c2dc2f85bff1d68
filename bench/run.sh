#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed through (see README.md). The binary, the Go build cache and the
# span dumps of traced runs stay under .bench_build/ in the directory the
# script is started from, so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$bench_dir" && go build -o "$out/autosynch-bench" .)
exec "$out/autosynch-bench" "$@"
