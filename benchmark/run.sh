#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. BENCHMARK.json's command is this script; see README.md.
#
# The benchmark is a module of its own that replaces `cachier` with the
# checkout it sits in, so it needs the repo's sources one directory up.
# Build outputs and the Go build cache stay in the checkout's .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/cachier-benchmark" .)
exec "$build/cachier-benchmark" "$@"
