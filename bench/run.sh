#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache,
# binary and scratch files all under .bench_build/) and runs it with the
# given arguments. BENCHMARK.json's command is this script.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$build/gopath"
fi
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bench" ./bench
exec "$build/bench" "$@"
