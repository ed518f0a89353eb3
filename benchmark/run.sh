#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ in the checkout and
# runs it with the arguments given. This is BENCHMARK.json's command; it is
# also the benchmark's build file, as the repository's own go.mod is all a
# Go package needs. Everything the Go toolchain writes — build cache,
# temporary files, module cache — is kept inside .bench_build/ too. exec
# replaces this shell, so no process outlives the run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod, no internal/): nothing to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off

SECONDS=0
go build -o "$out/benchmark" ./benchmark
# Keep the longest build seen — the cold one — for selfcheck's projection.
prev=0
if [ -f "$out/build_seconds" ]; then read -r prev <"$out/build_seconds" || prev=0; fi
if [ "$SECONDS" -gt "${prev:-0}" ]; then echo "$SECONDS" >"$out/build_seconds"; fi

exec "$out/benchmark" "$@"
