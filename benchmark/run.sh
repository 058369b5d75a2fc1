#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from the checkout's
# sources, then run it with the driver's arguments
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run leave behind stays in .bench_build
# inside the checkout, the Go build cache included.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The benchmark is a package of the repository's module: without the
# module (a directory holding only the benchmark's own files) there is
# nothing to build it against.
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod in $root; the benchmark builds against the repository's module" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
