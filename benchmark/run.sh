#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build writes (Go build cache, work
# directory, the toolchain's own counter files, the binary) stays under
# .bench_build/ and run-time files under benchmark/out/, so nothing is
# written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark: $root has no go.mod: the benchmark builds against the repository's packages and needs the whole checkout" >&2
	exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# The commit is stamped into the binary where the checkout is a usable git
# repository; where git cannot answer, the build goes without it.
go build -o "$build/insq-benchmark" ./benchmark 2>/dev/null ||
	go build -buildvcs=false -o "$build/insq-benchmark" ./benchmark
exec "$build/insq-benchmark" "$@"
