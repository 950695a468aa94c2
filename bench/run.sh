#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build leaves behind (binary, Go build cache) stays under
# .bench_build in the checkout; nothing is read or written outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
