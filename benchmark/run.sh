#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ at the checkout root. Arguments pass through to
# `papaya-benchmark run`, e.g. --workload wire_256k --seed 1 --seconds 15 --trace 0.
# `bash benchmark/run.sh compare A.json B.json` runs the compare tool.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/papaya-benchmark" .)
sub=run
if [ "${1:-}" = compare ] || [ "${1:-}" = spec ]; then
  sub="$1"
  shift
fi
exec "$build/papaya-benchmark" "$sub" "$@"
