#!/usr/bin/env bash
# The BENCHMARK.json command: build the harness from source inside the
# checkout (build cache included, so nothing outside it is written) and
# hand it the driver's flags. Developers can use `go run ./bench` instead.
set -euo pipefail
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
