#!/bin/sh
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then run it with the arguments given. The binary and the Go
# build cache live under .bench_build, so a run writes nothing outside the
# checkout. For everyday use, `go run ./bench ...` is the same program.
set -e
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/tsig-bench" ./bench
exec "$build/tsig-bench" "$@"
