#!/bin/sh
# Entry point of the benchmark driver (BENCHMARK.json): builds ./bench with
# the Go build cache, temporary files and the binary all under bench/out/, so
# that a run writes nothing outside its checkout, then becomes the binary.
# Run it from the root of the repository; flags are those of `go run ./bench`,
# which does the same by hand with the user's own cache.
set -e
out=$PWD/bench/out
mkdir -p "$out/tmp"
GOCACHE=$out/go-build GOTMPDIR=$out/tmp GOPATH=$out/gopath GOFLAGS=-buildvcs=false \
	go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
