#!/usr/bin/env bash
# Builds lpmserve and the benchmark client from this checkout, then runs the
# client with the given arguments:
#
#   bash benchmark/run.sh --workload serve-zipf-40k --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, rule
# files, server logs and span dumps all stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/lpmserve || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the root of a neurolpm checkout" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/bin"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/lpmserve" ./cmd/lpmserve
(cd benchmark && go build -o "../$out/bin/benchmark" .)

# The client shares the machine's two CPUs with the server.
GOMAXPROCS=2 exec "$out/bin/benchmark" -server "$out/bin/lpmserve" -out "$out" "$@"
