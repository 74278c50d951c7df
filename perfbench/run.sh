#!/usr/bin/env bash
# Builds lognic-serve and the benchmark program from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload estimate-hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/lognic-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a lognic checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
go build -o "$out/bin/lognic-serve" ./cmd/lognic-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/lognic-serve" -out "$out" "$@"
