#!/usr/bin/env bash
# Builds sdbd and the benchmark from the checkout it is run in, then runs one
# workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
#
# Everything it builds and writes stays under .bench_build/perfbench: the Go
# build cache, the binaries, each run's generated tables and sdbd logs, and one
# result file per run (results are never overwritten).
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/sdbd ]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 1
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod

go build -o "$build/sdbd" ./cmd/sdbd
(cd perfbench && go build -o "$build/perfbench" . && go build -o "$build/layers" ./layers)
exec "$build/perfbench" -sdbd "$build/sdbd" -layers "$build/layers" -work "$build" -root "$root" "$@"
