GO ?= go

.PHONY: all ci check build test race race-all chaos fuzz bench-smoke vet lint cover bench microbench experiments examples clean

all: check

# Default verification path: compile everything, lint (go vet + sdbvet +
# gofmt), run the full test suite, then race-check the concurrent packages
# (the HTTP server and the mini-DBMS it serves).
check: build lint test race

# CI entry point: everything a merge must pass in one target — the default
# verification path (build, lint, tests, scoped -race), the short
# fault-injection chaos suite, bounded runs of the native fuzzers, and the
# end-to-end benchmark's correctness checks.
ci: check chaos fuzz bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages with real concurrency — the HTTP service layer,
# the WAL-backed ingest path, the catalog/executor underneath it, the
# parallel packed join kernel, the shared metric/span registry — plus the read-mostly data structures they share
# across goroutines (geometry, curves, datasets, samples).
race:
	$(GO) test -race ./internal/server/... ./internal/ingest/... ./internal/resilience/... ./internal/faultfs/... ./internal/telemetry/... ./internal/sdb/... ./internal/obs/... ./internal/rtree/... ./internal/partjoin/... ./internal/histogram/... ./internal/geom/... ./internal/hilbert/... ./internal/dataset/... ./internal/sample/...

race-all:
	$(GO) test -race ./...

# Fault-injection suite under the race detector: mixed query+ingest traffic
# over a faulty filesystem (fsync failures, torn writes, ENOSPC), the WAL
# failure-path tests, degraded read-only mode, and the HTTP-level admission
# and degraded-mode contracts.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Degraded|Admission|WAL' ./internal/ingest/... ./internal/faultfs/... ./internal/resilience/... ./internal/server/...

# Bounded runs of the native fuzzers over the two on-disk decoders (GH/PH
# histogram files and .sds dataset files): each must reject malformed input
# with an error, never a panic. A crasher is saved under the package's
# testdata/fuzz/ and replays in every later `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSummary$$' -fuzztime=10s ./internal/histogram
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime=10s ./internal/dataset

# Short runs of the end-to-end benchmark (perfbench/run.sh) on its two gated
# workloads, for their differential checks rather than their timings: every
# query answer against a plane-sweep reference, and on ingest-live a
# kill-and-recover of sdbd on its WAL against the model of acknowledged
# batches. Any mismatch fails the run. Builds into .bench_build/perfbench.
bench-smoke:
	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 3 --trace 0
	bash perfbench/run.sh --workload ingest-live --seed 1 --seconds 3 --trace 0

# perfbench is its own module, outside ./..., so it is vetted separately: an
# internal API change that breaks it fails here, not only at bench-smoke.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) run ./cmd/sdbvet -stale-ignores ./...

# Full lint gate: stock go vet, the project's own analyzer suite (sdbvet:
# ctxpoll, atomicfield, maporder, metriclabel, floateq syntactically, plus
# the flow-sensitive lockorder, unlockpath, fsyncorder, publishmut on
# internal/lint/cfg), go vet of the perfbench module, and a gofmt check that
# fails on any unformatted file.
# -stale-ignores makes a //lint:ignore that no longer suppresses anything a
# finding too, so dead suppressions cannot accumulate. Deliberate violations
# are annotated in source with //lint:ignore <analyzer> <reason>.
lint: build
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	$(GO) run ./cmd/sdbvet -stale-ignores ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt: unformatted files:"; echo "$$fmtout"; exit 1; fi

cover:
	$(GO) test -coverprofile=cover.out ./internal/... ./cmd/...
	$(GO) tool cover -func=cover.out | tail -1

# Machine-readable perf snapshot: runs the fixed estimator/join workload and
# writes BENCH_<date>_<commit>[-dirty].json (latency percentiles, accuracy,
# serial-vs-parallel join kernel comparison with a count-equality gate, engine
# counters, the commit, dirty flag and CPU model), so snapshots of different
# trees never overwrite each other.
bench:
	$(GO) run ./cmd/benchrun -scale 0.1 -out .

# One Go benchmark per paper figure panel plus ablations and extensions.
# SPATIALSEL_BENCH_SCALE (default 0.02) scales dataset cardinalities.
microbench:
	$(GO) test -bench . -benchmem ./...

# Regenerate the paper's evaluation tables at a tenth of its cardinalities.
experiments:
	$(GO) run ./cmd/experiments -fig all -scale 0.1 -level 9

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/queryplanner
	$(GO) run ./examples/approxcount
	$(GO) run ./examples/correlation
	$(GO) run ./examples/maintenance
	$(GO) run ./examples/distancejoin
	$(GO) run ./examples/minidb
	$(GO) run ./examples/twostep

clean:
	rm -f cover.out test_output.txt bench_output.txt
