GO ?= go

.PHONY: all build test vet lint lint-tests lint-baseline lint-report test-race test-faults test-crash test-serve test-shard fuzz bench bench-obs bench-flight bench-kernels bench-kernels-short experiments fast-experiments perfbench-smoke fmt loc

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Project analyzers (internal/analysis): the intraprocedural determinism and
# numeric-safety lints plus the interprocedural call-graph suite (errwrap,
# ctxflow, detsource, hotalloc). Findings grandfathered in lint-baseline.json
# do not fail the run; new findings do, and -ratchet fails when baseline
# entries go stale (debt was paid down) until `make lint-baseline` re-commits
# the smaller file — the baseline only ever shrinks.
lint:
	$(GO) run ./cmd/fdxlint -baseline lint-baseline.json -ratchet ./...

# Lint _test.go files too. Checks whose flagged constructs are idiomatic in
# tests (floatcmp, nakedpanic, dimcheck) skip test files; maporder,
# goroutinecapture, and spanleak stay active there.
lint-tests:
	$(GO) run ./cmd/fdxlint -tests ./...

# Regenerate lint-baseline.json from the current findings.
lint-baseline:
	$(GO) run ./cmd/fdxlint -baseline lint-baseline.json -write-baseline ./...

# Machine-readable report (findings, baseline accounting, stale entries).
lint-report:
	$(GO) run ./cmd/fdxlint -json -baseline lint-baseline.json ./... > lint-report.json

# Race-detect the concurrent packages: the parallel transform and stratified
# covariance (internal/core, internal/stats), the worker pool and the glasso
# block fan-out (internal/par, internal/glasso), the SIMD vector kernels
# (internal/linalg), the experiment harness's timed goroutines, and the
# root streaming API.
test-race:
	$(GO) test -race ./internal/core ./internal/stats ./internal/par ./internal/linalg ./internal/glasso ./internal/experiments ./internal/obs ./internal/serve/... .

# Fault-injection suite: every TestFault* test arms internal/faults points
# (poisoned covariance, forced non-convergence, bad pivots, slow stages,
# injected panics, torn checkpoint I/O) and asserts typed errors or
# degraded-but-valid results. Run under the race detector since injections
# exercise cancellation paths.
test-faults:
	$(GO) test -race -run 'Fault' ./internal/faults ./internal/core ./internal/glasso ./internal/checkpoint ./internal/serve .

# Crash-equivalence suite: kill the durable stream at every byte of its
# snapshot and WAL, restore, and require results identical to an
# uninterrupted run (or a typed corruption error) — never a panic. The
# root and internal/serve tests are named TestCrash*; internal/checkpoint
# contributes its format-level cuts (every snapshot truncation fails typed,
# a WAL cut at every byte truncates to the last whole record).
test-crash:
	$(GO) test -race -run 'Crash|EveryTruncation|AtEveryCut' ./internal/checkpoint ./internal/serve .

# Service robustness suite: the race-enabled internal/serve tests (armed
# IngestStall/QueueFull/DrainTimeout faults under concurrent tenants,
# kill-and-resume bit-identity) plus the built-binary fdxd tests (SIGTERM
# drain under active ingest, kill -9 restart) and the stream drain tests,
# which start the shard supervisor's goroutines on every run.
test-serve:
	$(GO) test -race ./internal/serve/... ./cmd/fdxd
	$(GO) test -race -run 'TestStream' ./cmd/fdx

# Sharded-discovery chaos suite under the race detector: the supervised
# `fdx stream -shards` workers with ShardCrash/ShardStall/MergeCorrupt
# armed (crash at every checkpoint boundary → bit-identical to the 1-shard
# run), the shard-shipping service API (idempotent seq handling, corrupt
# and mismatched snapshots rejected typed), the built-binary fdxd
# kill-and-resume ship test, and the library-level determinism sweep.
test-shard:
	$(GO) test -race -run 'Shard' ./cmd/fdx ./internal/serve/... ./cmd/fdxd .

# Short local fuzz campaigns over the public entry points. FuzzRowsBody
# caps input minimization, which is slow in the serve test binary. The
# Discover targets are anchored because -fuzz must match exactly one.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDiscover$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz '^FuzzDiscoverOptions$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzMergeSnapshot -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzFlightDecode -fuzztime 30s ./internal/obs/flight
	$(GO) test -run '^$$' -fuzz FuzzReadCSV -fuzztime 30s ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 30s ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzRowsBody -fuzztime 30s -fuzzminimizetime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzPairKernel -fuzztime 30s ./internal/core

# Telemetry micro-benchmarks plus the end-to-end overhead gate: a Discover
# with live tracer+metrics must stay within 2% of a nil-sink run.
bench-obs:
	$(GO) test -run '^$$' -bench Obs -benchmem ./internal/obs
	FDX_OBS_OVERHEAD=1 $(GO) test -run TestObsOverhead -v .

# Flight-recorder micro-benchmarks (per-sample encode cost, decode
# throughput) plus the always-on gate: a metric-hammering workload with a
# live 1 Hz recorder must stay within 2% of the same workload without one.
bench-flight:
	$(GO) test -run '^$$' -bench Flight -benchmem ./internal/obs/flight
	FDX_FLIGHT_OVERHEAD=1 $(GO) test -run TestFlightOverhead -v ./internal/obs/flight

# One testing.B benchmark per paper table/figure (reduced scale).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Numeric-kernel speedup gates (BenchmarkGate* in internal/glasso): the
# Graphical Lasso vs the frozen seed solver, the screened wide-schema solve
# vs the dense one, and the block fan-out's multi-core floor. Each gate
# times both sides interleaved and fails below its named floor constant.
bench-kernels:
	$(GO) test -run '^$$' -bench Gate -benchtime 1x ./internal/glasso

# CI smoke variant: -short keeps the sizes whose reference side stays cheap.
bench-kernels-short:
	$(GO) test -short -run '^$$' -bench Gate -benchtime 1x ./internal/glasso

# End-to-end benchmark correctness smoke: one short untraced run of each
# _perfbench workload. wide and tall check their FD list and B hash
# against the pinned reference.json; ingest checks the served B against
# an in-process accumulator. Any failed check exits non-zero.
perfbench-smoke:
	for w in wide tall ingest; do \
		bash _perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# Regenerate every paper table/figure at report scale (slow).
experiments:
	$(GO) run ./cmd/fdxbench -exp all

# Quick pass over every experiment.
fast-experiments:
	$(GO) run ./cmd/fdxbench -exp all -fast

fmt:
	gofmt -w .

# Go line counts: non-test code, _test.go files, and their total. Code moved
# into tests leaves the total unchanged, so read the non-test line for
# reductions.
loc:
	@printf 'non-test %6d\ntest     %6d\ntotal    %6d\n' \
		$$(find . -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l) \
		$$(find . -name '*_test.go' -print0 | xargs -0 cat | wc -l) \
		$$(find . -name '*.go' -print0 | xargs -0 cat | wc -l)
