GO ?= go

.PHONY: all build vet test test-short test-race cluster-test chaos multihost-smoke replay-smoke check metrics-lint fuzz bench-test bench-smoke ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrent layers (sweep service, durable
# result store, cluster coordinator, metric registry/tracer) — the
# packages whose invariants are all about shared state under load — and
# the twin and dashboard, whose viz readers poll a Twin while a library
# caller runs it (TestVizReadsDuringRunAreRaceFree).
test-race:
	$(GO) test -race ./internal/service/... ./internal/store/... \
		./internal/cluster/... ./internal/obs/... \
		./internal/optimize/... ./internal/surrogate/... ./internal/uq/... \
		./internal/core/... ./internal/viz/...

# Distributed-sweep fabric suite under the race detector: wire
# round-trip hash stability, rendezvous sharding, worker health and
# re-dispatch, 429 backpressure honoring, and the multi-node chaos
# tests (worker death, cross-node lease single-flight).
cluster-test:
	$(GO) test -race ./internal/cluster/...

# Fault-injection suite: panics mid-simulation, deadline overruns,
# transient and permanent failures, corrupted/truncated store entries,
# queue saturation, kill-restart recovery (both the result store and
# the durable sweep journal — coordinator killed mid-sweep and resumed,
# idempotent resubmission), and the multi-node chaos tests (worker
# killed mid-sweep, lease single-flight across nodes) — under the race
# detector.
chaos:
	$(GO) test -race -run 'Chaos|Restart|Corrupt|Truncated|Backpressure|CancelReleases|Journal|Recover|Idempotent' \
		./internal/service/... ./internal/store/... ./internal/cluster/...

# Two-process smoke: a worker and a coordinator as separate serve
# processes sharing one store directory; the coordinator is kill -9'd
# mid-sweep and restarted, and must resume the journaled sweep to
# completion and dedupe a same-key resubmission to the original id.
multihost-smoke: build
	./scripts/multihost_smoke.sh

# Export-then-replay smoke: a cooled 2 h raps run writes its telemetry
# dataset with -export-dir, and a -replay-dir run must load it and
# complete the same jobs (Dataset.Save and telemetry.Load end to end).
replay-smoke:
	./scripts/replay_smoke.sh

# Lint the live /metrics exposition of a fully wired server against the
# strict format parser and the naming conventions.
metrics-lint:
	./scripts/metrics_lint.sh

# Static and runtime conformance: vet of both modules (bench/ builds
# against the internal packages but sits outside ./...), the exposition
# lint, and formatting (gofmt lists no file).
check: vet metrics-lint
	$(GO) -C bench vet ./...
	test -z "$$(gofmt -l .)"

# Fuzz the trust boundaries and the power engine, 15 s each:
#   - the strict exposition parser every metrics test reads counters
#     through: no panic on arbitrary bytes, and a rendered registry
#     parses back to exactly the values written;
#   - the persisted-surrogate decoder the optimizer warm-starts from: no
#     panic, and an accepted model predicts and round-trips;
#   - the cluster wire a coordinator ships scenarios over: no panic, and
#     a scenario's wire form decodes back to the same content hash;
#   - the power engine: any slot-operation sequence matches Compute,
#     with one conversion chain and with several in lockstep;
#   - the sweep log's scan, in memory: no panic, a torn last line is
#     not read, each sweep reads as its lines split by id read on their
#     own, and every kept record fits its manifest; and a per-file
#     journal of an earlier build reads the same once moved into the log;
#   - the journal's line decoder: a line its fast path takes decodes
#     to what json.Unmarshal makes of it;
#   - the result-entry reader: no panic, and an accepted entry starts
#     with its result header, carries the requested key and ends with
#     the trailer;
#   - the lease-record parse: no panic, and an accepted record names a
#     non-empty owner;
#   - the NDJSON telemetry-stream reader: no panic, and an accepted
#     dataset survives WriteStream then ReadStream unchanged;
#   - the study-spec decode behind POST /api/optimize: no panic, an
#     accepted study is bounded, and every first-population candidate
#     is finite and inside its knob's range;
#   - a scenario's cooling spec through AutoCSM to the plant: no panic,
#     and an accepted spec steps its plant to finite outputs;
#   - the inline system spec through Validate, Compile and Check to a
#     60 s HPL run: no panic, and an accepted spec reports finite,
#     non-negative energy, power and loss;
#   - the operator's -presets file loader: no panic, a refused file
#     registers nothing, and an accepted one registers exactly its
#     plants, each of which steps to finite outputs;
#   - the coordinator's read of a worker's result stream: no panic, and
#     a result only from a done or cached line.
# The seed corpora live under
# internal/{obs,surrogate,service,power,store,telemetry,optimize,autocsm,core,cooling,cluster}/testdata/fuzz.
# The two journal targets bound minimizing a new input to 10 runs: left
# unbounded, FuzzReadJournal spent nearly all of its 15 s minimizing
# (100-138 execs, against ~11,000 with the bound).
fuzz:
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime 15s
	$(GO) test ./internal/surrogate/ -run '^$$' -fuzz '^FuzzModelUnmarshal$$' -fuzztime 15s
	$(GO) test ./internal/service/ -run '^$$' -fuzz '^FuzzScenarioRequestRoundTrip$$' -fuzztime 15s
	$(GO) test ./internal/power/ -run '^$$' -fuzz '^FuzzIncrementalMatchesCompute$$' -fuzztime 15s
	$(GO) test ./internal/power/ -run '^$$' -fuzz '^FuzzIncrementalChainsMatchCompute$$' -fuzztime 15s
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime 15s -fuzzminimizetime 10x
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzDecodeLine$$' -fuzztime 15s -fuzzminimizetime 10x
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzReadEntry$$' -fuzztime 15s
	$(GO) test ./internal/store/ -run '^$$' -fuzz '^FuzzReadLease$$' -fuzztime 15s
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzReadStream$$' -fuzztime 15s
	$(GO) test ./internal/optimize/ -run '^$$' -fuzz '^FuzzStudySpec$$' -fuzztime 15s
	$(GO) test ./internal/autocsm/ -run '^$$' -fuzz '^FuzzCoolingSpec$$' -fuzztime 15s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzSystemSpec$$' -fuzztime 15s
	$(GO) test ./internal/cooling/ -run '^$$' -fuzz '^FuzzRegisterPresetsFromJSON$$' -fuzztime 15s
	$(GO) test ./internal/cluster/ -run '^$$' -fuzz '^FuzzStreamResult$$' -fuzztime 15s

# The benchmark under bench/ is a Go module of its own, so the root
# go test ./... never reaches it: its statistics, comparison-rule,
# BENCHMARK.json and smoke tests (about a second).
bench-test:
	$(GO) -C bench test ./...

# Run the power engine's, the uncooled twin day's, the journal
# recovery's and the cached submit path's micro-benchmarks once each:
# go test ./... never runs a benchmark body, so this is what keeps
# BenchmarkIncrementalDelta, BenchmarkWhatifDay (solo and in lockstep),
# BenchmarkRecover, BenchmarkRecoverThenRead and
# BenchmarkCachedSweepSubmit (one and two submitters, with the sweep
# log's journal_syncs/op) building and running. It times nothing worth
# reading.
bench-smoke:
	$(GO) test -run '^$$' -bench 'IncrementalDelta|WhatifDay|Recover|CachedSweepSubmit' -benchtime 1x ./internal/power ./internal/core ./internal/service

ci: build vet test bench-test bench-smoke check
