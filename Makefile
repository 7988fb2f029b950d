GO ?= go

.PHONY: all build vet test test-short test-race cluster-test chaos multihost-smoke check metrics-lint bench-test bench-smoke bench-json bench-compare ci

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
# packages whose invariants are all about shared state under load.
test-race:
	$(GO) test -race ./internal/service/... ./internal/store/... \
		./internal/cluster/... ./internal/obs/... \
		./internal/optimize/... ./internal/surrogate/... ./internal/uq/...

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

# Lint the live /metrics exposition of a fully wired server against the
# strict format parser and the naming conventions.
metrics-lint:
	./scripts/metrics_lint.sh

# Static and runtime conformance: vet plus the exposition lint.
check: vet metrics-lint

# The benchmark under bench/ is a Go module of its own, so the root
# go test ./... never reaches it: its statistics, comparison-rule,
# BENCHMARK.json and smoke tests (about a second).
bench-test:
	$(GO) -C bench test ./...

# Quick perf smoke: the headline day-replay benchmarks (with the
# dense-vs-event speedup metric), the multi-day fan-out, the /metrics
# scrape cost under load, and the surrogate-accelerated optimizer.
bench-smoke:
	$(GO) test -run '^$$' -bench 'TwinDay|TableIV|RunBatchDays|SweepService|SweepWarmRestart|CoolingVariantSweep|MidDayCancel|MetricsScrapeUnderLoad|CoordinatorSweep|Optimize$$' -benchtime 1x .

# Emit the benchmark series as JSON (BENCH_PR10.json) so the perf
# trajectory is tracked PR over PR.
bench-json:
	./scripts/bench_json.sh BENCH_PR10.json

# Diff the two most recent BENCH_PR*.json series benchmark by benchmark
# (ns/op old vs new and the speedup ratio).
bench-compare:
	./scripts/bench_compare.sh

ci: build vet test bench-test check bench-smoke
