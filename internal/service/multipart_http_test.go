package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/raps"
)

// TestHTTPSweepSetonixPartitions drives a two-partition sweep through
// the HTTP API end to end: per-partition workload knobs submit cleanly,
// scenarios differing only in a partition's workload hash (and cache)
// separately, and results carry per-partition reports.
func TestHTTPSweepSetonixPartitions(t *testing.T) {
	svc := New(Options{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := `{
		"name": "setonix-mix",
		"spec_name": "setonix-like",
		"scenarios": [
			{"workload": "idle", "horizon_sec": 900, "tick_sec": 15, "cooling": true, "wetbulb_c": 20,
			 "partitions": [{"workload": "synthetic"}, {"workload": "idle"}]},
			{"workload": "idle", "horizon_sec": 900, "tick_sec": 15, "cooling": true, "wetbulb_c": 20,
			 "partitions": [{"workload": "synthetic"}, {"workload": "peak"}]}
		]
	}`
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if sub.ScenarioHashes[0] == sub.ScenarioHashes[1] {
		t.Fatal("scenarios differing only in a partition workload share a hash")
	}
	sw, ok := svc.Sweep(sub.ID)
	if !ok {
		t.Fatal("sweep vanished")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := sw.Status()
	if st.Done != 2 {
		t.Fatalf("sweep status %+v", st)
	}
	for i, res := range sw.Results() {
		if res == nil || len(res.Report.Partitions) != 2 {
			t.Fatalf("scenario %d result lacks partition reports: %+v", i, res)
		}
	}
	// The peak-GPU scenario must burn visibly more energy than the idle
	// one — the partition knob reached the simulation.
	r := sw.Results()
	if r[1].Report.EnergyMWh <= r[0].Report.EnergyMWh {
		t.Errorf("peak-GPU scenario %v MWh not above idle-GPU %v MWh",
			r[1].Report.EnergyMWh, r[0].Report.EnergyMWh)
	}
}

// TestHTTPSweepPartitionCountMismatch pins the submit-time guard: a
// partition list not covering the spec is a 400, not a worker failure.
func TestHTTPSweepPartitionCountMismatch(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := `{"spec_name": "setonix-like", "scenarios": [
		{"workload": "idle", "horizon_sec": 60, "partitions": [{"workload": "peak"}]}
	]}`
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched partitions = %d, want 400", resp.StatusCode)
	}

	// Replay is never a valid per-partition workload — rejected at
	// submit, not inside a worker.
	body = `{"spec_name": "setonix-like", "scenarios": [
		{"workload": "idle", "horizon_sec": 60,
		 "partitions": [{"workload": "replay"}, {"workload": "idle"}]}
	]}`
	resp, err = http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("per-partition replay = %d, want 400", resp.StatusCode)
	}
}

// TestScenarioHashPartitionStability pins the hash contract: an absent
// partition list leaves pre-partition hashes unchanged, and partition
// knobs (workload, generator seed, job cap) each move the hash.
func TestScenarioHashPartitionStability(t *testing.T) {
	base := core.Scenario{Workload: core.WorkloadSynthetic, HorizonSec: 3600, TickSec: 15}
	h1, err := HashScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	withNil := base
	withNil.Partitions = nil
	h2, err := HashScenario(withNil)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("nil partition list changed the scenario hash")
	}
	variants := []core.Scenario{
		{Workload: core.WorkloadSynthetic, HorizonSec: 3600, TickSec: 15,
			Partitions: []core.PartitionScenario{{Workload: core.WorkloadSynthetic}, {Workload: core.WorkloadIdle}}},
		{Workload: core.WorkloadSynthetic, HorizonSec: 3600, TickSec: 15,
			Partitions: []core.PartitionScenario{{Workload: core.WorkloadSynthetic}, {Workload: core.WorkloadPeak}}},
		{Workload: core.WorkloadSynthetic, HorizonSec: 3600, TickSec: 15,
			Partitions: []core.PartitionScenario{{Workload: core.WorkloadSynthetic, MaxJobs: 5}, {Workload: core.WorkloadPeak}}},
		{Workload: core.WorkloadSynthetic, HorizonSec: 3600, TickSec: 15,
			Partitions: []core.PartitionScenario{{Workload: core.WorkloadSynthetic, Generator: job.GeneratorConfig{Seed: 9}}, {Workload: core.WorkloadPeak}}},
	}
	seen := map[string]int{h1: -1}
	for i, sc := range variants {
		h, err := HashScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %d hashes like variant %d", i, prev)
		}
		seen[h] = i
	}

	// Scenario-level workload knobs are ignored when an explicit
	// partition list is set, so spellings differing only in an ignored
	// field must share one cache entry.
	a := variants[0]
	b := variants[0]
	b.Workload = core.WorkloadPeak
	b.Generator = job.GeneratorConfig{Seed: 123}
	b.BenchmarkWallSec = 7200
	ha, err := HashScenario(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := HashScenario(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("ignored scenario-level knobs changed the hash of a partitioned scenario")
	}
}

// TestResultCacheByteBound pins the byte-bounded eviction: inserting
// results past the byte capacity evicts oldest-first, and the metrics
// surface bytes/capacity_bytes.
func TestResultCacheByteBound(t *testing.T) {
	c := newResultCache(100, 10_000)
	insert := func(key string, samples int) {
		e, leader := c.acquire(key)
		if !leader {
			t.Fatalf("key %q already present", key)
		}
		res := &core.Result{History: make([]raps.Sample, samples)}
		c.complete(key, e, res, nil)
	}
	insert("a", 10)
	insert("b", 10)
	cs := c.stats()
	ev, entries, bytes, maxBytes := cs.evictions, cs.entries, cs.bytes, c.maxBytes
	if maxBytes != 10_000 {
		t.Fatalf("maxBytes = %d", maxBytes)
	}
	if ev != 0 || entries != 2 || bytes <= 0 || bytes > 10_000 {
		t.Fatalf("after small inserts: ev=%d entries=%d bytes=%d", ev, entries, bytes)
	}
	// A large result pushes the total over the byte bound: the oldest
	// entries go first.
	insert("big", 40)
	cs = c.stats()
	ev, entries, bytes = cs.evictions, cs.entries, cs.bytes
	if ev == 0 {
		t.Fatal("byte bound triggered no evictions")
	}
	if bytes > 10_000 {
		t.Fatalf("cache holds %d bytes over the %d bound", bytes, 10_000)
	}
	if _, leader := c.acquire("a"); !leader {
		t.Fatal("oldest entry survived byte-bound eviction")
	}
	_ = entries

	// An entry larger than the whole byte bound is dropped alone —
	// never by flushing the warm entries around it.
	entriesBefore := c.stats().entries
	insert("huge", 10_000) // ≫ the 10 kB bound
	entriesAfter := c.stats().entries
	if entriesAfter < entriesBefore {
		t.Fatalf("oversized insert flushed warm entries: %d -> %d", entriesBefore, entriesAfter)
	}
	if _, leader := c.acquire("huge"); !leader {
		t.Fatal("oversized entry was retained")
	}

	// The byte accounting is surfaced on /metrics.
	svc := New(Options{Workers: 1, CacheMaxBytes: 123456})
	e := scrapeExposition(t, svc.Registry())
	if got := seriesValue(t, e, "exadigit_cache_capacity_bytes"); got != 123456 {
		t.Fatalf("capacity_bytes = %v, want 123456", got)
	}
}
