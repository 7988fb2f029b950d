package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/job"
	"exadigit/internal/store"
	"exadigit/internal/telemetry"
)

func synthScenario(seed int64, horizon float64) core.Scenario {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = seed
	return core.Scenario{
		Name:       "synth",
		Workload:   core.WorkloadSynthetic,
		HorizonSec: horizon,
		TickSec:    15,
		Generator:  gen,
		NoExport:   true,
	}
}

func waitSweep(t *testing.T, sw *Sweep) SweepStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatalf("sweep %s did not finish: %v", sw.ID(), err)
	}
	return sw.Status()
}

// TestSubmitRunsAllScenarios: a basic sweep completes every scenario
// with a result, in input order.
func TestSubmitRunsAllScenarios(t *testing.T) {
	svc := New(Options{Workers: 4})
	scenarios := []core.Scenario{
		synthScenario(1, 1800), synthScenario(2, 1800), synthScenario(3, 1800),
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "basic"})
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, sw)
	if st.Done != len(scenarios) || st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	for i, res := range sw.Results() {
		if res == nil || res.Report == nil || res.Report.EnergyMWh <= 0 {
			t.Fatalf("scenario %d: missing result", i)
		}
		if res.WallSec <= 0 {
			t.Errorf("scenario %d: WallSec not recorded", i)
		}
	}
}

// TestResubmissionServedFromCache: an identical second sweep costs zero
// simulations and returns the identical cached results.
func TestResubmissionServedFromCache(t *testing.T) {
	svc := New(Options{Workers: 4})
	scenarios := []core.Scenario{synthScenario(10, 1800), synthScenario(11, 1800)}
	spec := config.Frontier()

	first, err := svc.Submit(spec, scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, first)
	missesBefore := svc.misses.Value()

	second, err := svc.Submit(spec, scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, second)
	if st.Cached != len(scenarios) {
		t.Fatalf("want %d cached, got %+v", len(scenarios), st)
	}
	missesAfter := svc.misses.Value()
	if missesAfter != missesBefore {
		t.Fatalf("re-submission simulated: misses %d → %d", missesBefore, missesAfter)
	}
	fr, sr := first.Results(), second.Results()
	for i := range fr {
		if fr[i] != sr[i] {
			t.Fatalf("scenario %d: cached result is not the shared instance", i)
		}
	}
}

// TestConcurrentSubmitsSingleFlight: N sweeps of the same scenario
// submitted concurrently produce exactly one simulation; the rest wait
// on the in-flight entry and share its result.
func TestConcurrentSubmitsSingleFlight(t *testing.T) {
	svc := New(Options{Workers: 4})
	spec := config.Frontier()
	const n = 6
	sweeps := make([]*Sweep, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sweeps[k], errs[k] = svc.Submit(spec,
				[]core.Scenario{synthScenario(77, 3600)}, SweepOptions{})
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	var res *core.Result
	for k, sw := range sweeps {
		st := waitSweep(t, sw)
		if st.Done+st.Cached != 1 || st.Failed != 0 {
			t.Fatalf("sweep %d: %+v", k, st)
		}
		r := sw.Results()[0]
		if r == nil {
			t.Fatalf("sweep %d: nil result", k)
		}
		if res == nil {
			res = r
		} else if res != r {
			t.Fatalf("sweep %d: got a distinct result instance (extra simulation)", k)
		}
	}
	hits, misses := svc.hits.Value(), svc.misses.Value()
	if misses != 1 {
		t.Fatalf("want exactly 1 simulation, got %d (hits %d)", misses, hits)
	}
	if hits != n-1 {
		t.Fatalf("want %d cache hits, got %d", n-1, hits)
	}
}

// TestCancelMidSweep: cancelling after the first completion leaves
// later scenarios cancelled, the sweep terminal, and nothing deadlocked.
func TestCancelMidSweep(t *testing.T) {
	svc := New(Options{Workers: 1})
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(100+i), 86400)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(60 * time.Second)
	for {
		ch := sw.changed() // subscribe before snapshotting to never miss an update
		st := sw.Status()
		if st.Done >= 1 {
			break
		}
		select {
		case <-ch:
		case <-sw.Done():
		case <-deadline:
			t.Fatal("no scenario completed in time")
		}
	}
	sw.Cancel()
	st := waitSweep(t, sw)
	if st.Cancelled == 0 {
		t.Fatalf("expected cancellations after mid-sweep cancel: %+v", st)
	}
	if st.Done+st.Cached+st.Failed+st.Cancelled != st.Total {
		t.Fatalf("non-terminal scenarios after finish: %+v", st)
	}
	// The cancelled keys must not poison the cache: a fresh sweep of the
	// same scenarios simulates them successfully.
	again, err := svc.Submit(config.Frontier(), scenarios[:2], SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitSweep(t, again)
	if st2.Done+st2.Cached != 2 {
		t.Fatalf("post-cancel resubmission failed: %+v", st2)
	}
}

// TestScenarioHashStability pins the content-hash behavior the result
// cache depends on: equal content → equal hash, any outcome-affecting
// field change → different hash, runtime-only fields → no change.
func TestScenarioHashStability(t *testing.T) {
	base := synthScenario(42, 3600)
	h1, err := HashScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashScenario(synthScenario(42, 3600))
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("identical scenarios hash differently: %s vs %s", h1, h2)
	}

	mutants := map[string]core.Scenario{}
	m := base
	m.HorizonSec = 7200
	mutants["horizon"] = m
	m = base
	m.PowerMode = "dc380"
	mutants["power mode"] = m
	m = base
	m.Cooling = true
	mutants["cooling"] = m
	m = base
	m.Generator.Seed = 43
	mutants["generator seed"] = m
	m = base
	m.Engine = "dense"
	mutants["engine"] = m
	m = base
	m.Dataset = &telemetry.Dataset{Epoch: "d", Jobs: []telemetry.JobRecord{{JobID: 1, NodeCount: 2}}}
	mutants["dataset"] = m
	for name, sc := range mutants {
		h, err := HashScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if h == h1 {
			t.Errorf("%s change did not change the hash", name)
		}
	}

	// Dataset content, not pointer identity, feeds the hash.
	d1 := &telemetry.Dataset{Epoch: "x", Jobs: []telemetry.JobRecord{{JobID: 9, NodeCount: 4}}}
	d2 := &telemetry.Dataset{Epoch: "x", Jobs: []telemetry.JobRecord{{JobID: 9, NodeCount: 4}}}
	a, b := base, base
	a.Dataset, b.Dataset = d1, d2
	ha, _ := HashScenario(a)
	hb, _ := HashScenario(b)
	if ha != hb {
		t.Error("equal dataset content hashed differently")
	}

	// Spec hashes: stable for equal content, sensitive to content.
	fr1, fr2 := config.Frontier(), config.Frontier()
	s1, err := fr1.Hash()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := fr2.Hash()
	if s1 != s2 {
		t.Error("Frontier spec hash unstable")
	}
	mod := config.Frontier()
	mod.Partitions[0].GPUMaxW = 561
	s3, _ := mod.Hash()
	if s3 == s1 {
		t.Error("spec change did not change the spec hash")
	}
}

// TestPerSweepConcurrencyLimit: with MaxConcurrent 1 the sweep never has
// two scenarios running at once even on a wide pool.
func TestPerSweepConcurrencyLimit(t *testing.T) {
	svc := New(Options{Workers: 8})
	scenarios := make([]core.Scenario, 4)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(200+i), 3600)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	maxRunning := 0
	for {
		ch := sw.changed()
		st := sw.Status()
		if st.Running > maxRunning {
			maxRunning = st.Running
		}
		if st.Finished {
			break
		}
		select {
		case <-ch:
		case <-sw.Done():
		}
	}
	waitSweep(t, sw)
	if maxRunning > 1 {
		t.Fatalf("observed %d concurrent scenarios under MaxConcurrent 1", maxRunning)
	}
}

// TestNegativeArrivalMeanFailsFast: a hostile generator config submitted
// through the service is refused at submit — no sweep is registered and
// no pool worker ever runs (or retries) the unbounded generation loop.
func TestNegativeArrivalMeanFailsFast(t *testing.T) {
	svc := New(Options{Workers: 1})
	sc := synthScenario(1, 3600)
	sc.Generator.ArrivalMeanSec = -1
	_, err := svc.Submit(config.Frontier(), []core.Scenario{sc}, SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), "arrival_mean_sec") {
		t.Fatalf("negative arrival mean: Submit error %v, want a refusal naming arrival_mean_sec", err)
	}
	if n := len(svc.List()); n != 0 {
		t.Fatalf("%d sweeps registered after a refused submission", n)
	}
	if m := svc.misses.Value(); m != 0 {
		t.Fatalf("refused scenario ran %v attempts", m)
	}
}

// TestTelemetryToBypassesCache: a scenario carrying a streaming sink
// must simulate every time — a cache hit cannot reproduce the writer
// side effect.
func TestTelemetryToBypassesCache(t *testing.T) {
	svc := New(Options{Workers: 2})
	run := func() int {
		var buf bytes.Buffer
		sc := synthScenario(33, 1800)
		sc.TelemetryTo = &buf
		sw, err := svc.Submit(config.Frontier(), []core.Scenario{sc}, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := waitSweep(t, sw)
		if st.Done != 1 {
			t.Fatalf("streaming scenario did not run: %+v", st)
		}
		return buf.Len()
	}
	first := run()
	second := run()
	if first == 0 || second == 0 {
		t.Fatalf("streaming sink received no bytes (first %d, second %d)", first, second)
	}
	if misses := svc.misses.Value(); misses != 2 {
		t.Fatalf("streaming scenarios must bypass the cache: %d simulations", misses)
	}
}

// TestSweepRetentionBounded: finished sweeps and studies beyond
// MaxSweeps are pruned so a long-running service does not pin results
// forever, and a pruned sweep leaves nothing behind: its idempotency key
// no longer dedupes and its journal is not re-adopted by a restart.
func TestSweepRetentionBounded(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, MaxSweeps: 2, Store: st})
	submit := func(i int) (*Sweep, bool) {
		t.Helper()
		sw, existing, err := svc.SubmitIdempotent(config.Frontier(),
			[]core.Scenario{synthScenario(int64(300+i), 900)},
			SweepOptions{Key: fmt.Sprintf("retain-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		waitSweep(t, sw)
		return sw, existing
	}
	first, _ := submit(0)
	var last *Sweep
	for i := 1; i < 5; i++ {
		last, _ = submit(i)
	}
	if n := len(svc.List()); n > 3 {
		t.Fatalf("retained %d sweeps with MaxSweeps 2", n)
	}
	if _, ok := svc.Sweep(last.ID()); !ok {
		t.Error("most recent sweep must survive pruning")
	}
	if _, ok := svc.Sweep(first.ID()); ok {
		t.Fatal("oldest finished sweep survived pruning")
	}

	// The pruned sweep's key is unbound: resubmitting it creates a sweep.
	again, existing := submit(0)
	if existing || again.ID() == first.ID() {
		t.Fatalf("pruned sweep's key still dedupes (existing=%v id=%s)", existing, again.ID())
	}

	// Its journal is gone too: a restart over the same directory
	// re-registers the retained sweeps but not the pruned one.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Options{Workers: 2, Store: st2})
	if _, err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc2.Sweep(again.ID()); !ok {
		t.Fatal("restart did not re-register a retained sweep")
	}
	if _, ok := svc2.Sweep(first.ID()); ok {
		t.Fatal("restart re-adopted a pruned sweep's journal")
	}

	if err := svc.Remove(last.ID()); err != nil {
		t.Fatalf("Remove finished sweep: %v", err)
	}
	if _, ok := svc.Sweep(last.ID()); ok {
		t.Error("removed sweep still listed")
	}

	// Studies share the retention bound.
	svc3 := New(Options{Workers: 2, MaxSweeps: 2})
	var newest *Study
	for i := 0; i < 5; i++ {
		study, err := svc3.SubmitStudy(config.Frontier(), synthScenario(int64(310+i), 900), quickStudy(), StudyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		study.Cancel()
		waitStudy(t, study)
		newest = study
	}
	studies := svc3.ListStudies()
	if len(studies) > 3 {
		t.Fatalf("retained %d studies with MaxSweeps 2", len(studies))
	}
	if studies[len(studies)-1].ID != newest.ID() {
		t.Fatalf("newest study %s missing from %+v", newest.ID(), studies)
	}
}
