package service

// Observability integration suite — the acceptance tests for the
// unified metrics/tracing layer: /metrics scraped mid-sweep parses
// under the strict exposition validator, counters never move backwards
// between scrapes, the exposition carries every service counter with
// its expected value (it is the only metrics surface), and a chaos
// sweep's lifecycle spans reconcile exactly with the failure counters.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// scrapeExposition scrapes the registry through its real HTTP handler
// and runs the result through the strict parser and the naming linter.
func scrapeExposition(t *testing.T, reg *obs.Registry) *obs.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	e, err := obs.ParseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("scrape failed strict validation: %v", err)
	}
	if err := obs.ValidateConventions(e, "exadigit_"); err != nil {
		t.Fatalf("scrape violates naming conventions: %v", err)
	}
	return e
}

// assertMonotone checks that no counter or histogram sample moved
// backwards between two scrapes, and that no series disappeared.
func assertMonotone(t *testing.T, before, after *obs.Exposition) {
	t.Helper()
	av := after.Series()
	for name, f := range before.Families {
		if f.Type == "gauge" {
			continue
		}
		for _, s := range f.Series {
			id := s.ID()
			now, ok := av[id]
			if !ok {
				t.Errorf("series %s disappeared between scrapes", id)
				continue
			}
			if now < s.Value {
				t.Errorf("%s (%s) went backwards: %v -> %v", id, name, s.Value, now)
			}
		}
	}
}

// seriesValue fetches one unlabeled sample from a parsed scrape.
func seriesValue(t *testing.T, e *obs.Exposition, name string) float64 {
	t.Helper()
	v, ok := e.Series()[name+"{}"]
	if !ok {
		t.Fatalf("series %s not in scrape", name)
	}
	return v
}

// TestMetricsScrapeDuringMixedPlantSweep is the scrape acceptance test:
// a 32-scenario sweep mixing three cooling-plant variants is scraped
// twice mid-flight and once after completion; every scrape passes the
// strict exposition validator and the naming linter, counters are
// monotone across the three scrapes, and the terminal scrape accounts
// for every scenario span.
func TestMetricsScrapeDuringMixedPlantSweep(t *testing.T) {
	svc := New(Options{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 32
	variants := coolingVariants()
	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		sc := synthScenario(int64(7000+i), 600)
		sc.TickSec = 30
		sc.CoolingSpec = &variants[i%len(variants)] // implies cooling
		scenarios[i] = sc
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "obs-mixed-plant"})
	if err != nil {
		t.Fatal(err)
	}

	// First scrape right after submission, while the pool is saturated.
	e1 := scrapeExposition(t, svc.Registry())

	// Generate some HTTP traffic so the middleware families carry data,
	// then scrape again once part of the sweep has finished — both
	// scrapes land mid-sweep on any machine slower than the pool. Each
	// body is read to EOF: net/http writes the end of a response after
	// the handler's deferred calls, so the middleware has observed the
	// request by then (headers alone can arrive first).
	for _, path := range []string{"/api/sweeps", "/api/sweeps/trace", "/api/sweeps/" + sw.ID()} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := sw.Status()
		if st.Done+st.Cached+st.Failed >= n/4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	e2 := scrapeExposition(t, svc.Registry())
	assertMonotone(t, e1, e2)

	stat := waitSweep(t, sw)
	if stat.Done != n {
		t.Fatalf("mixed-plant sweep status: %+v", stat)
	}
	e3 := scrapeExposition(t, svc.Registry())
	assertMonotone(t, e2, e3)

	// The terminal scrape carries the full accounting.
	for name, want := range map[string]float64{
		"exadigit_trace_spans_total":       n,
		"exadigit_cache_misses_total":      n, // 32 distinct hashes, all computed
		"exadigit_sweep_pending_scenarios": 0,
		"exadigit_sweep_workers":           4,
	} {
		if got := seriesValue(t, e3, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := seriesValue(t, e3, "exadigit_sweep_scenarios_per_second"); got <= 0 {
		t.Errorf("scenarios_per_second = %v, want > 0", got)
	}
	// The middleware families exist with the sweeps server label.
	series := e3.Series()
	reqID := obs.ExpoSeries{Name: "exadigit_http_requests_total",
		Labels: map[string]string{"server": "sweeps", "route": "/api/sweeps", "code": "2xx"}}.ID()
	if series[reqID] < 1 {
		t.Errorf("%s = %v, want >= 1", reqID, series[reqID])
	}
	durID := obs.ExpoSeries{Name: "exadigit_http_request_duration_seconds_count",
		Labels: map[string]string{"server": "sweeps"}}.ID()
	if series[durID] < 3 {
		t.Errorf("%s = %v, want >= 3", durID, series[durID])
	}
}

// TestExpositionCarriesServiceCounters pins that no counter is lost
// with /metrics as the only surface: after a sweep with intra-sweep
// duplicates (cache hits) over a durable store, every cache, failure and
// store family is present with its expected value, including the
// cache's entry-count bound.
func TestExpositionCarriesServiceCounters(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 4, Store: st, CacheCap: 16, MaxPending: 64}
	svc := New(opts)

	// 4 distinct scenarios, each submitted twice: the duplicate waiters
	// resolve from the in-memory tier and count as cache hits.
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(100+i%4), 900)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "obs-counters"})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Done+stat.Cached != len(scenarios) {
		t.Fatalf("sweep status: %+v", stat)
	}

	e := scrapeExposition(t, svc.Registry())
	for name, want := range map[string]float64{
		"exadigit_cache_hits_total":             4,
		"exadigit_cache_misses_total":           4,
		"exadigit_cache_evictions_total":        0,
		"exadigit_cache_entries":                4,
		"exadigit_cache_capacity_entries":       float64(opts.CacheCap),
		"exadigit_cache_capacity_bytes":         256 << 20,
		"exadigit_sweep_retries_total":          0,
		"exadigit_sweep_panics_recovered_total": 0,
		"exadigit_sweep_timeouts_total":         0,
		"exadigit_sweep_queue_rejections_total": 0,
		"exadigit_sweep_pending_scenarios":      0,
		"exadigit_sweep_max_pending":            float64(opts.MaxPending),
		"exadigit_store_entries":                4,
	} {
		if got := seriesValue(t, e, name); got != want {
			t.Errorf("exposition %s = %v, want %v", name, got, want)
		}
	}
	if got := seriesValue(t, e, "exadigit_cache_bytes"); got <= 0 {
		t.Errorf("exposition exadigit_cache_bytes = %v, want > 0", got)
	}
	if got := seriesValue(t, e, "exadigit_store_bytes"); got <= 0 {
		t.Errorf("exposition exadigit_store_bytes = %v, want > 0", got)
	}
	series := e.Series()
	for op, want := range map[string]float64{
		"hit": 0, "miss": 4, "put": 4, "put_error": 0, "corrupt_quarantined": 0,
		"quarantine_purged": 0, "lease_acquired": 0, "lease_wait": 0, "lease_steal": 0,
		"journal_create": 1, "journal_error": 0,
	} {
		id := obs.ExpoSeries{Name: "exadigit_store_ops_total",
			Labels: map[string]string{"op": op}}.ID()
		got, ok := series[id]
		if !ok {
			t.Errorf("series %s not in scrape", id)
			continue
		}
		if got != want {
			t.Errorf("exposition %s = %v, want %v", id, got, want)
		}
	}
}

// TestChaosTraceMatchesFailureCounters reconciles the lifecycle tracer
// against the failure counters over a chaos sweep: every attempt
// outcome recorded in a span corresponds one-to-one with a counter
// increment — timeouts, recovered panics, and retries all match the
// exposed counters exactly — and /api/sweeps/trace serves the same
// spans as NDJSON.
func TestChaosTraceMatchesFailureCounters(t *testing.T) {
	svc := New(chaosOptions(nil))
	const (
		panicIdx     = 3
		timeoutIdx   = 5
		transientIdx = 7
		permIdx      = 11
		n            = 16
	)
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			switch {
			case f.Index == panicIdx && f.Attempt == 1:
				panic("chaos: injected worker panic")
			case f.Index == timeoutIdx && f.Attempt == 1:
				<-ctx.Done()
				return nil
			case f.Index == transientIdx && f.Attempt <= 2:
				return errors.New("chaos: injected transient failure")
			case f.Index == permIdx:
				return errors.New("chaos: injected permanent failure")
			}
			return nil
		},
	})

	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(5000+i), 900)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{
		Name:            "obs-chaos",
		ScenarioTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Done != n-1 || stat.Failed != 1 {
		t.Fatalf("chaos sweep status: %+v", stat)
	}

	spans := svc.Tracer().Snapshot()
	if len(spans) != n {
		t.Fatalf("tracer holds %d spans, want %d", len(spans), n)
	}
	if got := svc.Tracer().Total(); got != n {
		t.Fatalf("tracer total = %d, want %d", got, n)
	}

	// Reconcile attempt outcomes against the counters. Retries is the
	// number of non-first attempts; each injected timeout and recovered
	// panic leaves exactly one attempt span with that outcome.
	var timeouts, panics, retries uint64
	byIndex := make(map[int]obs.Span, n)
	for _, sp := range spans {
		if sp.Sweep != sw.ID() {
			t.Fatalf("span for foreign sweep %s", sp.Sweep)
		}
		byIndex[sp.Index] = sp
		if len(sp.Attempts) > 0 {
			retries += uint64(len(sp.Attempts) - 1)
		}
		for i, a := range sp.Attempts {
			if a.Attempt != i+1 {
				t.Errorf("scenario %d attempt %d numbered %d", sp.Index, i+1, a.Attempt)
			}
			switch a.Outcome {
			case "timeout":
				timeouts++
			case "panic":
				panics++
			case "ok", "error":
			default:
				t.Errorf("scenario %d: unexpected outcome %q", sp.Index, a.Outcome)
			}
		}
	}
	e := scrapeExposition(t, svc.Registry())
	for name, spanCount := range map[string]uint64{
		"exadigit_sweep_timeouts_total":         timeouts,
		"exadigit_sweep_panics_recovered_total": panics,
		"exadigit_sweep_retries_total":          retries,
	} {
		if got := seriesValue(t, e, name); got != float64(spanCount) {
			t.Errorf("spans count %d for %s, counter says %v", spanCount, name, got)
		}
	}

	// The injected scenarios carry the expected attempt timelines.
	checks := []struct {
		idx      int
		state    string
		outcomes []string
	}{
		{panicIdx, "done", []string{"panic", "ok"}},
		{timeoutIdx, "done", []string{"timeout", "ok"}},
		{transientIdx, "done", []string{"error", "error", "ok"}},
		{permIdx, "failed", []string{"error", "error", "error"}},
	}
	for _, c := range checks {
		sp := byIndex[c.idx]
		if sp.State != c.state {
			t.Errorf("scenario %d state %q, want %q", c.idx, sp.State, c.state)
		}
		if len(sp.Attempts) != len(c.outcomes) {
			t.Errorf("scenario %d has %d attempt spans, want %d", c.idx, len(sp.Attempts), len(c.outcomes))
			continue
		}
		for i, want := range c.outcomes {
			if got := sp.Attempts[i].Outcome; got != want {
				t.Errorf("scenario %d attempt %d outcome %q, want %q", c.idx, i+1, got, want)
			}
			if want != "ok" && sp.Attempts[i].Error == "" {
				t.Errorf("scenario %d attempt %d: failed outcome lacks error text", c.idx, i+1)
			}
		}
	}
	if sp := byIndex[permIdx]; sp.Error == "" || sp.CacheTier != "none" {
		t.Errorf("permanent-failure span = %+v, want error text and tier none", sp)
	}
	if sp := byIndex[0]; sp.CacheTier != "compute" || sp.TotalSec <= 0 {
		t.Errorf("computed span = %+v, want tier compute and positive total", sp)
	}

	// The NDJSON endpoint serves the same spans.
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sweeps/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/api/sweeps/trace status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	var served []obs.Span
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("trace line does not parse: %v", err)
		}
		served = append(served, sp)
	}
	if len(served) != n {
		t.Fatalf("trace endpoint served %d spans, want %d", len(served), n)
	}
	for i, sp := range served {
		if sp.Index != spans[i].Index || sp.ScenarioHash != spans[i].ScenarioHash ||
			sp.State != spans[i].State || len(sp.Attempts) != len(spans[i].Attempts) {
			t.Fatalf("trace line %d = %+v, snapshot has %+v", i, sp, spans[i])
		}
	}

	// ?limit=N trims to the most recent spans.
	rec = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/sweeps/trace?limit=5", nil))
	if got := strings.Count(rec.Body.String(), "\n"); got != 5 {
		t.Errorf("trace?limit=5 served %d spans", got)
	}
}
