package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/store"
)

func postSweep(t *testing.T, url string, req SubmitRequest) SubmitResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var ack SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

func whatIf32() SubmitRequest {
	req := SubmitRequest{Name: "whatif-32"}
	for i := 0; i < 32; i++ {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = int64(i + 1)
		req.Scenarios = append(req.Scenarios, ScenarioRequest{
			Name:       fmt.Sprintf("day-%d", i),
			Workload:   "synthetic",
			HorizonSec: 1800,
			TickSec:    15,
			Cooling:    true,
			WetBulbC:   20,
			Generator:  &gen,
		})
	}
	return req
}

// TestHTTPSweep32SharedCompiledSpec is the acceptance test for the
// tentpole: a 32-scenario what-if sweep submitted over HTTP completes
// through the worker pool with the power model and cooling FMU
// description each built exactly once (one shared CompiledSpec), and an
// identical re-submission is served entirely from the result cache.
func TestHTTPSweep32SharedCompiledSpec(t *testing.T) {
	svc := New(Options{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	modelsBefore := config.ModelBuilds()
	descsBefore := fmu.DescriptionBuilds()

	ack := postSweep(t, srv.URL, whatIf32())
	if len(ack.SpecHash) != 64 {
		t.Fatalf("bad spec hash %q", ack.SpecHash)
	}
	if len(ack.ScenarioHashes) != 32 {
		t.Fatalf("want 32 scenario hashes, got %d", len(ack.ScenarioHashes))
	}
	sw, ok := svc.Sweep(ack.ID)
	if !ok {
		t.Fatalf("sweep %q not registered", ack.ID)
	}
	st := waitSweep(t, sw)
	if st.Done != 32 || st.Failed != 0 {
		t.Fatalf("sweep did not complete cleanly: %+v", st)
	}

	if got := config.ModelBuilds() - modelsBefore; got != 1 {
		t.Errorf("power model built %d times for 32 scenarios; want exactly 1", got)
	}
	if got := fmu.DescriptionBuilds() - descsBefore; got != 1 {
		t.Errorf("FMU description built %d times for 32 scenarios; want exactly 1", got)
	}

	// Identical re-submission: zero simulations, zero new builds.
	_, missesBefore, _ := svc.CacheStats()
	ack2 := postSweep(t, srv.URL, whatIf32())
	if ack2.SpecHash != ack.SpecHash {
		t.Errorf("spec hash changed across submissions")
	}
	sw2, _ := svc.Sweep(ack2.ID)
	st2 := waitSweep(t, sw2)
	if st2.Cached != 32 {
		t.Fatalf("re-submission not served from cache: %+v", st2)
	}
	if _, misses, _ := svc.CacheStats(); misses != missesBefore {
		t.Errorf("re-submission simulated %d scenarios", misses-missesBefore)
	}
	if got := config.ModelBuilds() - modelsBefore; got != 1 {
		t.Errorf("re-submission rebuilt the power model (%d builds)", got)
	}

	// Results endpoint: 32 terminal entries with reports.
	resp, err := http.Get(srv.URL + "/api/sweeps/" + ack.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []ResultEntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 32 {
		t.Fatalf("want 32 result entries, got %d", len(entries))
	}
	for _, e := range entries {
		if e.Report == nil || e.Report.AvgPowerMW <= 0 {
			t.Fatalf("entry %d: missing report", e.Index)
		}
	}
}

// TestHTTPStreamDeliversResultsAsTheyComplete tails the NDJSON stream of
// a live sweep and receives one terminal entry per scenario.
func TestHTTPStreamDeliversResultsAsTheyComplete(t *testing.T) {
	svc := New(Options{Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := SubmitRequest{Name: "stream"}
	for i := 0; i < 5; i++ {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = int64(500 + i)
		req.Scenarios = append(req.Scenarios, ScenarioRequest{
			Workload: "synthetic", HorizonSec: 3600, TickSec: 15, Generator: &gen,
		})
	}
	ack := postSweep(t, srv.URL, req)

	resp, err := http.Get(srv.URL + "/api/sweeps/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	seen := map[int]bool{}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var e ResultEntry
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", scanner.Text(), err)
		}
		if seen[e.Index] {
			t.Fatalf("scenario %d streamed twice", e.Index)
		}
		seen[e.Index] = true
		if e.State != StateDone && e.State != StateCached {
			t.Fatalf("scenario %d streamed in state %s", e.Index, e.State)
		}
		if e.Report == nil {
			t.Fatalf("scenario %d streamed without report", e.Index)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5 {
		t.Fatalf("streamed %d of 5 results", len(seen))
	}
}

// TestHTTPCancelAndStatus exercises cancel over HTTP plus the list
// endpoint's cache statistics.
func TestHTTPCancelAndStatus(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := SubmitRequest{Name: "cancel-me", MaxConcurrent: 1}
	for i := 0; i < 6; i++ {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = int64(900 + i)
		req.Scenarios = append(req.Scenarios, ScenarioRequest{
			Workload: "synthetic", HorizonSec: 86400, TickSec: 15, Generator: &gen,
		})
	}
	ack := postSweep(t, srv.URL, req)
	resp, err := http.Post(srv.URL+"/api/sweeps/"+ack.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	sw, _ := svc.Sweep(ack.ID)
	st := waitSweep(t, sw)
	if st.Cancelled == 0 {
		t.Fatalf("nothing cancelled: %+v", st)
	}

	var list struct {
		Sweeps []SweepStatus  `json:"sweeps"`
		Cache  map[string]any `json:"cache"`
	}
	lr, err := http.Get(srv.URL + "/api/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Body.Close()
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != ack.ID {
		t.Fatalf("bad sweep list: %+v", list.Sweeps)
	}
	if list.Cache == nil {
		t.Fatal("list response missing cache stats")
	}

	// Unknown sweep → 404.
	nf, err := http.Get(srv.URL + "/api/sweeps/sw-999")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404 for unknown sweep, got %d", nf.StatusCode)
	}
}

// TestMetricsReportsCacheEvictions pins the /api/sweeps/metrics cache
// block: a count-bounded cache under pressure reports evictions, live
// entries, and capacity — the observability groundwork for the planned
// byte-bounded persistent cache.
func TestMetricsReportsCacheEvictions(t *testing.T) {
	svc := New(Options{Workers: 2, CacheCap: 2})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var scenarios []core.Scenario
	for i := 0; i < 4; i++ {
		gen := job.DefaultGeneratorConfig()
		gen.Seed = int64(900 + i)
		scenarios = append(scenarios, core.Scenario{
			Workload: core.WorkloadSynthetic, Generator: gen,
			HorizonSec: 60, TickSec: 15, NoExport: true, NoHistory: true,
		})
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: "evict"})
	if err != nil {
		t.Fatal(err)
	}
	<-sw.Done()

	resp, err := http.Get(srv.URL + "/api/sweeps/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Cache CacheMetrics `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Cache.Capacity != 2 {
		t.Errorf("capacity = %d, want 2", got.Cache.Capacity)
	}
	if got.Cache.Evictions < 2 {
		t.Errorf("evictions = %d, want ≥ 2 (4 results through a cap of 2)", got.Cache.Evictions)
	}
	if got.Cache.Entries > 2 {
		t.Errorf("entries = %d exceed capacity", got.Cache.Entries)
	}
	if got.Cache.Misses < 4 {
		t.Errorf("misses = %d, want ≥ 4", got.Cache.Misses)
	}
}

// TestHTTPBackpressure429: an HTTP submission against a saturated queue
// is a 429 with a Retry-After header and the JSON error envelope; once
// capacity frees, the same submission is accepted.
func TestHTTPBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	svc := New(Options{Workers: 1, MaxPending: 1, RetryBaseDelay: time.Millisecond})
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil
		},
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := SubmitRequest{Scenarios: []ScenarioRequest{{
		Workload: "synthetic", HorizonSec: 900, TickSec: 15,
	}}}
	ack := postSweep(t, srv.URL, req)

	body, _ := json.Marshal(SubmitRequest{Scenarios: []ScenarioRequest{{
		Workload: "synthetic", HorizonSec: 1800, TickSec: 15,
	}}})
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body not the JSON error envelope: %v %+v", err, eb)
	}

	close(gate)
	sw, _ := svc.Sweep(ack.ID)
	waitSweep(t, sw)
	postSweep(t, srv.URL, SubmitRequest{Scenarios: []ScenarioRequest{{
		Workload: "synthetic", HorizonSec: 1800, TickSec: 15,
	}}})
}

// TestHTTPMetricsFailureAndStoreSections: /api/sweeps/metrics reports
// the failure/recovery counters and, when a store is configured, the
// durable-store accounting.
func TestHTTPMetricsFailureAndStoreSections(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st, MaxAttempts: 2, RetryBaseDelay: time.Millisecond})
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.Attempt == 1 {
				panic("metrics: injected panic")
			}
			return nil
		},
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	ack := postSweep(t, srv.URL, SubmitRequest{Scenarios: []ScenarioRequest{{
		Workload: "synthetic", HorizonSec: 900, TickSec: 15,
	}}})
	sw, _ := svc.Sweep(ack.ID)
	waitSweep(t, sw)

	resp, err := http.Get(srv.URL + "/api/sweeps/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Failures FailureMetrics `json:"failures"`
		Store    *store.Metrics `json:"store"`
		Cache    CacheMetrics   `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Failures.PanicsRecovered != 1 || m.Failures.Retries != 1 {
		t.Fatalf("failure section: %+v", m.Failures)
	}
	if m.Store == nil || m.Store.Puts != 1 || m.Store.Bytes <= 0 {
		t.Fatalf("store section: %+v", m.Store)
	}
}

// TestHTTPOversizedBodyIs413 checks that both submission endpoints stop
// reading a body past maxRequestBytes and answer 413, for a single huge
// token and for a well-formed document behind whitespace that runs past
// the bound, while a normal submission still goes through afterwards.
func TestHTTPOversizedBodyIs413(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	huge := `{"name":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	padded := strings.Repeat(" ", maxRequestBytes) +
		`{"scenarios":[{"workload":"idle","horizon_sec":60,"tick_sec":15}]}`
	for _, path := range []string{"/api/sweeps", "/api/optimize"} {
		for name, body := range map[string]string{"huge": huge, "padded": padded} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var eb errorBody
			_ = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s body: status %d (%s), want 413", path, name, resp.StatusCode, eb.Error)
			}
		}
	}
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json",
		strings.NewReader(`{"scenarios":[{"workload":"idle","horizon_sec":60,"tick_sec":15}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal submission after oversized ones: status %d", resp.StatusCode)
	}
}
