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
	"exadigit/internal/obs"
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
	missesBefore := svc.misses.Value()
	ack2 := postSweep(t, srv.URL, whatIf32())
	if ack2.SpecHash != ack.SpecHash {
		t.Errorf("spec hash changed across submissions")
	}
	sw2, _ := svc.Sweep(ack2.ID)
	st2 := waitSweep(t, sw2)
	if st2.Cached != 32 {
		t.Fatalf("re-submission not served from cache: %+v", st2)
	}
	if misses := svc.misses.Value(); misses != missesBefore {
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
		Sweeps []SweepStatus `json:"sweeps"`
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

// TestMetricsReportsCacheEvictions pins the cache families of the
// exposition: a count-bounded cache under pressure reports evictions,
// live entries, and its entry capacity.
func TestMetricsReportsCacheEvictions(t *testing.T) {
	svc := New(Options{Workers: 2, CacheCap: 2})

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

	e := scrapeExposition(t, svc.Registry())
	if got := seriesValue(t, e, "exadigit_cache_capacity_entries"); got != 2 {
		t.Errorf("capacity = %v, want 2", got)
	}
	if got := seriesValue(t, e, "exadigit_cache_evictions_total"); got < 2 {
		t.Errorf("evictions = %v, want ≥ 2 (4 results through a cap of 2)", got)
	}
	if got := seriesValue(t, e, "exadigit_cache_entries"); got > 2 {
		t.Errorf("entries = %v exceed capacity", got)
	}
	if got := seriesValue(t, e, "exadigit_cache_misses_total"); got < 4 {
		t.Errorf("misses = %v, want ≥ 4", got)
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

// TestHTTPMetricsFailureAndStoreSections: the exposition reports the
// failure/recovery counters of an HTTP-submitted sweep and, when a store
// is configured, the durable-store accounting.
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

	e := scrapeExposition(t, svc.Registry())
	if p, r := seriesValue(t, e, "exadigit_sweep_panics_recovered_total"),
		seriesValue(t, e, "exadigit_sweep_retries_total"); p != 1 || r != 1 {
		t.Fatalf("failure families: panics_recovered=%v retries=%v, want 1 and 1", p, r)
	}
	puts := e.Series()[obs.ExpoSeries{Name: "exadigit_store_ops_total",
		Labels: map[string]string{"op": "put"}}.ID()]
	if bytes := seriesValue(t, e, "exadigit_store_bytes"); puts != 1 || bytes <= 0 {
		t.Fatalf("store families: puts=%v bytes=%v", puts, bytes)
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

// TestHTTPRejectsInvalidScenario pins core.CompiledSpec.Check at the
// submit boundary: a zero horizon, a horizon past a century, a negative
// tick, an unknown engine, workload, policy or power mode, a hostile
// generator, replay without a dataset, or a plant past the CDU-loop cap
// is a 400 naming the field, and no sweep is registered — not a sweep
// that is accepted and then fails every attempt on a worker.
func TestHTTPRejectsInvalidScenario(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	for name, tc := range map[string]struct {
		sc   string
		want string
	}{
		"zero horizon":   {`{"workload":"idle","horizon_sec":0}`, "horizon_sec"},
		"negative tick":  {`{"workload":"idle","horizon_sec":60,"tick_sec":-15}`, "tick_sec"},
		"unknown engine": {`{"workload":"idle","horizon_sec":60,"engine":"sparse"}`, "engine"},
		// Past a century the weather calendar time would wrap.
		"horizon past a century": {`{"workload":"idle","horizon_sec":1e15,"tick_sec":1e14}`, "horizon_sec"},
		"unknown workload":       {`{"workload":"foo","horizon_sec":60}`, "workload"},
		"unknown partition workload": {
			`{"workload":"idle","horizon_sec":60,"partitions":[{"workload":"foo"}]}`, "workload"},
		"unknown policy":        {`{"workload":"idle","horizon_sec":60,"policy":"xyz"}`, "policy"},
		"unknown power mode":    {`{"workload":"idle","horizon_sec":60,"power_mode":"bogus"}`, "power mode"},
		"negative arrival mean": {`{"workload":"synthetic","horizon_sec":60,"generator":{"arrival_mean_sec":-1}}`, "arrival_mean_sec"},
		// 86400 s at a 1e-4 s mean implies 8.6e8 jobs, past the 1e6 cap.
		"runaway job count": {`{"workload":"synthetic","horizon_sec":86400,"generator":{"arrival_mean_sec":1e-4}}`, "arrival_mean_sec"},
		// Datasets never cross the wire, so a wire replay has none.
		"replay without dataset": {`{"workload":"replay","horizon_sec":60}`, "dataset"},
		// Frontier's own design quantities, at 80× its 25 loops: a
		// feasible plant, refused only by the loop cap.
		"cdu loops past the cap": {`{"workload":"idle","horizon_sec":60,"cooling_spec":{"num_cdus":2000,"num_towers":5,` +
			`"cells_per_tower":4,"num_fan_channels":16,"num_htwps":4,"num_ctwps":4,"num_ehx":5,"design_heat_mw":16,` +
			`"design_wetbulb_c":20,"secondary_supply_c":32,"ct_supply_c":22,"primary_flow_gpm":5200,"tower_flow_gpm":9500}}`, "num_cdus"},
		// Finite but extreme design quantities size non-finite plant
		// values; the refusal names the quantity.
		"design heat near zero": {`{"workload":"idle","horizon_sec":60,"cooling_spec":{"num_cdus":25,"num_towers":5,` +
			`"cells_per_tower":4,"num_fan_channels":16,"num_htwps":4,"num_ctwps":4,"num_ehx":5,"design_heat_mw":1e-300,` +
			`"design_wetbulb_c":20,"secondary_supply_c":32,"ct_supply_c":22,"primary_flow_gpm":5200,"tower_flow_gpm":9500}}`, "design_heat_mw"},
		"tower flow near overflow": {`{"workload":"idle","horizon_sec":60,"cooling_spec":{"num_cdus":25,"num_towers":5,` +
			`"cells_per_tower":4,"num_fan_channels":16,"num_htwps":4,"num_ctwps":4,"num_ehx":5,"design_heat_mw":16,` +
			`"design_wetbulb_c":20,"secondary_supply_c":32,"ct_supply_c":22,"primary_flow_gpm":5200,"tower_flow_gpm":1e308}}`, "tower_flow_gpm"},
		// The HTW return it implies is a 303-digit temperature, which
		// the refusal must not spell out.
		"primary flow near zero": {`{"workload":"idle","horizon_sec":60,"cooling_spec":{"num_cdus":25,"num_towers":5,` +
			`"cells_per_tower":4,"num_fan_channels":16,"num_htwps":4,"num_ctwps":4,"num_ehx":5,"design_heat_mw":16,` +
			`"design_wetbulb_c":20,"secondary_supply_c":32,"ct_supply_c":22,"primary_flow_gpm":1e-300,"tower_flow_gpm":9500}}`, "primary_flow_gpm"},
	} {
		body := `{"scenarios":[{"workload":"idle","horizon_sec":60},` + tc.sc + `]}`
		resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) ||
			!strings.Contains(eb.Error, "scenario 1") {
			t.Errorf("%s: status %d (%q), want 400 naming scenario 1's %s", name, resp.StatusCode, eb.Error, tc.want)
		}
		if len(eb.Error) >= 300 {
			t.Errorf("%s: a refusal of %d bytes, want under 300: %.120s…", name, len(eb.Error), eb.Error)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Errorf("%d sweeps registered after refused submissions, want 0", n)
	}
}

// TestHTTPRejectsInvalidSystemSpec is the sweep-level sibling of
// TestHTTPRejectsInvalidScenario: an inline spec past a size bound or
// with an impossible component power is a 400 naming the field, and
// leaves neither a sweep nor a journal behind. The billion-node body is
// the one that, unbounded, died allocating an 8 GB node pool.
func TestHTTPRejectsInvalidSystemSpec(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 1, Store: st})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	for name, tc := range map[string]struct {
		mutate func(*config.PartitionSpec)
		field  string
	}{
		"a billion nodes": {func(p *config.PartitionSpec) {
			// Enough CDUs that, unbounded, the topology would pass.
			p.NodesTotal, p.NumCDUs = 1_000_000_000, 1_000_000_000/(128*3)+1
		}, "partitions[0].nodes_total"},
		"extreme component powers": {func(p *config.PartitionSpec) {
			p.CPUIdleW, p.GPUMaxW = -1e308, 1e308
		}, "partitions[0].cpu_idle_w"},
	} {
		spec := config.Frontier()
		tc.mutate(&spec.Partitions[0])
		body, err := json.Marshal(SubmitRequest{Spec: &spec, Scenarios: []ScenarioRequest{{Workload: "idle", HorizonSec: 60}}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || eb.Field != tc.field {
			t.Errorf("%s: status %d (%+v), want 400 on %s", name, resp.StatusCode, eb, tc.field)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Errorf("%d sweeps registered after refused submissions, want 0", n)
	}
	if n := st.JournalCount(); n != 0 {
		t.Errorf("%d journals written for refused submissions, want 0", n)
	}
}

// TestHTTPRejectsMaxAttemptsAboveBudget: a sweep may lower the server's
// retry budget but not raise it — a huge max_attempts with a short
// timeout would otherwise retry one scenario almost forever.
func TestHTTPRejectsMaxAttemptsAboveBudget(t *testing.T) {
	svc := New(Options{Workers: 1, MaxAttempts: 3})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	for _, attempts := range []int{4, 2000000000} {
		body := fmt.Sprintf(`{"max_attempts":%d,"scenarios":[{"workload":"idle","horizon_sec":60}]}`, attempts)
		resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "max_attempts") {
			t.Errorf("max_attempts %d: status %d (%q), want 400 naming max_attempts", attempts, resp.StatusCode, eb.Error)
		}
	}
	if n := len(svc.List()); n != 0 {
		t.Fatalf("%d sweeps registered after refused submissions, want 0", n)
	}
	sw, err := svc.Submit(config.Frontier(), []core.Scenario{{Workload: core.WorkloadIdle, HorizonSec: 60}},
		SweepOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatalf("a budget below the server's was refused: %v", err)
	}
	if sw.maxAttempts != 2 {
		t.Fatalf("sweep budget %d, want 2", sw.maxAttempts)
	}
	waitSweep(t, sw)
}
