package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
)

// coolingVariants returns three distinct plants for the same Frontier
// compute spec: the hand-calibrated preset, the AutoCSM synthesis of the
// same design quantities, and an AutoCSM variant with a re-sized tower
// loop.
func coolingVariants() []config.CoolingSpec {
	preset := config.Frontier().Cooling
	auto := preset
	auto.Preset = ""
	resized := auto
	resized.NumTowers = 4
	resized.TowerFlowGPM = 7500
	resized.PrimaryFlowGPM = 6000
	return []config.CoolingSpec{preset, auto, resized}
}

// TestHTTPSweepMixesCoolingVariants is the acceptance test for the
// spec-driven cooling axis: a single POST /api/sweeps mixing ≥3 cooling
// variants runs each scenario on its own AutoCSM-compiled plant —
// distinct scenario hashes, distinct plant behavior (AvgPUE), with the
// preset variant pinned to the hand-calibrated Frontier result.
func TestHTTPSweepMixesCoolingVariants(t *testing.T) {
	svc := New(Options{Workers: 3})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	req := SubmitRequest{Name: "cooling-mix"}
	variants := coolingVariants()
	names := []string{"preset", "autocsm", "resized"}
	for i := range variants {
		v := variants[i]
		req.Scenarios = append(req.Scenarios, ScenarioRequest{
			Name: names[i], Workload: "hpl", BenchmarkWallSec: 2 * 3600,
			HorizonSec: 1800, TickSec: 15, WetBulbC: 19,
			CoolingSpec: &v, // implies cooling
		})
	}
	ack := postSweep(t, srv.URL, req)
	seen := map[string]bool{}
	for _, h := range ack.ScenarioHashes {
		if seen[h] {
			t.Fatalf("duplicate scenario hash %s across cooling variants", h)
		}
		seen[h] = true
	}

	sw, ok := svc.Sweep(ack.ID)
	if !ok {
		t.Fatal("sweep not registered")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := sw.Status()
	if st.Done != len(variants) {
		t.Fatalf("status = %+v", st)
	}
	results := sw.Results()
	pues := make([]float64, len(results))
	for i, res := range results {
		if res == nil {
			t.Fatalf("scenario %d missing result", i)
		}
		pues[i] = res.Report.AvgPUE
	}
	for i := 0; i < len(pues); i++ {
		for k := i + 1; k < len(pues); k++ {
			if pues[i] == pues[k] {
				t.Errorf("%s and %s cooled identically (PUE %v)", names[i], names[k], pues[i])
			}
		}
	}

	// The preset variant must match a run of the plain Frontier spec
	// (its scenario hash differs — the override is part of the scenario —
	// but the plant, and therefore the physics, is bit-identical).
	ref, err := core.RunBatch(config.Frontier(), []core.Scenario{{
		Name: "preset", Workload: core.WorkloadHPL, BenchmarkWallSec: 2 * 3600,
		HorizonSec: 1800, TickSec: 15, WetBulbC: 19, Cooling: true,
		NoExport: true, NoHistory: true,
	}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref[0].Report.AvgPUE != pues[0] {
		t.Errorf("preset variant PUE %v != plain Frontier spec PUE %v", pues[0], ref[0].Report.AvgPUE)
	}
}

// TestHashNormalizesImpliedCooling pins that the library spelling
// (CoolingSpec set, Cooling false) and the HTTP spelling (CoolingSpec
// set, Cooling normalized to true) of the same run share one hash — and
// therefore one result-cache entry.
func TestHashNormalizesImpliedCooling(t *testing.T) {
	spec := config.Frontier().Cooling
	lib := core.Scenario{Workload: core.WorkloadIdle, HorizonSec: 60, TickSec: 15, CoolingSpec: &spec}
	http := lib
	http.Cooling = true
	h1, err := HashScenario(lib)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashScenario(http)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("implied-cooling spellings hash differently: %s vs %s", h1, h2)
	}
	uncooled := lib
	uncooled.CoolingSpec = nil
	h3, err := HashScenario(uncooled)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("dropping the plant override did not change the hash")
	}
}

// TestHTTPRejectsInvalidCoolingSpec pins the 400 boundary: structurally
// invalid plants — non-positive flows or CDU counts, unknown presets,
// and plants that cannot couple the topology — fail the submission, not
// a worker.
func TestHTTPRejectsInvalidCoolingSpec(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	bad := map[string]func(*config.CoolingSpec){
		"negative flow":  func(c *config.CoolingSpec) { c.Preset = ""; c.PrimaryFlowGPM = -5 },
		"zero cdus":      func(c *config.CoolingSpec) { c.Preset = ""; c.NumCDUs = 0 },
		"unknown preset": func(c *config.CoolingSpec) { c.Preset = "chiller-9000" },
		"too few cdus":   func(c *config.CoolingSpec) { c.Preset = ""; c.NumCDUs = 10 },
		"infeasible": func(c *config.CoolingSpec) {
			// Valid structurally, but AutoCSM cannot size it: CT supply
			// too close to the secondary return.
			c.Preset = ""
			c.CTSupplyC = 28
		},
	}
	for name, mutate := range bad {
		spec := config.Frontier().Cooling
		mutate(&spec)
		req := SubmitRequest{Scenarios: []ScenarioRequest{{
			Workload: "idle", HorizonSec: 60, TickSec: 15, CoolingSpec: &spec,
		}}}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	if got := svc.List(); len(got) != 0 {
		t.Errorf("rejected submissions registered sweeps: %+v", got)
	}
}

// TestHTTPCancelAbortsMidDay pins that POST /api/sweeps/{id}/cancel
// stops an in-flight simulation promptly (the run aborts at a tick
// boundary) rather than after its multi-day horizon completes.
func TestHTTPCancelAbortsMidDay(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	ack := postSweep(t, srv.URL, SubmitRequest{Scenarios: []ScenarioRequest{{
		Name: "long-day", Workload: "synthetic",
		HorizonSec: 14 * 24 * 3600, TickSec: 1, Cooling: true, WetBulbC: 20,
	}}})
	sw, ok := svc.Sweep(ack.ID)
	if !ok {
		t.Fatal("sweep not registered")
	}
	// Wait for the scenario to be running, then cancel over HTTP.
	deadline := time.Now().Add(10 * time.Second)
	for sw.Status().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scenario never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	resp, err := http.Post(srv.URL+"/api/sweeps/"+ack.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatalf("sweep did not finish after cancel: %v", err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Errorf("cancel-to-finish took %v", wall)
	}
	st := sw.Status()
	if st.Cancelled != 1 || st.Done != 0 {
		t.Errorf("status after cancel = %+v", st)
	}
}

// BenchmarkMidDayCancel measures the cancel-to-stop latency of an
// in-flight cooled multi-day simulation: the tick-boundary abort that
// TestHTTPCancelAbortsMidDay bounds, without the HTTP round trip.
func BenchmarkMidDayCancel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc := New(Options{Workers: 1})
		sw, err := svc.Submit(config.Frontier(), []core.Scenario{{
			Workload: core.WorkloadSynthetic, HorizonSec: 14 * 86400, TickSec: 1,
			Cooling: true, WetBulbC: 20, NoExport: true, NoHistory: true,
		}}, SweepOptions{Name: "long-day"})
		if err != nil {
			b.Fatal(err)
		}
		for sw.Status().Running == 0 {
			time.Sleep(time.Millisecond)
		}
		// Let it get a few simulated hours in before pulling the plug.
		time.Sleep(50 * time.Millisecond)
		start := time.Now()
		sw.Cancel()
		<-sw.Done()
		b.ReportMetric(float64(time.Since(start).Microseconds())/1e3, "cancel_ms")
		if st := sw.Status(); st.Cancelled != 1 {
			b.Fatalf("sweep status %+v", st)
		}
	}
}

// TestHTTPStructuredFeasibilityError pins the structured 400 body: an
// AutoCSM-infeasible plant rejection names the offending field and a
// suggested fix instead of leaking sizing internals as free text.
func TestHTTPStructuredFeasibilityError(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := config.Frontier().Cooling
	spec.Preset = ""
	spec.CTSupplyC = 28 // feasibility failure deep in AutoCSM sizing

	req := SubmitRequest{Scenarios: []ScenarioRequest{{
		Workload: "idle", HorizonSec: 60, TickSec: 15, CoolingSpec: &spec,
	}}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var got struct {
		Error      string `json:"error"`
		Field      string `json:"field"`
		Constraint string `json:"constraint"`
		Suggestion string `json:"suggestion"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Field == "" || got.Constraint == "" || got.Suggestion == "" {
		t.Fatalf("expected structured field/constraint/suggestion, got %+v", got)
	}

	// An unknown solver name is structured too.
	spec2 := config.Frontier().Cooling
	spec2.Solver = "magic"
	req.Scenarios[0].CoolingSpec = &spec2
	body, _ = json.Marshal(req)
	resp2, err := http.Post(srv.URL+"/api/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got2 struct {
		Field string `json:"field"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&got2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusBadRequest || got2.Field != "solver" {
		t.Fatalf("solver rejection: status %d field %q", resp2.StatusCode, got2.Field)
	}
}
