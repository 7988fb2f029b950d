package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/optimize"
	"exadigit/internal/store"
	"exadigit/internal/surrogate"
)

// quickStudy is a small real-twin study: a 3×10 grid over simulation
// tick and outdoor wet bulb, two objectives, sized to finish in a few
// twin evaluations per generation.
func quickStudy() optimize.StudySpec {
	return optimize.StudySpec{
		Knobs: []optimize.Knob{
			{Name: "scenario.tick_sec", Min: 15, Max: 45, Step: 15},
			{Name: "scenario.wetbulb_c", Min: 1, Max: 10, Step: 1},
		},
		Objectives: []optimize.Objective{
			{Metric: "energy_mwh"},
			{Metric: "throughput_per_hr", Maximize: true},
		},
		Population:  10,
		Generations: 2,
		PromoteTopK: 2,
		Seed:        7,
	}
}

func waitStudy(t *testing.T, st *Study) StudyStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	if err := st.Wait(ctx); err != nil {
		t.Fatalf("study %s did not finish: %v", st.ID(), err)
	}
	return st.Status()
}

// TestStudyEndToEnd: a study over the real twin completes, reports a
// twin-exact best and frontier, and persists its surrogate fit to the
// durable store. A cold re-run of the same study on the same service is
// then served entirely from cache with zero spec recompilations.
func TestStudyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 4, Store: st})
	base := synthScenario(1, 900)
	study := quickStudy()

	first, err := svc.SubmitStudy(config.Frontier(), base, study, StudyOptions{Name: "co-design"})
	if err != nil {
		t.Fatal(err)
	}
	status := waitStudy(t, first)
	if status.State != StudyDone {
		t.Fatalf("study state %s (%s)", status.State, status.Error)
	}
	res := first.Result()
	if res == nil || res.Best == nil || len(res.Frontier) == 0 {
		t.Fatalf("study finished without a best/frontier: %+v", res)
	}
	if res.TwinEvals == 0 || res.Generations != study.Generations {
		t.Fatalf("accounting: %+v", res)
	}
	if res.BaselineObjectives == nil {
		t.Fatal("baseline objectives missing")
	}
	for _, c := range res.Frontier {
		if c.Objectives["energy_mwh"] <= 0 {
			t.Fatalf("frontier member without twin-exact objectives: %+v", c)
		}
	}
	if status.Progress == nil || status.Progress.Generation != study.Generations-1 {
		t.Fatalf("status progress: %+v", status.Progress)
	}

	// The trained surrogate was persisted under the durable store.
	blob, err := st.GetBlob(optimizeModelBlobName(first.specHash, study))
	if err != nil {
		t.Fatalf("persisted model: %v", err)
	}
	var m surrogate.Model
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("persisted model decode: %v", err)
	}
	if !m.Trained() || m.Dims() != 2 {
		t.Fatalf("persisted model untrained or wrong dims: trained=%v dims=%d", m.Trained(), m.Dims())
	}

	// Cold re-run, same service: the driver is deterministic, so it
	// re-requests the exact same scenarios — every twin evaluation is a
	// cache hit and the compiled spec is reused (0 model rebuilds).
	buildsBefore := config.ModelBuilds()
	second, err := svc.SubmitStudy(config.Frontier(), base, study, StudyOptions{Name: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if s2 := waitStudy(t, second); s2.State != StudyDone {
		t.Fatalf("re-run state %s (%s)", s2.State, s2.Error)
	}
	res2 := second.Result()
	if res2.TwinEvals != res.TwinEvals || res2.Screened != res.Screened || res2.Fallbacks != res.Fallbacks {
		t.Fatalf("re-run diverged: %d/%d/%d vs %d/%d/%d twin/screened/fallbacks",
			res2.TwinEvals, res2.Screened, res2.Fallbacks, res.TwinEvals, res.Screened, res.Fallbacks)
	}
	if res2.CachedEvals != res2.TwinEvals {
		t.Fatalf("re-run computed %d of %d evaluations instead of riding the cache",
			res2.TwinEvals-res2.CachedEvals, res2.TwinEvals)
	}
	if got := config.ModelBuilds() - buildsBefore; got != 0 {
		t.Fatalf("re-run rebuilt %d power models, want 0", got)
	}
	if res2.Best.Scalar != res.Best.Scalar {
		t.Fatalf("re-run best diverged: %v vs %v", res2.Best.Scalar, res.Best.Scalar)
	}

	// Warm start: a third study loads the persisted fit.
	third, err := svc.SubmitStudy(config.Frontier(), base, study, StudyOptions{Name: "warm-start", WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if s3 := waitStudy(t, third); s3.State != StudyDone || !s3.WarmStarted {
		t.Fatalf("warm-started study: state=%s warm=%v (%s)", s3.State, s3.WarmStarted, s3.Error)
	}
}

// TestStudyCancel: cancelling a running study terminates it with the
// cancelled state.
func TestStudyCancel(t *testing.T) {
	svc := New(Options{Workers: 2})
	study := quickStudy()
	study.Generations = 6
	st, err := svc.SubmitStudy(config.Frontier(), synthScenario(2, 1800), study, StudyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Cancel()
	status := waitStudy(t, st)
	if status.State != StudyCancelled {
		t.Fatalf("state %s, want cancelled", status.State)
	}
	if _, ok := svc.StudyByID(st.ID()); !ok {
		t.Fatal("cancelled study dropped from registry")
	}
}

// TestStudyRejectsClosedService: a draining service refuses new studies.
func TestStudyRejectsClosedService(t *testing.T) {
	svc := New(Options{Workers: 1})
	svc.Close()
	if _, err := svc.SubmitStudy(config.Frontier(), synthScenario(3, 900), quickStudy(), StudyOptions{}); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestStudyHTTPRoundTrip drives the whole HTTP surface: submit, list,
// status, NDJSON progress stream (progress lines then a terminal line
// carrying the result), and the result endpoint.
func TestStudyHTTPRoundTrip(t *testing.T) {
	svc := New(Options{Workers: 4})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	study := quickStudy()
	study.Population = 8
	body, _ := json.Marshal(OptimizeRequest{
		Name: "http-study",
		Base: &ScenarioRequest{
			Name: "synth", Workload: "synthetic", HorizonSec: 900, TickSec: 15,
		},
		Study: study,
	})
	resp, err := http.Post(srv.URL+"/api/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var ack OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.ID == "" || ack.SpecHash == "" {
		t.Fatalf("ack: %+v", ack)
	}

	// The stream carries per-generation progress, then the result.
	stream, err := http.Get(srv.URL + "/api/optimize/" + ack.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var entries []optimizeStreamEntry
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e optimizeStreamEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		entries = append(entries, e)
	}
	if len(entries) < study.Generations+1 {
		t.Fatalf("stream delivered %d entries, want >= %d", len(entries), study.Generations+1)
	}
	final := entries[len(entries)-1]
	if final.State != StudyDone || final.Result == nil || final.Result.Best == nil {
		t.Fatalf("final stream entry: %+v", final)
	}
	for _, e := range entries[:len(entries)-1] {
		if e.Progress == nil {
			t.Fatalf("non-final stream entry without progress: %+v", e)
		}
	}

	// Status, list, and result endpoints agree.
	resp, err = http.Get(srv.URL + "/api/optimize/" + ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	var status StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.State != StudyDone {
		t.Fatalf("status: %+v", status)
	}
	resp, err = http.Get(srv.URL + "/api/optimize")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Studies []StudyStatus `json:"studies"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Studies) != 1 || list.Studies[0].ID != ack.ID {
		t.Fatalf("list: %+v", list)
	}
	resp, err = http.Get(srv.URL + "/api/optimize/" + ack.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result optimize.StudyResult
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if result.Best == nil || len(result.Frontier) == 0 {
		t.Fatalf("result: %+v", result)
	}

	// Unknown study: 404.
	resp, err = http.Get(srv.URL + "/api/optimize/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown study: %d", resp.StatusCode)
	}
}

// TestStudyHTTPIgnoresRetiredGateKeys: a study body that still carries
// the retired gate and surrogate settings (init_sample, confidence,
// gate_rel_width, min_calib, lambda) is accepted, and the keys are
// ignored: it produces the same result as the same study without them,
// so clients written against the older body keep working.
func TestStudyHTTPIgnoresRetiredGateKeys(t *testing.T) {
	study := quickStudy()
	study.Population = 8
	plain, err := json.Marshal(study)
	if err != nil {
		t.Fatal(err)
	}
	var withKeys map[string]any
	if err := json.Unmarshal(plain, &withKeys); err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]any{
		"init_sample": 3, "confidence": 0.5, "gate_rel_width": 0.9, "min_calib": 2, "lambda": 1,
	} {
		withKeys[k] = v
	}
	retired, err := json.Marshal(withKeys)
	if err != nil {
		t.Fatal(err)
	}

	// Each body runs on a fresh service, so neither study is served from
	// the other's cache and the accounting compares too.
	run := func(studyJSON []byte) []byte {
		svc := New(Options{Workers: 2})
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		body := `{"base":{"name":"synth","workload":"synthetic","horizon_sec":900,"tick_sec":15},"study":` + string(studyJSON) + `}`
		resp, err := http.Post(srv.URL+"/api/optimize", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var ack OptimizeResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("submit: %d %v", resp.StatusCode, err)
		}
		st, ok := svc.StudyByID(ack.ID)
		if !ok {
			t.Fatalf("study %s not registered", ack.ID)
		}
		if status := waitStudy(t, st); status.State != StudyDone {
			t.Fatalf("study state %s", status.State)
		}
		out, err := json.Marshal(st.Result())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, got := run(plain), run(retired)
	if !bytes.Equal(got, want) {
		t.Fatalf("retired keys changed the study result:\nwithout: %s\nwith:    %s", want, got)
	}
}

// TestStudyEvaluatorPerCandidateValidation: a candidate the compiled
// spec's Check refuses — an invalid plant, an unknown policy — becomes
// that candidate's infeasibility, not a study-fatal error, and is never
// simulated.
func TestStudyEvaluatorPerCandidateValidation(t *testing.T) {
	svc := New(Options{Workers: 1})
	compiled, err := core.Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	ev := &sweepEvaluator{svc: svc, spec: config.Frontier(), compiled: compiled, studyID: "opt-test"}
	bad := synthScenario(9, 900)
	bad.CoolingSpec = &config.CoolingSpec{NumCDUs: -1}
	badPolicy := synthScenario(9, 900)
	badPolicy.Policy = "xyz"
	good := synthScenario(9, 900)
	outs, err := ev.Evaluate(context.Background(), 0, []core.Scenario{bad, badPolicy, good})
	if err != nil {
		t.Fatalf("batch failed wholesale: %v", err)
	}
	for i, want := range []string{"num_cdus", "policy"} {
		if !strings.Contains(outs[i].Err, want) || outs[i].Report != nil {
			t.Fatalf("invalid candidate %d outcome: %+v, want an error naming %s", i, outs[i], want)
		}
	}
	if outs[2].Err != "" || outs[2].Report == nil {
		t.Fatalf("valid candidate outcome: %+v", outs[2])
	}
	// Refused candidates never reach the pool: one attempt in all.
	if m := svc.misses.Value(); m != 1 {
		t.Fatalf("%d simulation attempts, want 1 (the valid candidate)", m)
	}
}

// TestSetpointStudyAtPartLoad: the steady-state setpoint study — tower
// leaving-water and primary header ΔP setpoints scored on auxiliary
// power — run as a driver study over the real twin. At part load in
// mild weather a relaxed setpoint pair beats the plant's own.
func TestSetpointStudyAtPartLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("cooled setpoint study")
	}
	base := synthScenario(14, 3600)
	base.Cooling = true
	base.WetBulbC = 12
	study := optimize.StudySpec{
		Knobs: []optimize.Knob{
			{Name: "cooling.ct_supply_set_c", Min: 22, Max: 26, Step: 2},
			{Name: "cooling.htw_header_set_pa", Min: 100e3, Max: 140e3, Step: 40e3},
		},
		Objectives: []optimize.Objective{{Metric: "aux_mw"}},
		// Twelve stratified draws under seed 1 cover all six grid points
		// in the first generation; the surrogate is off, so every
		// distinct draw is twin-evaluated.
		Population:       12,
		Generations:      1,
		Seed:             1,
		DisableSurrogate: true,
	}
	svc := New(Options{Workers: 2})
	st, err := svc.SubmitStudy(config.Frontier(), base, study, StudyOptions{Name: "setpoints"})
	if err != nil {
		t.Fatal(err)
	}
	if status := waitStudy(t, st); status.State != StudyDone {
		t.Fatalf("study state %s (%s)", status.State, status.Error)
	}
	res := st.Result()
	baseline := res.BaselineObjectives["aux_mw"]
	if !res.BaselineFeasible || baseline <= 0 {
		t.Fatalf("baseline: feasible=%v aux=%v (%s)", res.BaselineFeasible, baseline, res.BaselineError)
	}
	seen := make(map[[2]float64]float64)
	for _, c := range res.Evaluated {
		t.Logf("gen %d: %v °C, %v Pa: aux %.12f MW", c.Generation, c.Vector[0], c.Vector[1], c.Objectives["aux_mw"])
		seen[[2]float64{c.Vector[0], c.Vector[1]}] = c.Objectives["aux_mw"]
	}
	for _, ct := range []float64{22, 24, 26} {
		for _, hdr := range []float64{100e3, 140e3} {
			if _, ok := seen[[2]float64{ct, hdr}]; !ok {
				t.Errorf("grid point (%v °C, %v Pa) was not twin-evaluated", ct, hdr)
			}
		}
	}
	// The plant's own setpoints, applied as a candidate override, are
	// the baseline operating point.
	if own, ok := seen[[2]float64{22, 140e3}]; ok && own != baseline {
		t.Errorf("candidate at the plant's setpoints: aux %v MW, baseline %v MW", own, baseline)
	}
	if res.Best == nil || !res.Best.Feasible {
		t.Fatalf("no feasible best: %+v", res.Best)
	}
	if got := res.Best.Objectives["aux_mw"]; got >= baseline {
		t.Errorf("best aux %v MW does not beat the baseline %v MW", got, baseline)
	}
	t.Logf("baseline %.12f MW, best %.12f MW at %v", baseline, res.Best.Objectives["aux_mw"], res.Best.Params)
}

// TestStudyHTTPRejectsInvalidBase: a base scenario no run can complete
// — a zero horizon, or a partition list that does not match the spec —
// refuses the study with 400 at submission, as POST /api/sweeps refuses
// the same scenario, instead of accepting a study that then fails.
func TestStudyHTTPRejectsInvalidBase(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	study := `{"knobs":[{"name":"scenario.wetbulb_c","min":1,"max":10,"step":1}],"population":4,"generations":1}`
	for name, tc := range map[string]struct{ base, want string }{
		"zero horizon": {`{"workload":"idle","horizon_sec":0}`, "horizon_sec"},
		"three partitions on frontier": {
			`{"workload":"idle","horizon_sec":900,"partitions":[{"workload":"idle"},{"workload":"idle"},{"workload":"idle"}]}`,
			"partition"},
	} {
		body := `{"base":` + tc.base + `,"study":` + study + `}`
		resp, err := http.Post(srv.URL+"/api/optimize", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, tc.want) {
			t.Errorf("%s: status %d (%q), want 400 naming %s", name, resp.StatusCode, eb.Error, tc.want)
		}
	}
	if n := len(svc.ListStudies()); n != 0 {
		t.Fatalf("%d studies registered after refused submissions, want 0", n)
	}
}

// TestStudyHTTPRejectsOversizedStudy: a population no generation could
// ever fit through admission, or a knob range whose width overflows
// float64, is refused with 400 at submission, and the service keeps
// serving. Unbounded, the population used to panic the study goroutine
// (makeslice) and take the process down.
func TestStudyHTTPRejectsOversizedStudy(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for name, study := range map[string]string{
		"oversized population":   `{"knobs":[{"name":"scenario.wetbulb_c","min":1,"max":10,"step":1}],"population":9223372036854775807}`,
		"overflowing knob range": `{"knobs":[{"name":"scenario.wetbulb_c","min":-1e308,"max":1e308}],"population":8}`,
	} {
		body := `{"base":{"name":"synth","workload":"synthetic","horizon_sec":900,"tick_sec":15},"study":` + study + `}`
		resp, err := http.Post(srv.URL+"/api/optimize", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/api/optimize")
	if err != nil {
		t.Fatalf("service stopped serving: %v", err)
	}
	var list struct {
		Studies []StudyStatus `json:"studies"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("list after rejection: %d %v", resp.StatusCode, err)
	}
	if len(list.Studies) != 0 {
		t.Fatalf("rejected study was registered: %+v", list.Studies)
	}
}
