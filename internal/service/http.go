package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/httpmw"
	"exadigit/internal/job"
	"exadigit/internal/raps"
)

// This file is the HTTP face of the sweep service — the REST backend of
// the paper's §III-B6 deployment, where what-if experiments are
// launched against a long-running twin and recalled later:
//
//	POST   /api/sweeps              submit a sweep (SubmitRequest JSON)
//	GET    /api/sweeps              list sweeps (summaries)
//	GET    /api/sweeps/{id}         one sweep's full status
//	GET    /api/sweeps/{id}/results completed results (reports)
//	GET    /api/sweeps/{id}/stream  NDJSON: results streamed as they complete
//	POST   /api/sweeps/{id}/cancel  cancel queued work
//
// Replay-dataset scenarios are not accepted over the wire: datasets are
// submitted programmatically via Service.Submit, so a replay scenario
// arriving here has none and core.CompiledSpec.Check refuses it with a
// 400, like every other scenario no run could complete.

// ScenarioRequest is the wire form of one scenario.
type ScenarioRequest struct {
	Name       string  `json:"name,omitempty"`
	Workload   string  `json:"workload"`
	HorizonSec float64 `json:"horizon_sec"`
	TickSec    float64 `json:"tick_sec"`
	Policy     string  `json:"policy,omitempty"`
	Cooling    bool    `json:"cooling,omitempty"`
	// CoolingSpec overrides the system spec's plant for this scenario
	// (preset name or AutoCSM design quantities); implies cooling. It is
	// validated at this boundary — non-positive flows, CDU counts, or an
	// unknown preset are a 400, not a worker failure.
	CoolingSpec *config.CoolingSpec `json:"cooling_spec,omitempty"`
	PowerMode   string              `json:"power_mode,omitempty"`
	// Partitions configures each partition's workload individually for
	// multi-partition specs (Setonix-style, §V): one entry per spec
	// partition, each with its own workload kind, generator, benchmark
	// wall time, and job cap. Omitted → the scenario-level workload is
	// replicated onto every partition.
	Partitions []core.PartitionScenario `json:"partitions,omitempty"`
	// Generator tunes synthetic workloads; omitted → defaults.
	Generator        *job.GeneratorConfig `json:"generator,omitempty"`
	BenchmarkWallSec float64              `json:"benchmark_wall_sec"`
	WetBulbC         float64              `json:"wetbulb_c"`
	WeatherStart     time.Time            `json:"weather_start,omitempty"`
	WeatherSeed      int64                `json:"weather_seed,omitempty"`
	Engine           string               `json:"engine,omitempty"`
	// NoExport and NoHistory default to true over HTTP: sweep results
	// carry reports, not dense telemetry exports or sample series. Set
	// either to false explicitly to retain the data in the server-side
	// result (recallable via Service.Sweep(id).Results()).
	NoExport  *bool `json:"no_export,omitempty"`
	NoHistory *bool `json:"no_history,omitempty"`
}

// Scenario converts the wire form to a core scenario.
func (r *ScenarioRequest) Scenario() core.Scenario {
	sc := core.Scenario{
		Name:             r.Name,
		Workload:         core.WorkloadKind(r.Workload),
		HorizonSec:       r.HorizonSec,
		TickSec:          r.TickSec,
		Policy:           r.Policy,
		Cooling:          r.Cooling || r.CoolingSpec != nil,
		CoolingSpec:      r.CoolingSpec,
		PowerMode:        r.PowerMode,
		Partitions:       r.Partitions,
		BenchmarkWallSec: r.BenchmarkWallSec,
		WetBulbC:         r.WetBulbC,
		WeatherStart:     r.WeatherStart,
		WeatherSeed:      r.WeatherSeed,
		Engine:           r.Engine,
		NoExport:         true,
		NoHistory:        true,
	}
	if r.Generator != nil {
		sc.Generator = *r.Generator
	}
	if r.NoExport != nil {
		sc.NoExport = *r.NoExport
	}
	if r.NoHistory != nil {
		sc.NoHistory = *r.NoHistory
	}
	return sc
}

// SubmitRequest is the POST /api/sweeps body.
type SubmitRequest struct {
	Name string `json:"name,omitempty"`
	// SpecName selects a built-in spec ("frontier" default,
	// "setonix-like"); Spec overrides it with a full inline system spec.
	SpecName      string             `json:"spec_name,omitempty"`
	Spec          *config.SystemSpec `json:"spec,omitempty"`
	MaxConcurrent int                `json:"max_concurrent,omitempty"`
	// TimeoutSec bounds each scenario attempt's wall time for this sweep
	// (0 → the server's -scenario-timeout default). Overrunning attempts
	// are retried; a scenario that keeps overrunning is reported failed,
	// not left running forever.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// MaxAttempts lowers the server's retry budget for this sweep; a
	// value above the server's own (-max-attempts) is a 400.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// SweepKey is the idempotency key (the Idempotency-Key header takes
	// precedence): a resubmission carrying a key already bound to a
	// sweep — including one recovered from the journal after a server
	// restart — returns that sweep's original id instead of recomputing.
	SweepKey string `json:"sweep_key,omitempty"`
	// Ephemeral opts this sweep out of the durable journal: it will not
	// be re-adopted after a restart. Set by cluster coordinators on shard
	// dispatches — the shard is the coordinator's re-dispatchable work
	// and the coordinator's own journal is the durable record.
	Ephemeral bool              `json:"ephemeral,omitempty"`
	Scenarios []ScenarioRequest `json:"scenarios"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	ID             string   `json:"id"`
	SpecHash       string   `json:"spec_hash"`
	ScenarioHashes []string `json:"scenario_hashes"`
	// Deduplicated marks a response serving an existing sweep matched by
	// idempotency key (HTTP 200, not 202).
	Deduplicated bool `json:"deduplicated,omitempty"`
}

// ResultEntry is one completed scenario on the results/stream endpoints.
type ResultEntry struct {
	Index    int           `json:"index"`
	Name     string        `json:"name"`
	State    ScenarioState `json:"state"`
	CacheHit bool          `json:"cache_hit,omitempty"`
	WallSec  float64       `json:"wall_sec,omitempty"`
	Error    string        `json:"error,omitempty"`
	Report   *raps.Report  `json:"report,omitempty"`
}

// Handler returns the HTTP handler exposing the sweep API, wrapped in
// the shared middleware stack (panic recovery, metrics, optional
// logging — the same layer the viz dashboard uses).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /api/sweeps", s.handleList)
	mux.Handle("GET /api/sweeps/trace", s.tracer.Handler())
	mux.HandleFunc("GET /api/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/sweeps/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /api/sweeps/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/optimize", s.handleOptimizeSubmit)
	mux.HandleFunc("GET /api/optimize", s.handleOptimizeList)
	mux.HandleFunc("GET /api/optimize/{id}", s.handleOptimizeStatus)
	mux.HandleFunc("GET /api/optimize/{id}/result", s.handleOptimizeResult)
	mux.HandleFunc("GET /api/optimize/{id}/stream", s.handleOptimizeStream)
	mux.HandleFunc("POST /api/optimize/{id}/cancel", s.handleOptimizeCancel)
	return httpmw.Wrap(mux, s.logf, s.metrics)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the JSON error envelope. Spec validation and AutoCSM
// feasibility failures carry the structured field/constraint/suggestion
// triple (config.FieldError) so clients can highlight the offending
// field instead of parsing sizing internals out of a message string.
type errorBody struct {
	Error      string `json:"error"`
	Field      string `json:"field,omitempty"`
	Constraint string `json:"constraint,omitempty"`
	Suggestion string `json:"suggestion,omitempty"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	var fe *config.FieldError
	if errors.As(err, &fe) {
		body.Field = fe.Field
		body.Constraint = fe.Constraint
		body.Suggestion = fe.Suggestion
	}
	writeJSON(w, code, body)
}

// maxRequestBytes bounds the JSON body of a sweep or study submission.
// A scenario request is a few hundred bytes of structured fields, so the
// bound still admits tens of thousands of scenarios in one submission.
const maxRequestBytes = 8 << 20

// decodeRequest decodes r's JSON body into v, reading at most
// maxRequestBytes of it. On failure it answers 413 past the bound, 400
// otherwise, and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", maxRequestBytes))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	return false
}

// specFor resolves a submission's system spec: the inline spec when
// one is given, else the named built-in ("frontier" by default).
func specFor(name string, inline *config.SystemSpec) (config.SystemSpec, error) {
	switch {
	case inline != nil:
		return *inline, nil
	case name == "" || name == "frontier":
		return config.Frontier(), nil
	case name == "setonix-like":
		return config.SetonixLike(), nil
	}
	return config.SystemSpec{}, fmt.Errorf("unknown spec_name %q", name)
}

// writeSubmitError answers a refused sweep or study submission.
func (s *Service) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		// Backpressure, not failure: tell the client when the queue
		// is likely to have room again.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		// Draining, not gone: the hint is the remaining drain window,
		// after which a restarted instance may be accepting again.
		w.Header().Set("Retry-After", strconv.Itoa(s.closedRetryAfterSec()))
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	spec, err := specFor(req.SpecName, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	scenarios := make([]core.Scenario, len(req.Scenarios))
	for i := range req.Scenarios {
		scenarios[i] = req.Scenarios[i].Scenario()
	}
	key := r.Header.Get("Idempotency-Key")
	if key == "" {
		key = req.SweepKey
	}
	sw, existing, err := s.SubmitIdempotent(spec, scenarios, SweepOptions{
		Name:            req.Name,
		MaxConcurrent:   req.MaxConcurrent,
		ScenarioTimeout: time.Duration(req.TimeoutSec * float64(time.Second)),
		MaxAttempts:     req.MaxAttempts,
		Key:             key,
		Ephemeral:       req.Ephemeral,
	})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	code := http.StatusAccepted
	if existing {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitResponse{
		ID: sw.ID(), SpecHash: sw.SpecHash(), ScenarioHashes: sw.ScenarioHashes(),
		Deduplicated: existing,
	})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": s.List()})
}

// lookup resolves the request's {id} in jobs, answering 404 when it
// names no kind of job there.
func lookup[T tracked](w http.ResponseWriter, r *http.Request, jobs *registry[T], kind string) (T, bool) {
	id := r.PathValue("id")
	job, ok := jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no %s %q", kind, id))
	}
	return job, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := lookup(w, r, s.sweeps, "sweep"); ok {
		writeJSON(w, http.StatusOK, sw.Status())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	if sw, ok := lookup(w, r, s.sweeps, "sweep"); ok {
		sw.Cancel()
		writeJSON(w, http.StatusOK, sw.Status())
	}
}

func resultEntry(st ScenarioStatus, res *core.Result) ResultEntry {
	e := ResultEntry{
		Index:    st.Index,
		Name:     st.Name,
		State:    st.State,
		CacheHit: st.CacheHit,
		WallSec:  st.WallSec,
		Error:    st.Error,
	}
	if res != nil {
		e.Report = res.Report
	}
	return e
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := lookup(w, r, s.sweeps, "sweep")
	if !ok {
		return
	}
	st := sw.Status()
	results := sw.Results()
	out := make([]ResultEntry, 0, len(st.Scenarios))
	for i, sc := range st.Scenarios {
		if sc.Terminal() {
			out = append(out, resultEntry(sc, results[i]))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStream writes one NDJSON ResultEntry per scenario as each
// reaches a terminal state, flushing after every pass, and returns once
// the sweep finishes or the client disconnects — the live feed a
// dashboard or CLI tails while a sweep works through the pool.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	sw, ok := lookup(w, r, s.sweeps, "sweep")
	if !ok {
		return
	}
	sent := make([]bool, len(sw.hashes))
	streamNDJSON(w, r, &sw.lifecycle, func(enc *json.Encoder) (bool, error) {
		st := sw.Status()
		results := sw.Results()
		for i, sc := range st.Scenarios {
			if sent[i] || !sc.Terminal() {
				continue
			}
			if err := enc.Encode(resultEntry(sc, results[i])); err != nil {
				return false, err
			}
			sent[i] = true
		}
		return st.Finished, nil
	})
}

// streamNDJSON is the loop behind both NDJSON streams: each pass encodes
// the job's new lines and is flushed, then the loop waits for the job's
// next change, until a pass reports the job over, a write fails, or the
// client disconnects.
func streamNDJSON(w http.ResponseWriter, r *http.Request, job *lifecycle, pass func(*json.Encoder) (over bool, err error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		changed := job.changed()
		over, err := pass(enc)
		if err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if over {
			return
		}
		select {
		case <-changed:
		case <-job.done:
		case <-r.Context().Done():
			return
		}
	}
}
