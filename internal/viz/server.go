package viz

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"exadigit/internal/config"
	"exadigit/internal/httpmw"
	"exadigit/internal/obs"
)

// Status is the JSON document served at /api/status.
type Status struct {
	TimeSec     float64 `json:"time_sec"`
	PowerMW     float64 `json:"power_mw"`
	LossMW      float64 `json:"loss_mw"`
	Utilization float64 `json:"utilization"`
	PUE         float64 `json:"pue"`
	JobsRunning int     `json:"jobs_running"`
	JobsPending int     `json:"jobs_pending"`
	// PartPowerMW is the per-partition power split of a multi-partition
	// system, in spec partition order; omitted for single-partition
	// twins.
	PartPowerMW []float64 `json:"part_power_mw,omitempty"`
}

// SeriesPoint is one sample of the /api/series document.
type SeriesPoint struct {
	TimeSec float64 `json:"time_sec"`
	PowerMW float64 `json:"power_mw"`
	PUE     float64 `json:"pue"`
	Util    float64 `json:"utilization"`
	// PartMW is the per-partition power series of a multi-partition
	// system; omitted for single-partition twins.
	PartMW []float64 `json:"part_mw,omitempty"`
}

// Source supplies live data to the HTTP API. The core twin implements it.
type Source interface {
	// Status returns the current system status.
	Status() Status
	// Series returns the recorded history.
	Series() []SeriesPoint
	// CoolingOutputs returns the named 317-channel cooling snapshot, or
	// nil when the cooling model is not coupled.
	CoolingOutputs() map[string]float64
}

// ExperimentRunner launches a named what-if scenario with parameters and
// returns a JSON-serializable result. It stands in for the paper's
// Kubernetes-pod-per-experiment deployment (§III-B6). The context is the
// request's: a client disconnect aborts the experiment mid-run.
type ExperimentRunner func(ctx context.Context, params map[string]string) (any, error)

// Server is the REST API backend (the dashboard's data source).
type Server struct {
	src     Source
	runner  ExperimentRunner
	logf    httpmw.Logf
	metrics *httpmw.Metrics

	mu      sync.Mutex
	results map[int]any
	nextID  int
}

// NewServer builds a Server over the source. runner may be nil to
// disable /api/run.
func NewServer(src Source, runner ExperimentRunner) *Server {
	return &Server{
		src: src, runner: runner,
		metrics: &httpmw.Metrics{},
		results: make(map[int]any), nextID: 1,
	}
}

// SetLogf enables request logging through the shared middleware stack
// (log.Printf-shaped; nil keeps logging off). Call before Handler.
func (s *Server) SetLogf(logf httpmw.Logf) { s.logf = logf }

// Metrics exposes the middleware counters.
func (s *Server) Metrics() *httpmw.Metrics { return s.metrics }

// RegisterMetrics attaches the dashboard's HTTP counters to a metrics
// registry under server="dashboard" — the same families the sweep
// service's stack reports into, each stack with its own label.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	s.metrics.Register(reg, "dashboard")
}

// Handler returns the HTTP handler exposing the API, wrapped in the
// shared middleware stack (panic recovery, metrics, optional logging).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/status", s.handleStatus)
	mux.HandleFunc("GET /api/series", s.handleSeries)
	mux.HandleFunc("GET /api/cooling", s.handleCooling)
	mux.HandleFunc("POST /api/run", s.handleRun)
	mux.HandleFunc("GET /api/experiments", s.handleExperiments)
	return httpmw.Wrap(mux, s.logf, s.metrics)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRunError renders a what-if launch failure. Spec validation and
// AutoCSM feasibility errors carry a structured field/constraint/
// suggestion triple (config.FieldError); the dashboard surfaces it as
// JSON fields instead of a free-text message with sizing internals.
func writeRunError(w http.ResponseWriter, err error) {
	body := map[string]string{"error": err.Error()}
	var fe *config.FieldError
	if errors.As(err, &fe) {
		body["field"] = fe.Field
		body["constraint"] = fe.Constraint
		if fe.Suggestion != "" {
			body["suggestion"] = fe.Suggestion
		}
	}
	writeJSON(w, http.StatusBadRequest, body)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.src.Status())
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.src.Series())
}

func (s *Server) handleCooling(w http.ResponseWriter, r *http.Request) {
	out := s.src.CoolingOutputs()
	if out == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "cooling model not coupled"})
		return
	}
	// Stable key order for reproducible payloads.
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]map[string]float64, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, map[string]float64{k: out[k]})
	}
	writeJSON(w, http.StatusOK, ordered)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.runner == nil {
		writeJSON(w, http.StatusNotImplemented, map[string]string{"error": "no experiment runner configured"})
		return
	}
	params := map[string]string{}
	if err := r.ParseForm(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	for k, vs := range r.Form {
		if len(vs) > 0 {
			params[k] = vs[0]
		}
	}
	result, err := s.runner(r.Context(), params)
	if err != nil {
		writeRunError(w, err)
		return
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.results[id] = result
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "result": result})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]int, 0, len(s.results))
	for id := range s.results {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]map[string]any, 0, len(ids))
	for _, id := range ids {
		out = append(out, map[string]any{"id": id, "result": s.results[id]})
	}
	writeJSON(w, http.StatusOK, out)
}

// Result fetches a stored experiment result by id.
func (s *Server) Result(id int) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.results[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("viz: no experiment %d", id)
}
