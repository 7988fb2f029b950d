package viz

import (
	"encoding/json"
	"net/http"
	"sort"

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

// Server is the REST API backend (the dashboard's data source): the
// read-only view of one twin's most recent run. What-if experiments are
// sweeps, served by the sweep service alongside it.
type Server struct {
	src     Source
	logf    httpmw.Logf
	metrics *httpmw.Metrics
}

// NewServer builds a Server over the source.
func NewServer(src Source) *Server {
	return &Server{src: src, metrics: &httpmw.Metrics{}}
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
	return httpmw.Wrap(mux, s.logf, s.metrics)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
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
