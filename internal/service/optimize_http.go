package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"exadigit/internal/config"
	"exadigit/internal/optimize"
)

// HTTP face of the co-design optimizer:
//
//	POST   /api/optimize              submit a study (OptimizeRequest JSON)
//	GET    /api/optimize              list studies (summaries)
//	GET    /api/optimize/{id}         one study's status (latest progress)
//	GET    /api/optimize/{id}/result  the completed StudyResult
//	GET    /api/optimize/{id}/stream  NDJSON: per-generation progress, then the result
//	POST   /api/optimize/{id}/cancel  cancel a running study

// OptimizeRequest is the POST /api/optimize body.
type OptimizeRequest struct {
	Name string `json:"name,omitempty"`
	// SpecName selects a built-in spec ("frontier" default,
	// "setonix-like"); Spec overrides it with a full inline system spec.
	SpecName string             `json:"spec_name,omitempty"`
	Spec     *config.SystemSpec `json:"spec,omitempty"`
	// Base is the operating point the study searches around and reports
	// its baseline from; omitted → a cooled one-day HPL run.
	Base *ScenarioRequest `json:"base,omitempty"`
	// Study is the search configuration: knobs, objectives, constraints,
	// population, generations, surrogate/UQ settings.
	Study optimize.StudySpec `json:"study"`
	// WarmStart loads the persisted surrogate fit for this (spec, search
	// space) from the durable store, when one exists.
	WarmStart bool `json:"warm_start,omitempty"`
}

// OptimizeResponse acknowledges a study submission.
type OptimizeResponse struct {
	ID          string `json:"id"`
	SpecHash    string `json:"spec_hash"`
	WarmStarted bool   `json:"warm_started,omitempty"`
}

// optimizeStreamEntry is one NDJSON line on the study stream: a
// per-generation progress snapshot while running, then a final line
// carrying the terminal state (and the result when the study completed).
type optimizeStreamEntry struct {
	Progress *optimize.Progress    `json:"progress,omitempty"`
	State    StudyState            `json:"state,omitempty"`
	Error    string                `json:"error,omitempty"`
	Result   *optimize.StudyResult `json:"result,omitempty"`
}

// defaultOptimizeBase is the base scenario studies search around when
// the request omits one: a cooled one-day HPL run at the default tick.
func defaultOptimizeBase() ScenarioRequest {
	return ScenarioRequest{
		Name:       "optimize-base",
		Workload:   "hpl",
		HorizonSec: 86400,
		TickSec:    15,
		Cooling:    true,
	}
}

func (s *Service) handleOptimizeSubmit(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	spec, err := specFor(req.SpecName, req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	baseReq := req.Base
	if baseReq == nil {
		def := defaultOptimizeBase()
		baseReq = &def
	}
	st, err := s.SubmitStudy(spec, baseReq.Scenario(), req.Study, StudyOptions{
		Name:      req.Name,
		WarmStart: req.WarmStart,
	})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	status := st.Status()
	writeJSON(w, http.StatusAccepted, OptimizeResponse{
		ID: st.ID(), SpecHash: status.SpecHash, WarmStarted: status.WarmStarted,
	})
}

func (s *Service) handleOptimizeList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"studies": s.ListStudies()})
}

func (s *Service) studyFor(w http.ResponseWriter, r *http.Request) (*Study, bool) {
	id := r.PathValue("id")
	st, ok := s.StudyByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no study %q", id))
		return nil, false
	}
	return st, true
}

func (s *Service) handleOptimizeStatus(w http.ResponseWriter, r *http.Request) {
	if st, ok := s.studyFor(w, r); ok {
		writeJSON(w, http.StatusOK, st.Status())
	}
}

func (s *Service) handleOptimizeCancel(w http.ResponseWriter, r *http.Request) {
	if st, ok := s.studyFor(w, r); ok {
		st.Cancel()
		writeJSON(w, http.StatusOK, st.Status())
	}
}

func (s *Service) handleOptimizeResult(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyFor(w, r)
	if !ok {
		return
	}
	status := st.Status()
	switch status.State {
	case StudyDone:
		writeJSON(w, http.StatusOK, st.Result())
	case StudyRunning:
		writeError(w, http.StatusConflict, fmt.Errorf("study %q still running", st.ID()))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("study %q %s: %s", st.ID(), status.State, status.Error))
	}
}

// handleOptimizeStream writes one NDJSON progress line per completed
// generation, flushing after each, then a terminal line with the final
// state (and the StudyResult when the study completed) — the live feed
// a CLI tails while the optimizer works.
func (s *Service) handleOptimizeStream(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	sent := 0
	for {
		changed := st.changed()
		// Checked before the log snapshot: a finished study's log is
		// complete, so the last pass sends every progress line.
		over := finished(st)
		progress := st.ProgressLog()
		for ; sent < len(progress); sent++ {
			if err := enc.Encode(optimizeStreamEntry{Progress: &progress[sent]}); err != nil {
				return
			}
		}
		if over {
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-changed:
		case <-st.Done():
		case <-r.Context().Done():
			return
		}
	}
	status := st.Status()
	_ = enc.Encode(optimizeStreamEntry{
		State:  status.State,
		Error:  status.Error,
		Result: st.Result(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}
