package service

import (
	"context"
	cryptorand "crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/optimize"
	"exadigit/internal/surrogate"
)

// This file wires the closed-loop co-design optimizer (internal/optimize)
// into the sweep service: each study's outer loop evaluates candidate
// batches as ordinary sweeps — inheriting the result cache, single-
// flight, retries, and -workers remote dispatch — while the inner loop
// screens candidates on the study's online-trained surrogate. Completed
// studies persist their surrogate fit as a durable-store blob keyed by
// (spec hash, search-space signature), so a restarted service can
// warm-start the next study over the same space.

// StudyState is the lifecycle of one optimization study.
type StudyState string

// Study states.
const (
	StudyRunning   StudyState = "running"
	StudyDone      StudyState = "done"
	StudyFailed    StudyState = "failed"
	StudyCancelled StudyState = "cancelled"
)

// StudyOptions parameterizes one study submission.
type StudyOptions struct {
	// Name labels the study in listings.
	Name string
	// WarmStart loads a previously persisted surrogate fit for the same
	// (spec, knobs, targets) from the durable store, when one exists.
	// Off by default: a warm model changes which candidates the early
	// generations promote, so reproducing a cold study bit-for-bit
	// requires opting out.
	WarmStart bool
}

// StudyStatus is a point-in-time snapshot of a study.
type StudyStatus struct {
	ID          string     `json:"id"`
	Name        string     `json:"name,omitempty"`
	SpecHash    string     `json:"spec_hash"`
	CreatedAt   time.Time  `json:"created_at"`
	State       StudyState `json:"state"`
	Error       string     `json:"error,omitempty"`
	WarmStarted bool       `json:"warm_started,omitempty"`
	// Progress is the latest per-generation snapshot (nil until the
	// first generation completes).
	Progress *optimize.Progress `json:"progress,omitempty"`
}

// Study is one running or finished optimization study.
type Study struct {
	lifecycle
	specHash    string
	warmStarted bool

	// Guarded by lifecycle.mu.
	state    StudyState
	errMsg   string
	progress []optimize.Progress
	result   *optimize.StudyResult
}

func newStudyID() string {
	var b [4]byte
	_, _ = cryptorand.Read(b[:])
	return fmt.Sprintf("opt-%x-%x", time.Now().UnixNano(), b)
}

// Status snapshots the study.
func (st *Study) Status() StudyStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := StudyStatus{
		ID:          st.id,
		Name:        st.name,
		SpecHash:    st.specHash,
		CreatedAt:   st.createdAt,
		State:       st.state,
		Error:       st.errMsg,
		WarmStarted: st.warmStarted,
	}
	if n := len(st.progress); n > 0 {
		p := st.progress[n-1]
		out.Progress = &p
	}
	return out
}

// Result returns the completed study result (nil until State is
// StudyDone).
func (st *Study) Result() *optimize.StudyResult {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.result
}

// ProgressLog snapshots every per-generation progress entry emitted so
// far, oldest first.
func (st *Study) ProgressLog() []optimize.Progress {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]optimize.Progress(nil), st.progress...)
}

// studyMetrics are the optimizer's instruments, shared by every study.
// All three evaluation tiers are resolved at registration, so the
// exposition carries every series from the first scrape.
type studyMetrics struct {
	twin, cached, screened, fallbacks, generations *obs.Counter
	frontier                                       *obs.Gauge
}

func newStudyMetrics(reg *obs.Registry) studyMetrics {
	evals := reg.CounterVec("exadigit_optimize_evaluations_total",
		"Optimizer candidate evaluations by tier: full twin, served from a cache tier, or screened on the surrogate alone.",
		"tier")
	return studyMetrics{
		twin:     evals.With("twin"),
		cached:   evals.With("cached"),
		screened: evals.With("surrogate"),
		fallbacks: reg.Counter("exadigit_optimize_fallbacks_total",
			"Candidates the surrogate wanted to screen but the UQ gate sent to the full twin instead."),
		generations: reg.Counter("exadigit_optimize_generations_total",
			"Optimizer generations completed across all studies."),
		frontier: reg.Gauge("exadigit_optimize_frontier_size",
			"Pareto-frontier size of the most recently progressed study."),
	}
}

// sweepEvaluator implements optimize.Evaluator by submitting each
// candidate batch as one ephemeral sweep — evaluations ride the result
// cache, single-flight, retries, and remote dispatch exactly like any
// hand-submitted sweep. Ephemeral because the study (not the journal)
// owns re-driving the search after a crash: a re-run study re-requests
// the same scenarios and the durable result store serves them warm.
type sweepEvaluator struct {
	svc      *Service
	spec     config.SystemSpec
	compiled *core.CompiledSpec
	studyID  string
}

// Evaluate runs one candidate batch. A candidate the compiled spec's
// Check refuses (an infeasible AutoCSM sizing, say) becomes that
// candidate's infeasibility verdict, not a study-fatal error: Submit
// fails a whole sweep on one refused scenario.
func (e *sweepEvaluator) Evaluate(ctx context.Context, gen int, scenarios []core.Scenario) ([]optimize.Outcome, error) {
	outs := make([]optimize.Outcome, len(scenarios))
	valid := make([]int, 0, len(scenarios))
	batch := make([]core.Scenario, 0, len(scenarios))
	for i := range scenarios {
		if err := e.compiled.Check(&scenarios[i]); err != nil {
			outs[i].Err = err.Error()
			continue
		}
		valid = append(valid, i)
		batch = append(batch, scenarios[i])
	}
	if len(batch) == 0 {
		return outs, nil
	}
	name := fmt.Sprintf("%s gen %d", e.studyID, gen)
	if gen < 0 {
		name = e.studyID + " baseline"
	}
	sw, err := e.svc.Submit(e.spec, batch, SweepOptions{Name: name, Ephemeral: true})
	if err != nil {
		return nil, err
	}
	if err := sw.Wait(ctx); err != nil {
		sw.Cancel()
		<-sw.Done()
		return nil, err
	}
	status := sw.Status()
	results := sw.Results()
	for bi, i := range valid {
		sst := status.Scenarios[bi]
		outs[i].CacheHit = sst.CacheHit || sst.State == StateCached
		if results[bi] != nil && results[bi].Report != nil {
			outs[i].Report = results[bi].Report
		} else {
			msg := sst.Error
			if msg == "" {
				msg = fmt.Sprintf("scenario %s", sst.State)
			}
			outs[i].Err = msg
		}
	}
	return outs, nil
}

// optimizeModelBlobName derives the durable-store blob name a study's
// surrogate persists under: the spec hash plus a content hash of the
// search-space signature (knobs, objectives, constraints), so a warm
// start only ever loads a fit whose feature space and targets match.
func optimizeModelBlobName(specHash string, study optimize.StudySpec) string {
	sig := struct {
		Knobs       []optimize.Knob       `json:"knobs"`
		Objectives  []optimize.Objective  `json:"objectives"`
		Constraints []optimize.Constraint `json:"constraints"`
	}{study.Knobs, study.Objectives, study.Constraints}
	b, _ := json.Marshal(sig)
	sum := sha256.Sum256(b)
	return "optimize-" + specHash[:16] + "-" + hex.EncodeToString(sum[:8]) + ".json"
}

// SubmitStudy registers an optimization study and starts working it
// asynchronously: the driver's generations run as ephemeral sweeps
// through the service's pool. The returned Study is immediately
// observable via Status, ProgressLog, Result, and Done.
func (s *Service) SubmitStudy(spec config.SystemSpec, base core.Scenario, study optimize.StudySpec, opts StudyOptions) (*Study, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	compiled, err := s.compiledFor(spec)
	if err != nil {
		return nil, err
	}
	// Every candidate derives from the base, so a base no run can
	// complete refuses the study instead of failing it later.
	if err := compiled.Check(&base); err != nil {
		return nil, fmt.Errorf("service: study base: %w", err)
	}
	specHash := compiled.Hash()

	ctx, cancel := context.WithCancel(context.Background())
	st := &Study{lifecycle: newLifecycle(opts.Name, cancel), specHash: specHash, state: StudyRunning}
	st.id = newStudyID()

	// Warm start: load the persisted surrogate fit for this exact
	// (spec, search space) when asked. A missing or unreadable blob is
	// a cold start, never an error.
	var warmModel *surrogate.Model
	if opts.WarmStart && s.store != nil && !study.DisableSurrogate {
		if data, err := s.store.GetBlob(optimizeModelBlobName(specHash, study)); err == nil {
			m := &surrogate.Model{}
			if jerr := json.Unmarshal(data, m); jerr == nil {
				warmModel = m
				st.warmStarted = true
			} else {
				s.printf("service: study %s: warm-start blob unreadable: %v", st.id, jerr)
			}
		}
	}

	ev := &sweepEvaluator{svc: s, spec: spec, compiled: compiled, studyID: st.id}
	hooks := optimize.Hooks{
		OnTwinEval: func(cached bool) {
			if cached {
				s.study.cached.Inc()
			} else {
				s.study.twin.Inc()
			}
		},
		OnScreened:   s.study.screened.Inc,
		OnFallback:   s.study.fallbacks.Inc,
		OnGeneration: s.study.generations.Inc,
		OnProgress: func(p optimize.Progress) {
			s.study.frontier.Set(float64(p.FrontierSize))
			st.update(func() { st.progress = append(st.progress, p) })
		},
	}
	drv, err := optimize.NewDriver(study, base, spec.Cooling, ev, hooks, warmModel)
	if err != nil {
		cancel()
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	s.studies.add(st, "") // study ids are time + random suffix, never taken
	s.mu.Unlock()

	go s.runStudy(ctx, st, drv, study)
	return st, nil
}

// runStudy drives one study to a terminal state and persists the
// trained surrogate.
func (s *Service) runStudy(ctx context.Context, st *Study, drv *optimize.Driver, study optimize.StudySpec) {
	defer st.cancel()
	defer close(st.done)
	res, err := drv.Run(ctx)
	if err != nil {
		state := StudyFailed
		if errors.Is(err, context.Canceled) {
			state = StudyCancelled
		}
		st.update(func() {
			st.state = state
			st.errMsg = err.Error()
		})
		return
	}
	if res.Model != nil && s.store != nil {
		if data, merr := json.Marshal(res.Model); merr == nil {
			if perr := s.store.PutBlob(optimizeModelBlobName(st.specHash, study), data); perr != nil {
				s.printf("service: study %s: persist surrogate: %v", st.id, perr)
			}
		}
	}
	st.update(func() {
		st.state = StudyDone
		st.result = res
	})
}

// StudyByID resolves a study.
func (s *Service) StudyByID(id string) (*Study, bool) { return s.studies.get(id) }

// ListStudies snapshots every retained study in submission order.
func (s *Service) ListStudies() []StudyStatus {
	studies := s.studies.list()
	out := make([]StudyStatus, len(studies))
	for i, st := range studies {
		out[i] = st.Status()
	}
	return out
}
