// Package service turns the digital twin into a long-running
// scenario-sweep service — the paper's twin-as-a-service deployment
// (§III-B6), where the REST backend runs each what-if experiment as its
// own worker. A Service owns a bounded simulation worker pool, compiles
// each submitted SystemSpec once (power models + cooling FMU design,
// shared read-only by every scenario of every sweep against that spec),
// deduplicates work through a content-addressed result cache keyed by
// (spec hash, scenario hash), and exposes submit/status/cancel plus
// streaming results over HTTP (http.go).
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/fmu"
	"exadigit/internal/httpmw"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// Options configures a Service.
type Options struct {
	// Workers bounds concurrently running simulations across all sweeps
	// (0 → runtime.NumCPU()).
	Workers int
	// CacheCap bounds the number of cached scenario results; the oldest
	// completed entries are evicted first (0 → 1024).
	CacheCap int
	// CacheMaxBytes bounds the cache by approximate resident size —
	// the primary production bound, since results vary from a bare
	// report (~2 KB) to multi-day telemetry exports (megabytes). Each
	// result's size is estimated at insert; the oldest completed entries
	// are evicted until the total fits (0 → 256 MiB).
	CacheMaxBytes int64
	// MaxSweeps bounds how many finished sweeps are retained for status
	// and result recall; beyond it the oldest finished sweeps (and the
	// results they pin) are dropped so a long-running server's memory
	// stays bounded (0 → 256).
	MaxSweeps int
	// Store layers a durable on-disk result store under the in-memory
	// cache: lookups go memory → disk → compute (single-flight preserved
	// across all tiers), and every computed result is persisted, so a
	// killed-and-restarted service re-serves finished sweeps mostly warm.
	// nil keeps the service memory-only.
	Store *store.Store
	// ScenarioTimeout bounds each scenario attempt's wall time, enforced
	// via context so a runaway attempt aborts at its next tick boundary
	// (0 → no deadline); a lockstep group's attempt gets it times the
	// group size. Overridable per sweep.
	ScenarioTimeout time.Duration
	// MaxAttempts is how many times a failing scenario is tried before
	// its failure is reported as permanent. Panics, deadline overruns,
	// and simulation errors all retry with capped exponential backoff +
	// jitter; sweep cancellation never retries (0 → 3).
	MaxAttempts int
	// RetryBaseDelay and RetryMaxDelay shape the backoff between
	// attempts: base doubles per attempt, capped at max, ±50% jitter
	// (0 → 100ms and 5s).
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// MaxPending bounds the queued+running scenario count across all
	// sweeps — the admission control that makes an overloaded service
	// refuse work (Submit returns ErrSaturated, HTTP 429 + Retry-After)
	// instead of accepting sweeps it will never finish (0 → 4096).
	MaxPending int
	// Registry receives the service's metric families (cache, failure,
	// store, HTTP, model/FMU build counters) for the Prometheus /metrics
	// exposition. nil → a private registry, still reachable via
	// Service.Registry(). One Service per registry: the service owns the
	// exadigit_sweep_*/exadigit_cache_* family names it registers.
	Registry *obs.Registry
	// TraceCap bounds the per-scenario lifecycle span ring buffer served
	// at /api/sweeps/trace (0 → 1024).
	TraceCap int
	// Runner, when non-nil, replaces local simulation as the compute
	// tier: each cache-missing scenario is dispatched through it (the
	// cluster coordinator installs its worker client pool here). The
	// memory cache and single-flight still apply, and the durable store
	// is still read for hits — but computed results are NOT written back
	// (the runner's workers own persistence, so a shared store counts
	// each key's Put exactly once). Scenarios that cannot cross the wire
	// are rejected at Submit (replay datasets) or computed locally
	// (telemetry writers).
	Runner ScenarioRunner
	// LeaseTTL enables cross-node single-flight when several services
	// share one Store directory: before computing a key locally, the
	// service acquires a time-bounded lease on it and other nodes wait
	// for the holder's Put instead of duplicating the run. Size it for
	// the worst-case scenario compute; a holder renews every TTL/3, and
	// a dead holder's lease is stolen after expiry. 0 disables leasing.
	// Ignored when Runner is set — the coordinator must not lease before
	// remote dispatch, or it would deadlock against the worker that
	// leases the same key to compute it.
	LeaseTTL time.Duration
}

// Service is the sweep server. Create with New; it has no background
// goroutines of its own until sweeps are submitted.
type Service struct {
	workers  int
	slots    chan struct{} // global simulation-worker pool
	cache    *resultCache
	store    *store.Store   // durable tier; nil → memory-only
	runner   ScenarioRunner // remote compute tier; nil → local pool
	leaseTTL time.Duration  // cross-node single-flight; 0 → no leasing
	owner    string         // this service's lease identity
	logf     httpmw.Logf
	metrics  *httpmw.Metrics
	reg      *obs.Registry
	tracer   *obs.Tracer

	// Failure-domain configuration (service-wide defaults; sweeps may
	// override timeout and attempts).
	scenarioTimeout time.Duration
	maxAttempts     int
	retryBase       time.Duration
	retryMax        time.Duration
	maxPending      int

	// Cache and failure/recovery accounting. These registry instruments
	// ARE the counters — the /metrics exposition and the Summary
	// heartbeat both read them.
	hits       *obs.Counter
	misses     *obs.Counter
	retries    *obs.Counter
	panics     *obs.Counter
	timeouts   *obs.Counter
	rejections *obs.Counter
	scenRate   *obs.Gauge   // scenarios/sec of the most recently finished sweep
	pending    atomic.Int64 // queued+running scenarios across all sweeps (CAS admission)
	drain      drainRate    // completion-rate EWMA behind Retry-After
	drainBy    atomic.Int64 // shutdown drain deadline (unixnano; 0 = none) behind the 503 Retry-After

	// Journal-recovery and idempotency accounting (journal.go).
	recAdopted  *obs.Counter
	recFinished *obs.Counter
	requeued    *obs.Counter
	idemHits    *obs.Counter

	// Optimizer accounting (optimize.go).
	optEvals       *obs.CounterVec
	optFallbacks   *obs.Counter
	optGenerations *obs.Counter
	optFrontier    *obs.Gauge

	faults faultHolder // test-only chaos hook

	sweeps  *registry[*Sweep]
	studies *registry[*Study] // optimization studies (optimize.go)

	mu        sync.Mutex
	closed    bool
	specs     map[string]*core.CompiledSpec // spec hash → shared compiled spec
	specOrder []string                      // spec hashes, oldest first
}

// maxCompiledSpecs bounds the compiled-spec cache: HTTP accepts
// arbitrary inline specs, so distinct hashes must not pin models
// forever. Evicted specs keep working for sweeps that hold them; a
// re-submission simply recompiles.
const maxCompiledSpecs = 64

// New builds a Service.
func New(opts Options) *Service {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.CacheCap <= 0 {
		opts.CacheCap = 1024
	}
	if opts.CacheMaxBytes <= 0 {
		opts.CacheMaxBytes = 256 << 20
	}
	if opts.MaxSweeps <= 0 {
		opts.MaxSweeps = 256
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 100 * time.Millisecond
	}
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 5 * time.Second
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 4096
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{
		workers:         opts.Workers,
		slots:           make(chan struct{}, opts.Workers),
		cache:           newResultCache(opts.CacheCap, opts.CacheMaxBytes),
		store:           opts.Store,
		runner:          opts.Runner,
		leaseTTL:        opts.LeaseTTL,
		owner:           leaseOwnerID(),
		metrics:         &httpmw.Metrics{},
		reg:             reg,
		tracer:          obs.NewTracer(opts.TraceCap),
		scenarioTimeout: opts.ScenarioTimeout,
		maxAttempts:     opts.MaxAttempts,
		retryBase:       opts.RetryBaseDelay,
		retryMax:        opts.RetryMaxDelay,
		maxPending:      opts.MaxPending,
		sweeps:          newRegistry[*Sweep](opts.MaxSweeps),
		studies:         newRegistry[*Study](opts.MaxSweeps),
		specs:           make(map[string]*core.CompiledSpec),
	}
	s.registerMetrics()
	return s
}

// registerMetrics attaches every service counter to the registry. The
// hot-path counters (cache hits/misses, retries, panics, timeouts,
// rejections) are registry instruments written directly by the workers;
// owner-held state (pending, cache occupancy, store counters, global
// model-build counters) is collected at scrape time. The exposition is
// the only way the counters leave the process.
func (s *Service) registerMetrics() {
	reg := s.reg
	s.hits = reg.Counter("exadigit_cache_hits_total",
		"Scenarios served from a cache tier (memory or durable store).")
	s.misses = reg.Counter("exadigit_cache_misses_total",
		"Scenario simulation attempts started (cache misses).")
	s.retries = reg.Counter("exadigit_sweep_retries_total",
		"Scenario re-attempts after a transient failure.")
	s.panics = reg.Counter("exadigit_sweep_panics_recovered_total",
		"Worker panics recovered into per-scenario failures.")
	s.timeouts = reg.Counter("exadigit_sweep_timeouts_total",
		"Scenario attempts that exceeded their deadline.")
	s.rejections = reg.Counter("exadigit_sweep_queue_rejections_total",
		"Sweep submissions refused because the queue was saturated.")
	s.scenRate = reg.Gauge("exadigit_sweep_scenarios_per_second",
		"Throughput of the most recently finished sweep.")
	s.recAdopted = reg.Counter("exadigit_sweep_recovered_total",
		"Incomplete sweeps re-adopted from the durable journal at startup.")
	s.recFinished = reg.Counter("exadigit_sweep_recovered_finished_total",
		"Finished sweeps re-registered from the journal for status serving.")
	s.requeued = reg.Counter("exadigit_sweep_requeued_scenarios_total",
		"Scenarios re-enqueued by journal recovery (non-terminal at the crash).")
	s.idemHits = reg.Counter("exadigit_sweep_idempotent_hits_total",
		"Submissions deduplicated onto an existing sweep by idempotency key.")
	reg.GaugeFunc("exadigit_sweep_pending_scenarios",
		"Queued+running scenarios across all sweeps.",
		func() float64 { return float64(s.pending.Load()) })
	reg.GaugeFunc("exadigit_sweep_max_pending",
		"Admission bound on pending scenarios.",
		func() float64 { return float64(s.maxPending) })
	reg.GaugeFunc("exadigit_sweep_workers",
		"Simulation worker-pool capacity.",
		func() float64 { return float64(s.workers) })
	reg.CounterFunc("exadigit_cache_evictions_total",
		"Completed results dropped by the cache capacity bounds.",
		func() float64 {
			ev, _, _, _, _ := s.cache.stats()
			return float64(ev)
		})
	reg.GaugeFunc("exadigit_cache_entries",
		"Live result-cache entries.",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("exadigit_cache_capacity_entries",
		"Entry-count bound the cache evicts against.",
		func() float64 {
			_, _, capacity, _, _ := s.cache.stats()
			return float64(capacity)
		})
	reg.GaugeFunc("exadigit_cache_bytes",
		"Approximate resident size of cached results.",
		func() float64 {
			_, _, _, bytes, _ := s.cache.stats()
			return float64(bytes)
		})
	reg.GaugeFunc("exadigit_cache_capacity_bytes",
		"Byte bound the cache evicts against.",
		func() float64 {
			_, _, _, _, maxBytes := s.cache.stats()
			return float64(maxBytes)
		})
	reg.CounterFunc("exadigit_model_builds_total",
		"Partition power models built process-wide (spec compilations).",
		func() float64 { return float64(config.ModelBuilds()) })
	reg.CounterFunc("exadigit_fmu_description_builds_total",
		"Cooling FMU model descriptions built process-wide.",
		func() float64 { return float64(fmu.DescriptionBuilds()) })
	reg.CounterFunc("exadigit_trace_spans_total",
		"Scenario lifecycle spans emitted.",
		func() float64 { return float64(s.tracer.Total()) })
	if st := s.store; st != nil {
		reg.VecFunc(obs.KindCounter, "exadigit_store_ops_total",
			"Durable result-store operations by kind.",
			[]string{"op"},
			func(emit func([]string, float64)) {
				m := st.Stats()
				emit([]string{"hit"}, float64(m.Hits))
				emit([]string{"miss"}, float64(m.Misses))
				emit([]string{"put"}, float64(m.Puts))
				emit([]string{"put_error"}, float64(m.PutErrors))
				emit([]string{"corrupt_quarantined"}, float64(m.CorruptQuarantined))
				emit([]string{"quarantine_purged"}, float64(m.QuarantinePurged))
				emit([]string{"lease_acquired"}, float64(m.LeasesAcquired))
				emit([]string{"lease_wait"}, float64(m.LeaseWaits))
				emit([]string{"lease_steal"}, float64(m.LeaseSteals))
				emit([]string{"journal_create"}, float64(m.JournalCreates))
				emit([]string{"journal_append"}, float64(m.JournalAppends))
				emit([]string{"journal_error"}, float64(m.JournalErrors))
			})
		reg.GaugeFunc("exadigit_store_entries",
			"Results resident in the durable store.",
			func() float64 { return float64(st.Stats().Entries) })
		reg.GaugeFunc("exadigit_store_bytes",
			"Bytes resident in the durable store.",
			func() float64 { return float64(st.Stats().Bytes) })
	}
	s.registerOptimizeMetrics()
	s.metrics.Register(reg, "sweeps")
}

// Registry returns the metric registry the service reports into — mount
// Registry().Handler() as /metrics.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Tracer returns the per-scenario lifecycle tracer (served at
// /api/sweeps/trace; attach an NDJSON file sink via Tracer().SetSink).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Summary renders the service counters as one log line — the periodic
// metrics heartbeat the server emits alongside the HTTP summary.
func (s *Service) Summary() string {
	ev, entries, _, bytes, _ := s.cache.stats()
	return fmt.Sprintf("pending=%d hits=%d misses=%d evictions=%d cache_entries=%d cache_mb=%.1f retries=%d panics=%d timeouts=%d rejections=%d spans=%d",
		s.pending.Load(), s.hits.Value(), s.misses.Value(), ev, entries, float64(bytes)/(1<<20),
		s.retries.Value(), s.panics.Value(), s.timeouts.Value(), s.rejections.Value(), s.tracer.Total())
}

// Store returns the durable result store, or nil when memory-only.
func (s *Service) Store() *store.Store { return s.store }

// Workers returns the pool capacity.
func (s *Service) Workers() int { return s.workers }

// SetLogf enables request logging through the shared middleware stack
// (log.Printf-shaped; nil keeps logging off). Call before Handler.
func (s *Service) SetLogf(logf httpmw.Logf) { s.logf = logf }

// Metrics exposes the HTTP middleware counters.
func (s *Service) Metrics() *httpmw.Metrics { return s.metrics }

// compiledFor returns the shared CompiledSpec for the spec, compiling it
// on first submission. Sweeps of the same spec — byte-identical after
// canonical JSON encoding — share one compiled instance. The spec is
// compiled before the registry lookup so the map key is the hash the
// CompiledSpec itself carries (one hash computation, no second registry
// read that a concurrent preset re-registration could skew).
func (s *Service) compiledFor(spec config.SystemSpec) (*core.CompiledSpec, error) {
	cs, err := core.Compile(spec)
	if err != nil {
		return nil, err
	}
	hash := cs.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.specs[hash]; ok {
		return existing, nil
	}
	s.specs[hash] = cs
	s.specOrder = append(s.specOrder, hash)
	for len(s.specOrder) > maxCompiledSpecs {
		delete(s.specs, s.specOrder[0])
		s.specOrder = s.specOrder[1:]
	}
	return cs, nil
}

// SweepOptions parameterizes one submission.
type SweepOptions struct {
	// Name labels the sweep in listings.
	Name string
	// MaxConcurrent caps how many of this sweep's simulations run at
	// once — a lockstep group of power-mode siblings is one — on top of
	// the global pool (0 → no per-sweep cap).
	MaxConcurrent int
	// ScenarioTimeout overrides the service's per-attempt deadline for
	// this sweep (0 → Options.ScenarioTimeout).
	ScenarioTimeout time.Duration
	// MaxAttempts lowers the service's retry budget for this sweep
	// (0 → Options.MaxAttempts; a value above it is refused at submit).
	MaxAttempts int
	// Key is a client-supplied idempotency key: a submission carrying a
	// key already bound to a live or journaled sweep returns that sweep
	// instead of creating (and computing) a new one. Keys survive
	// restarts via the durable journal.
	Key string
	// Ephemeral skips the durable journal: the sweep will not be
	// re-adopted after a restart. Cluster shard dispatches set this —
	// durability belongs to the coordinator that owns the parent sweep,
	// and a worker re-adopting a half-done shard would race the
	// coordinator's own re-dispatch of the same scenarios.
	Ephemeral bool
}

// ScenarioState is the lifecycle of one scenario within a sweep.
type ScenarioState string

// Scenario states.
const (
	StateQueued    ScenarioState = "queued"
	StateRunning   ScenarioState = "running"
	StateDone      ScenarioState = "done"
	StateCached    ScenarioState = "cached"
	StateFailed    ScenarioState = "failed"
	StateCancelled ScenarioState = "cancelled"
)

// ScenarioStatus is the observable state of one scenario of a sweep.
type ScenarioStatus struct {
	Index    int           `json:"index"`
	Name     string        `json:"name"`
	Hash     string        `json:"scenario_hash"`
	State    ScenarioState `json:"state"`
	Error    string        `json:"error,omitempty"`
	WallSec  float64       `json:"wall_sec,omitempty"`
	CacheHit bool          `json:"cache_hit,omitempty"`
	// Attempts is how many simulation attempts the scenario consumed
	// (>1 means transient failures were retried; 0 for scenarios served
	// from a cache tier or never dispatched).
	Attempts int `json:"attempts,omitempty"`
}

// Terminal reports whether the scenario has reached a final state.
func (st ScenarioStatus) Terminal() bool {
	switch st.State {
	case StateDone, StateCached, StateFailed, StateCancelled:
		return true
	}
	return false
}

// SweepStatus is a point-in-time snapshot of a sweep.
type SweepStatus struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	SpecHash  string    `json:"spec_hash"`
	CreatedAt time.Time `json:"created_at"`
	Total     int       `json:"total"`
	Queued    int       `json:"queued"`
	Running   int       `json:"running"`
	Done      int       `json:"done"`
	Cached    int       `json:"cached"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	Finished  bool      `json:"finished"`
	// Recovered marks a sweep reconstructed from the durable journal
	// after a restart; Key echoes its idempotency key when one was set.
	Recovered bool             `json:"recovered,omitempty"`
	Key       string           `json:"sweep_key,omitempty"`
	Scenarios []ScenarioStatus `json:"scenarios,omitempty"`
}

// Sweep is one submitted battery of scenarios working through the pool.
type Sweep struct {
	lifecycle
	spec       config.SystemSpec  // retained for remote dispatch (RunRequest.Spec)
	compileSec float64            // spec-compile wall time, stamped on every span
	compiled   *core.CompiledSpec // released when the sweep finishes
	scenarios  []core.Scenario    // released when the sweep finishes
	hashes     []string
	spans      []spanState // per-scenario lifecycle accounting
	svc        *Service
	key        string              // idempotency key ("" = none)
	recovered  bool                // reconstructed from the journal after a restart
	journal    *store.SweepJournal // durable manifest + terminal records; nil = not journaled

	timeout     time.Duration // per-attempt deadline (0 → none)
	maxAttempts int

	ctx context.Context

	// Guarded by lifecycle.mu.
	statuses []ScenarioStatus
	results  []*core.Result
}

// Cache tiers a scenario span reports (obs.Span.CacheTier).
const (
	tierMemory  = "memory"
	tierDisk    = "disk"
	tierCompute = "compute"
	tierNone    = "none"
	// tierJournal marks a scenario whose terminal state was restored
	// from the sweep journal at recovery — neither recomputed nor
	// re-read, just trusted (the result store holds its entry).
	tierJournal = "journal"
)

// spanState accumulates one scenario's lifecycle timings until the
// terminal state emits them as an obs.Span.
type spanState struct {
	mu       sync.Mutex
	queued   bool    // queueSec recorded (first attempt got a slot)
	queueSec float64 // submit → first worker slot
	storeSec float64 // durable-store persist time (leader only)
	attempts []obs.AttemptSpan
}

// firstSlot records the submit→first-slot queue wait once.
func (sp *spanState) firstSlot(since time.Time) {
	sp.mu.Lock()
	if !sp.queued {
		sp.queued = true
		sp.queueSec = time.Since(since).Seconds()
	}
	sp.mu.Unlock()
}

func (sp *spanState) addAttempt(a obs.AttemptSpan) {
	sp.mu.Lock()
	sp.attempts = append(sp.attempts, a)
	sp.mu.Unlock()
}

func (sp *spanState) setStoreSec(sec float64) {
	sp.mu.Lock()
	sp.storeSec = sec
	sp.mu.Unlock()
}

// emitSpan publishes scenario i's lifecycle span to the service tracer.
// Called exactly once per scenario, at its terminal state.
func (sw *Sweep) emitSpan(i int, st ScenarioStatus, tier string) {
	sp := &sw.spans[i]
	sp.mu.Lock()
	span := obs.Span{
		Time:          time.Now(),
		Sweep:         sw.id,
		Index:         i,
		Scenario:      st.Name,
		SpecHash:      sw.specHash,
		ScenarioHash:  st.Hash,
		State:         string(st.State),
		CacheTier:     tier,
		Error:         st.Error,
		Recovered:     sw.recovered,
		CompileSec:    sw.compileSec,
		QueueSec:      sp.queueSec,
		TotalSec:      time.Since(sw.createdAt).Seconds(),
		StoreWriteSec: sp.storeSec,
		Attempts:      sp.attempts,
	}
	if !sp.queued {
		// No attempt ever got a slot: the whole lifetime was queueing.
		span.QueueSec = span.TotalSec
	}
	sp.mu.Unlock()
	sw.svc.tracer.Emit(span)
}

// Submit registers a sweep and starts working it asynchronously through
// the pool. The returned Sweep is immediately observable via Status,
// Results, and Done.
func (s *Service) Submit(spec config.SystemSpec, scenarios []core.Scenario, opts SweepOptions) (*Sweep, error) {
	sw, _, err := s.SubmitIdempotent(spec, scenarios, opts)
	return sw, err
}

// SubmitIdempotent is Submit with idempotency-key deduplication made
// observable: when opts.Key is already bound to a sweep — live, or
// journaled and recovered after a restart — that sweep is returned with
// existing=true and nothing is admitted or computed. The dedup is
// key-based only; the caller owns keeping (key → scenarios) stable.
func (s *Service) SubmitIdempotent(spec config.SystemSpec, scenarios []core.Scenario, opts SweepOptions) (sw *Sweep, existing bool, err error) {
	if prev, ok := s.sweeps.byKey(opts.Key); ok {
		s.idemHits.Inc()
		return prev, true, nil
	}
	if len(scenarios) == 0 {
		return nil, false, fmt.Errorf("service: sweep needs at least one scenario")
	}
	if opts.MaxAttempts > s.maxAttempts {
		return nil, false, fmt.Errorf("service: max_attempts %d exceeds the server's retry budget of %d",
			opts.MaxAttempts, s.maxAttempts)
	}
	compileStart := time.Now()
	compiled, err := s.compiledFor(spec)
	if err != nil {
		return nil, false, err
	}
	compileSec := time.Since(compileStart).Seconds()
	hashes := make([]string, len(scenarios))
	names := make([]string, len(scenarios))
	for i := range scenarios {
		sc := &scenarios[i]
		if err := compiled.Check(sc); err != nil {
			return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
		}
		// A coordinator cannot ship a replay dataset (every replay
		// scenario Check accepts carries one) to a remote worker.
		if s.runner != nil && sc.Dataset != nil {
			return nil, false, fmt.Errorf("service: scenario %d: replay scenarios cannot be dispatched to remote workers", i)
		}
		if hashes[i], err = HashScenario(*sc); err != nil {
			return nil, false, fmt.Errorf("service: scenario %d: %w", i, err)
		}
		if names[i] = sc.Name; names[i] == "" {
			names[i] = string(sc.Workload)
		}
	}
	// Admission control: an overloaded queue refuses the sweep up front
	// (ErrSaturated → HTTP 429) rather than accepting scenarios it will
	// not reach for a long time. The reservation is released per scenario
	// as each reaches a terminal state.
	if err := s.admit(len(scenarios)); err != nil {
		return nil, false, err
	}
	sw = s.newSweep(opts, compiled.Hash(), hashes, names, StateQueued)
	sw.spec, sw.compiled, sw.scenarios, sw.compileSec = spec, compiled, scenarios, compileSec
	for {
		sw.id = newSweepID()
		holder, added, pruned := s.sweeps.add(sw, opts.Key)
		s.dropJournals(pruned)
		if added {
			break
		}
		if holder.ID() != sw.id {
			// A concurrent submission bound the same key since the
			// fast-path check. Losing the race means undoing the
			// admission without feeding the drain estimator (nothing
			// completed).
			s.pending.Add(-int64(len(scenarios)))
			sw.cancel()
			s.idemHits.Inc()
			return holder, true, nil
		}
	}

	// Memory-tier hits settle here, before the journal exists, so their
	// records ride in its create instead of costing an fsync each.
	sw.settleCached()
	// Durability point: the manifest, and the records of the hits just
	// settled, must be on disk before any work is admitted to the pool,
	// so a crash from here on is recoverable and no settled outcome is
	// lost. A fully cached sweep is sealed by this one create. A journal
	// that cannot be created degrades to an in-memory-only sweep
	// (logged + counted), never a failed submission.
	s.journalSweep(sw, opts, names)
	go sw.run(opts.MaxConcurrent)
	return sw, false, nil
}

// settleCached records every scenario whose result the memory tier
// already holds, completed and successful, through the same record path
// resolve's hits take. The lookup neither leads nor waits: keys still in
// flight, and TelemetryTo scenarios (which bypass every cache tier), are
// left to resolve.
func (sw *Sweep) settleCached() {
	for i := range sw.scenarios {
		if sw.scenarios[i].TelemetryTo != nil {
			continue
		}
		if res, ok := sw.svc.cache.peek(sw.specHash + ":" + sw.hashes[i]); ok {
			sw.record(i, res, nil, tierMemory)
		}
	}
}

// newSweep builds a sweep's bookkeeping — the one construction shared
// by live submission and journal recovery: every per-scenario slice
// sized, each status initialized to state, and the attempt deadline and
// retry budget defaulted from the service.
func (s *Service) newSweep(opts SweepOptions, specHash string, hashes, names []string, state ScenarioState) *Sweep {
	if opts.ScenarioTimeout <= 0 {
		opts.ScenarioTimeout = s.scenarioTimeout
	}
	if opts.MaxAttempts <= 0 || opts.MaxAttempts > s.maxAttempts {
		// Submission refuses a budget above the server's; a recovered
		// manifest's is clamped to it.
		opts.MaxAttempts = s.maxAttempts
	}
	ctx, cancel := context.WithCancel(context.Background())
	sw := &Sweep{
		lifecycle:   newLifecycle(opts.Name, specHash, cancel),
		hashes:      hashes,
		spans:       make([]spanState, len(hashes)),
		svc:         s,
		key:         opts.Key,
		timeout:     opts.ScenarioTimeout,
		maxAttempts: opts.MaxAttempts,
		ctx:         ctx,
		statuses:    make([]ScenarioStatus, len(hashes)),
		results:     make([]*core.Result, len(hashes)),
	}
	for i := range sw.statuses {
		sw.statuses[i] = ScenarioStatus{Index: i, Name: names[i], Hash: hashes[i], State: state}
	}
	return sw
}

// dropJournals deletes the journals of sweeps dropped from the registry,
// so a pruned or removed sweep is not re-adopted at the next restart.
// It is file I/O, so callers hold no lock.
func (s *Service) dropJournals(sweeps []*Sweep) {
	if s.store == nil {
		return
	}
	for _, sw := range sweeps {
		if err := s.store.RemoveJournal(sw.id); err != nil && s.logf != nil {
			s.logf("service: sweep %s journal remove: %v", sw.id, err)
		}
	}
}

// admit reserves queue capacity for n scenarios, refusing when the
// service is closed or the reservation would exceed MaxPending.
func (s *Service) admit(n int) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	for {
		cur := s.pending.Load()
		if int(cur)+n > s.maxPending {
			s.rejections.Inc()
			return fmt.Errorf("%w: %d pending + %d submitted exceeds %d",
				ErrSaturated, cur, n, s.maxPending)
		}
		if s.pending.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// release returns n scenarios' worth of queue capacity and feeds the
// drain-rate estimate the saturated-queue Retry-After hint is derived
// from.
func (s *Service) release(n int) {
	s.pending.Add(-int64(n))
	s.drain.note(n, time.Now())
}

// Close stops admitting new sweeps (Submit returns ErrClosed). Already
// submitted sweeps keep working; pair with Drain or CancelAll for the
// graceful-shutdown sequence. Safe to call repeatedly.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// CloseDraining closes the service and records when the drain window
// will end, so refused submissions (ErrClosed → 503) can carry a
// Retry-After derived from the time actually remaining — the shutdown
// counterpart of the saturated-queue hint.
func (s *Service) CloseDraining(d time.Duration) {
	if d > 0 {
		s.drainBy.Store(time.Now().Add(d).UnixNano())
	}
	s.Close()
}

// closedRetryAfterSec derives the ErrClosed Retry-After hint from the
// remaining drain window: a client told to come back after the deadline
// finds either a restarted instance or a connection refused it can
// handle. With no recorded deadline (Close without CloseDraining) a
// minimal hint still beats none.
func (s *Service) closedRetryAfterSec() int {
	dl := s.drainBy.Load()
	if dl == 0 {
		return 1
	}
	sec := int(time.Until(time.Unix(0, dl)).Seconds()) + 1
	switch {
	case sec < 1:
		return 1
	case sec > 60:
		return 60
	}
	return sec
}

// Drain blocks until every submitted sweep and study reaches a terminal
// state or ctx expires — the shutdown step that lets in-flight sweeps
// finish (and streaming clients receive their final lines) before the
// HTTP server goes away. Call Close first so the set of jobs being
// waited on cannot grow; a running study then fails fast at its next
// generation submission, so this converges.
func (s *Service) Drain(ctx context.Context) error {
	if err := s.sweeps.wait(ctx); err != nil {
		return err
	}
	return s.studies.wait(ctx)
}

// CancelAll aborts every sweep and study — the impatient half of
// shutdown (second SIGINT): queued scenarios become cancelled and
// running simulations stop at their next tick boundary.
func (s *Service) CancelAll() {
	s.sweeps.cancelAll()
	s.studies.cancelAll()
}

// Remove drops a finished sweep from the registry, releasing the
// results it pins (cached entries stay until the result cache evicts
// them). It refuses to remove a sweep that is still working.
func (s *Service) Remove(id string) error {
	sw, ok := s.sweeps.get(id)
	if !ok {
		return fmt.Errorf("service: no sweep %q", id)
	}
	if !finished(sw) {
		return fmt.Errorf("service: sweep %q still running; cancel it first", id)
	}
	if s.sweeps.remove(id) {
		s.dropJournals([]*Sweep{sw})
	}
	return nil
}

// Sweep resolves a sweep by id.
func (s *Service) Sweep(id string) (*Sweep, bool) { return s.sweeps.get(id) }

// List snapshots every sweep in submission order (summary form, without
// per-scenario detail).
func (s *Service) List() []SweepStatus {
	sweeps := s.sweeps.list()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.Status()
		out[i].Scenarios = nil
	}
	return out
}

// SpecHash returns the compiled spec's content hash.
func (sw *Sweep) SpecHash() string { return sw.specHash }

// ScenarioHashes returns the per-scenario content hashes, indexed like
// the submitted scenarios.
func (sw *Sweep) ScenarioHashes() []string { return append([]string(nil), sw.hashes...) }

// Status snapshots the sweep including per-scenario states.
func (sw *Sweep) Status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := SweepStatus{
		ID:        sw.id,
		Name:      sw.name,
		SpecHash:  sw.specHash,
		CreatedAt: sw.createdAt,
		Total:     len(sw.statuses),
		Recovered: sw.recovered,
		Key:       sw.key,
		Scenarios: append([]ScenarioStatus(nil), sw.statuses...),
	}
	for _, s := range sw.statuses {
		switch s.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateCached:
			st.Cached++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	st.Finished = st.Queued == 0 && st.Running == 0
	return st
}

// Results snapshots the per-scenario results, indexed like the submitted
// scenarios; unfinished or failed entries are nil. Results may be served
// from the shared cache — treat them as read-only. For a sweep recovered
// from the journal, results of journal-terminal scenarios are loaded
// lazily from the durable store on first demand (recovery itself only
// verifies they exist, so startup stays cheap).
func (sw *Sweep) Results() []*core.Result {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.recovered {
		sw.loadRecoveredLocked()
	}
	return append([]*core.Result(nil), sw.results...)
}

// loadRecoveredLocked fills nil result slots of done/cached scenarios
// from the durable store. Entries that have since been deleted or
// quarantined simply stay nil — status is served from the journal
// either way. Callers hold sw.mu.
func (sw *Sweep) loadRecoveredLocked() {
	st := sw.svc.store
	if st == nil {
		return
	}
	for i := range sw.statuses {
		if sw.results[i] != nil {
			continue
		}
		sc := &sw.statuses[i]
		if sc.State != StateDone && sc.State != StateCached {
			continue
		}
		if res, err := st.Get(sw.specHash, sc.Hash); err == nil {
			sw.results[i] = res
		}
	}
}

// run drives the sweep: spawn one bounded goroutine per dispatch, each
// gated by the per-sweep limit and the service-wide worker pool. The
// first dispatch is one scenario, so grouping never delays the first
// result. A later one takes the scenario's still-queued power-mode
// siblings with it as a lockstep group (lockstepSiblings) when the sweep
// has more undispatched scenarios than worker slots it could use now
// (freeSlots): siblings that could each have a slot and a processor of
// their own run apart.
func (sw *Sweep) run(maxConcurrent int) {
	var sem chan struct{}
	if maxConcurrent > 0 {
		sem = make(chan struct{}, maxConcurrent)
	}
	var siblings [][]int // found once the first dispatch is under way
	claimed := make([]bool, len(sw.scenarios))
	remaining := 0 // scenarios still to dispatch
	for i := range sw.scenarios {
		if !sw.terminalAt(i) {
			remaining++
		}
	}
	var active atomic.Int64 // dispatches under way
	first := true
	var wg sync.WaitGroup
loop:
	for i := range sw.scenarios {
		if claimed[i] || sw.terminalAt(i) {
			// Dispatched with an earlier lockstep group, settled at
			// submit (a memory-tier hit) or restored from the journal
			// (recovered sweep): nothing to dispatch.
			continue
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-sw.ctx.Done():
				break loop
			}
		} else if sw.ctx.Err() != nil {
			break loop
		}
		group := []int{i}
		if !first && remaining > sw.freeSlots(sem, int(active.Load())) {
			if siblings == nil {
				siblings = sw.lockstepSiblings()
			}
			for _, j := range siblings[i] {
				if j > i && !claimed[j] && !sw.terminalAt(j) && core.ModeSiblings(&sw.scenarios[i], &sw.scenarios[j]) {
					claimed[j] = true
					group = append(group, j)
				}
			}
		}
		first = false
		remaining -= len(group)
		active.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			defer active.Add(-1)
			sw.resolveMembers(group)
		}()
	}
	wg.Wait()
	// Anything never dispatched (cancel hit the dispatch loop) is
	// cancelled in place; each released scenario returns its queue
	// reservation and still emits its lifecycle span (state=cancelled,
	// tier=none, no attempts).
	var undispatched []ScenarioStatus
	sw.update(func() {
		for i := range sw.statuses {
			if !sw.statuses[i].Terminal() && sw.statuses[i].State == StateQueued {
				sw.statuses[i].State = StateCancelled
				undispatched = append(undispatched, sw.statuses[i])
			}
		}
	})
	sw.svc.release(len(undispatched))
	for _, st := range undispatched {
		sw.emitSpan(st.Index, st, tierNone)
	}
	if elapsed := time.Since(sw.createdAt).Seconds(); elapsed > 0 {
		sw.svc.scenRate.Set(float64(len(sw.statuses)) / elapsed)
	}
	// Seal the journal: an end line tells the next startup this sweep
	// owes nothing. Cancelled scenarios are deliberately not recorded as
	// terminal facts, so the disposition carries whether any exist.
	if j := sw.journal; j != nil {
		disposition := "complete"
		if st := sw.Status(); st.Cancelled > 0 {
			disposition = "cancelled"
		}
		if err := j.End(disposition); err != nil && sw.svc.logf != nil {
			sw.svc.logf("service: sweep %s journal end: %v", sw.id, err)
		}
	}
	// Release per-sweep resources promptly: the scenario slice can pin
	// multi-gigabyte replay datasets and the compiled spec pins power
	// models — neither is needed once every scenario is terminal (status
	// and results live in their own slices). Without this, a cancelled
	// sweep kept its inputs pinned until the registry pruned it, which on
	// a long-running server could be process lifetime.
	sw.cancel()
	sw.mu.Lock()
	sw.scenarios, sw.compiled = nil, nil
	sw.mu.Unlock()
	close(sw.done)
}

// freeSlots is how many worker slots the dispatch about to start could
// use now: the pool's free slots and, under a per-sweep limit, the
// sweep's own, with active of its dispatches under way. A dispatch
// counts as busy from its start, before its goroutine takes a pool slot.
// A run is one goroutine, so slots beyond GOMAXPROCS add no throughput
// and do not count as free.
func (sw *Sweep) freeSlots(sem chan struct{}, active int) int {
	slots := sw.svc.slots
	free := min(cap(slots), runtime.GOMAXPROCS(0)) - max(len(slots), active)
	if sem != nil {
		free = min(free, cap(sem)-active)
	}
	return free
}

// resolveMembers settles one dispatch — a scenario, or a lockstep group
// of its power-mode siblings simulated as one run — and records each
// member. Every member goes through the tiers in order — memory, the
// durable store, another node's lease, compute — under its own key, and
// reports the tier that answered (tierNone on failure or cancellation).
//
// Only the first acquirer of a (spec, scenario) key leads; concurrent
// duplicates wait on its memory entry, so single-flight spans every
// tier: N concurrent submissions of one scenario cost at most one disk
// read plus one simulation. With a shared store and a LeaseTTL it spans
// nodes too: the leader leases the key before computing locally, so of
// N services sharing the directory only one simulates while the others
// poll the store for its Put.
//
// A group member that cannot lead at once — another submitter's key or
// another node's lease — leaves the group and resolves alone after it; a
// memory or disk hit settles in place. The members that lead run one
// attempt together, and when it fails each continues alone in its
// ordinary retry loop. Everything runs one after another on the
// dispatch's goroutine, so a dispatch never computes more than one run
// at a time and the per-sweep limit holds.
func (sw *Sweep) resolveMembers(members []int) {
	var claims []*claim
	var left []int
	for _, i := range members {
		c, res, tier, err := sw.lead(i, len(members) == 1)
		switch {
		case c != nil:
			claims = append(claims, c)
		case errors.Is(err, errBusy):
			left = append(left, i)
		default:
			sw.record(i, res, err, tier)
		}
	}
	if len(claims) > 0 {
		run := make([]int, len(claims))
		for k, c := range claims {
			run[k] = c.i
		}
		results, ran, err := sw.attempt(run, 1)
		for k, c := range claims {
			var res *core.Result
			err := err
			switch {
			case err == nil:
				res = results[k]
			case ran:
				res, err = sw.retry(c.i, err)
			}
			res, tier, err := sw.settle(c, res, err)
			sw.record(c.i, res, err, tier)
		}
	}
	for _, i := range left {
		sw.resolveMembers([]int{i})
	}
}

// claim is a scenario key this sweep leads to compute: its memory-tier
// entry and, when leasing, the cross-node lease, renewed until settle. A
// streaming scenario's claim holds no key.
type claim struct {
	i         int
	key       string
	entry     *cacheEntry
	lease     *store.Lease
	stopRenew context.CancelFunc
}

// errBusy reports that a lockstep group member cannot lead its key at
// once; the member leaves the group and resolves alone.
var errBusy = errors.New("service: scenario key held elsewhere")

// lead takes scenario i's key for computing: it leads the key's memory
// entry, misses the durable store and, when leasing, holds the lease. A
// scenario another tier answers settles instead: lead returns a nil
// claim with the result, tier and error. Without wait, lead gives up
// with errBusy, holding nothing, where it would otherwise wait for
// another submitter's run or another node's lease.
func (sw *Sweep) lead(i int, wait bool) (*claim, *core.Result, string, error) {
	if sw.scenarios[i].TelemetryTo != nil {
		// Streaming scenarios bypass every cache tier: serving a hit (or
		// waiting on another submitter's run) would silently skip the
		// writer side effect the caller asked for.
		return &claim{i: i, stopRenew: func() {}}, nil, "", nil
	}
	svc, st := sw.svc, sw.svc.store
	key := sw.specHash + ":" + sw.hashes[i]
	entry, leader := svc.cache.acquire(key)
	for !leader {
		if !wait {
			return nil, nil, "", errBusy
		}
		select {
		case <-entry.done:
		case <-sw.ctx.Done():
			return nil, nil, tierNone, sw.ctx.Err()
		}
		switch {
		case errors.Is(entry.err, errAbandoned):
			entry, leader = svc.cache.acquire(key) // leader cancelled before running; take over
		case entry.err != nil:
			// The leader simulated and failed; failures are not cached
			// (complete() dropped the entry), so this is not a hit.
			return nil, nil, tierNone, entry.err
		default:
			return nil, entry.res, tierMemory, nil
		}
	}
	// stored reads the durable tier, publishing a hit to the key's
	// waiters. ErrNotFound and ErrCorrupt (quarantined) both mean
	// compute; the recomputed result re-persists in settle, healing
	// corrupt entries.
	stored := func() (*core.Result, bool) {
		res, err := st.Get(sw.specHash, sw.hashes[i])
		if err != nil {
			return nil, false
		}
		svc.cache.complete(key, entry, res, nil)
		return res, true
	}
	c := &claim{i: i, key: key, entry: entry, stopRenew: func() {}}
	if st != nil && sw.ctx.Err() == nil {
		if res, ok := stored(); ok {
			return nil, res, tierDisk, nil
		}
		// Cross-node single-flight, local compute only: a coordinator
		// never leases before remote dispatch (the worker that computes
		// the key takes the lease; a coordinator holding it would
		// deadlock them). Lease I/O failure fails open — the worst case
		// is a duplicate compute, never a stuck scenario.
		poll := min(max(svc.leaseTTL/10, 50*time.Millisecond), time.Second)
		for svc.leaseTTL > 0 && svc.runner == nil {
			l, err := st.AcquireLease(sw.specHash, sw.hashes[i], svc.owner, svc.leaseTTL)
			if err != nil && !errors.Is(err, store.ErrLeaseHeld) {
				if svc.logf != nil {
					svc.logf("service: lease %s/%s: %v (computing without lease)", sw.specHash, sw.hashes[i], err)
				}
				break
			}
			if err != nil && !wait {
				svc.cache.complete(key, entry, nil, errAbandoned)
				return nil, nil, "", errBusy
			}
			if err != nil && !sleepCtx(sw.ctx, poll) {
				svc.cache.complete(key, entry, nil, errAbandoned)
				return nil, nil, tierNone, sw.ctx.Err()
			}
			// Re-check the store before computing: the holder may have
			// Put while we waited, or between our miss and this acquire.
			if res, ok := stored(); ok {
				if l != nil {
					l.Release()
				}
				return nil, res, tierDisk, nil
			}
			if l != nil {
				c.lease = l
				break
			}
		}
	}
	if c.lease != nil {
		var renewCtx context.Context
		renewCtx, c.stopRenew = context.WithCancel(sw.ctx)
		go sw.renewLease(renewCtx, c.lease)
	}
	return c, nil, "", nil
}

// settle publishes a claimed key's computed outcome: to its memory
// entry's waiters, then to the durable store, then it gives the lease
// back. A cancelled run publishes nothing: the key is released so
// another submitter can take over, rather than the cancellation reaching
// unrelated waiters.
func (sw *Sweep) settle(c *claim, res *core.Result, err error) (*core.Result, string, error) {
	svc, st := sw.svc, sw.svc.store
	c.stopRenew()
	if c.entry == nil {
		return res, computeTier(err), err
	}
	if errors.Is(err, context.Canceled) {
		if c.lease != nil {
			c.lease.Release()
		}
		svc.cache.complete(c.key, c.entry, nil, errAbandoned)
		return nil, tierNone, err
	}
	svc.cache.complete(c.key, c.entry, res, err)
	if err == nil && st != nil && svc.runner == nil {
		// Persist after publishing so waiters are never delayed by disk
		// I/O. A failed Put is an observability event (store put_errors),
		// not a scenario failure — the result is already served from
		// memory. Skipped in coordinator mode: the worker that computed
		// the result persists it, so a shared store counts each key
		// exactly once.
		putStart := time.Now()
		perr := st.Put(sw.specHash, sw.hashes[c.i], res)
		sw.spans[c.i].setStoreSec(time.Since(putStart).Seconds())
		if perr != nil && svc.logf != nil {
			svc.logf("service: store put %s/%s: %v", sw.specHash, sw.hashes[c.i], perr)
		}
	}
	if c.lease != nil {
		// Release only after the Put: a waiter that sees the lease go
		// away must find the result on its next store poll.
		c.lease.Release()
	}
	return res, computeTier(err), err
}

// lockstepSiblings returns, for each scenario, the indices of every
// scenario sharing its lockKey — its candidate power-mode siblings, which
// run confirms with core.ModeSiblings — or nil. Nothing groups under a
// remote runner, which dispatches one scenario at a time, or under a
// one-attempt budget, which would leave a member no attempt of its own
// after a failed group attempt.
func (sw *Sweep) lockstepSiblings() [][]int {
	out := make([][]int, len(sw.scenarios))
	if sw.svc.runner != nil || sw.maxAttempts < 2 {
		return out
	}
	keys := make([]string, len(sw.scenarios))
	buckets := make(map[string][]int)
	for i := range sw.scenarios {
		if sw.terminalAt(i) {
			continue
		}
		if keys[i] = sw.lockKey(i); keys[i] != "" {
			buckets[keys[i]] = append(buckets[keys[i]], i)
		}
	}
	for i, k := range keys {
		if k != "" {
			out[i] = buckets[k]
		}
	}
	return out
}

// lockKey is the hash of scenario i with its name and power mode
// cleared — equal for power-mode siblings — or "" when it cannot run in
// lockstep. The replay dataset is left out of the key (ModeSiblings
// compares it).
func (sw *Sweep) lockKey(i int) string {
	sc := sw.scenarios[i]
	if !sc.CanLockstep() {
		return ""
	}
	sc.Name, sc.PowerMode, sc.Dataset = "", "", nil
	key, err := HashScenario(sc)
	if err != nil {
		return ""
	}
	return key
}

// computeTier is the tier a computed scenario reports.
func computeTier(err error) string {
	if err != nil {
		return tierNone
	}
	return tierCompute
}

// errAbandoned marks a cache entry whose leader was cancelled before
// producing a result; waiters retry leadership instead of failing.
var errAbandoned = errors.New("service: scenario abandoned by cancelled sweep")

// retry continues scenario i's retry loop alone after its first attempt
// — alone or in a lockstep group — ran and failed with err. Each attempt
// runs inside the panic-isolation and deadline scope, transient failures
// — recovered panics, deadline overruns, simulation errors — retry with
// capped exponential backoff + jitter up to the sweep's attempt budget,
// and what survives is wrapped in a *ScenarioError so callers see the
// scenario's identity, attempt count, and cause. Sweep cancellation is
// never retried and surfaces as context.Canceled, also when the sweep
// was cancelled before a pool slot freed.
func (sw *Sweep) retry(i int, err error) (*core.Result, error) {
	for attempt := 1; ; {
		if sw.ctx.Err() != nil {
			// The sweep itself was cancelled (possibly mid-attempt);
			// report the cancellation, not the attempt's error.
			return nil, sw.ctx.Err()
		}
		if attempt >= sw.maxAttempts {
			return nil, &ScenarioError{
				ScenarioHash: sw.hashes[i], Index: i, Attempts: attempt, Cause: err,
			}
		}
		sw.svc.retries.Inc()
		if !sleepCtx(sw.ctx, backoffDelay(sw.svc.retryBase, sw.svc.retryMax, attempt)) {
			return nil, sw.ctx.Err()
		}
		attempt++
		res, ran, aerr := sw.attempt([]int{i}, attempt)
		if aerr == nil {
			return res[0], nil
		}
		if !ran {
			return nil, aerr
		}
		err = aerr
	}
}

// attempt acquires a pool slot and runs the member scenarios once — one
// scenario, or a lockstep group of power-mode siblings as one run — and
// returns their results in member order. It is the single run sequence
// of the cached and direct paths. The sweep context is threaded through
// the run, so a cancel aborts an in-flight simulation at its next tick
// boundary (mid-day); the per-attempt deadline, when configured, is
// layered on top (times the group size, since a group does every
// member's run) and reported as a timeout rather than a cancellation.
// Every member's span records the attempt, with the group size.
func (sw *Sweep) attempt(members []int, attempt int) (res []*core.Result, ran bool, err error) {
	waitStart := time.Now()
	select {
	case sw.svc.slots <- struct{}{}:
	case <-sw.ctx.Done():
		return nil, false, sw.ctx.Err()
	}
	defer func() { <-sw.svc.slots }()
	waitSec := time.Since(waitStart).Seconds()
	for _, i := range members {
		sw.spans[i].firstSlot(sw.createdAt)
	}
	sw.update(func() {
		for _, i := range members {
			sw.statuses[i].State = StateRunning
			sw.statuses[i].Attempts = attempt
		}
	})
	n := uint64(len(members))
	sw.svc.misses.Add(n)
	ctx := sw.ctx
	deadline := sw.timeout * time.Duration(len(members))
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	runStart := time.Now()
	res, err = sw.runRecovered(ctx, members, attempt)
	runSec := time.Since(runStart).Seconds()
	// Outcome classification shares its branches with the failure
	// counters — one increment per "timeout"/"panic" attempt span, so
	// the trace and the failure counters reconcile exactly.
	outcome := ""
	if err != nil && ctx.Err() == context.DeadlineExceeded && sw.ctx.Err() == nil {
		// The attempt's own deadline expired (not a sweep cancel):
		// normalize whatever surfaced — the context error itself or a
		// mid-tick wrap of it — into a typed, retriable timeout.
		sw.svc.timeouts.Add(n)
		outcome = "timeout"
		err = fmt.Errorf("service: scenario deadline %v exceeded: %w",
			deadline, context.DeadlineExceeded)
	}
	if outcome == "" {
		var pe *PanicError
		switch {
		case err == nil:
			outcome = "ok"
		case errors.As(err, &pe):
			outcome = "panic"
		case errors.Is(err, context.Canceled):
			outcome = "cancelled"
		default:
			outcome = "error"
		}
	}
	span := obs.AttemptSpan{Attempt: attempt, WaitSec: waitSec, RunSec: runSec, Outcome: outcome}
	if err != nil {
		span.Error = err.Error()
	}
	if len(members) > 1 {
		span.Lockstep = len(members)
	}
	for _, i := range members {
		sw.spans[i].addAttempt(span)
	}
	return res, true, err
}

// renewLease extends the held lease every TTL/3 until ctx ends. A
// failed renew means a holder that overran its TTL lost the lease to a
// stealer; the compute still finishes and publishes (Puts are atomic and
// idempotent) — the stealer's duplicate run is the documented
// degradation mode, so the renewer just stops.
func (sw *Sweep) renewLease(ctx context.Context, l *store.Lease) {
	interval := sw.svc.leaseTTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := l.Renew(sw.svc.leaseTTL); err != nil {
				return
			}
		}
	}
}

// record finalizes one scenario's status, returns its queue
// reservation, and emits the scenario's lifecycle span. tier is the
// cache tier that resolved it (tierMemory/tierDisk count as cache
// hits). It is called exactly once per dispatched scenario.
func (sw *Sweep) record(i int, res *core.Result, err error, tier string) {
	defer sw.svc.release(1)
	cacheHit := tier == tierMemory || tier == tierDisk
	if cacheHit {
		sw.svc.hits.Inc()
	}
	var final ScenarioStatus
	sw.update(func() {
		st := &sw.statuses[i]
		st.CacheHit = cacheHit
		switch {
		case err != nil && errors.Is(err, context.Canceled):
			st.State = StateCancelled
		case err != nil:
			st.State = StateFailed
			st.Error = err.Error()
		case cacheHit:
			st.State = StateCached
			sw.results[i] = res
		default:
			st.State = StateDone
			sw.results[i] = res
		}
		if res != nil {
			st.WallSec = res.WallSec
		}
		final = *st
	})
	sw.appendJournal(final)
	sw.emitSpan(i, final, tier)
}

// terminalAt reports whether scenario i is already terminal — at
// dispatch time true only for hits settled at submit and for
// journal-restored states on a recovered sweep.
func (sw *Sweep) terminalAt(i int) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statuses[i].Terminal()
}

// cacheEntry is one in-flight or completed scenario result. done is
// closed once res/err are final; bytes is the entry's approximate
// resident size, fixed at completion.
type cacheEntry struct {
	done  chan struct{}
	res   *core.Result
	err   error
	bytes int64
}

// resultCache is the content-addressed result store with single-flight
// semantics: the first acquirer of a key leads (simulates); concurrent
// acquirers wait on the same entry, so N identical submissions cost one
// simulation. It is bounded both by entry count and — the production
// bound — by approximate resident bytes, since one result can be a bare
// report or a multi-megabyte telemetry export.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	maxBytes  int64
	bytes     int64 // Σ entry bytes over completed entries
	entries   map[string]*cacheEntry
	order     []string // completed keys, oldest first, for eviction
	evictions uint64   // completed entries dropped by the capacity bounds
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{cap: capacity, maxBytes: maxBytes, entries: make(map[string]*cacheEntry)}
}

// approxResultBytes estimates a result's resident size at insert time.
// It counts the dominant variable-size members — history samples and the
// exported telemetry's series points and per-job power traces — plus a
// fixed overhead for the report and bookkeeping. Precision is not the
// point; the estimate keeps eviction pressure proportional to what the
// cache actually pins.
func approxResultBytes(res *core.Result) int64 {
	const (
		base       = int64(2 << 10) // report, scenario copy, headers
		sampleSize = int64(14*8 + 2*24)
		pointSize  = int64(3*8 + 24)
		jobBase    = int64(256)
	)
	if res == nil {
		return base
	}
	n := base
	n += int64(len(res.History)) * sampleSize
	for i := range res.History {
		n += int64(len(res.History[i].CDUHeatW)+len(res.History[i].PartPowerW)) * 8
	}
	if d := res.Dataset; d != nil {
		n += int64(len(d.Series)) * pointSize
		for i := range d.Series {
			n += int64(len(d.Series[i].PartPowerW)) * 8
		}
		for i := range d.Jobs {
			n += jobBase + int64(len(d.Jobs[i].CPUPowerW)+len(d.Jobs[i].GPUPowerW))*8
		}
	}
	return n
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// acquire returns the entry for key and whether the caller leads its
// computation.
func (c *resultCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// peek returns key's result when its entry is completed and successful,
// without taking leadership or waiting: a missing, in-flight or failed
// entry reports false.
func (c *resultCache) peek(key string) (*core.Result, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e.res, e.err == nil
	default:
		return nil, false
	}
}

// complete publishes the leader's outcome. Failed and abandoned runs are
// dropped from the cache (a later submission may retry); successes are
// retained while they fit both the entry cap and the byte bound,
// evicting oldest-completed first (a result larger than the whole byte
// bound is published to its waiters but not retained).
func (c *resultCache) complete(key string, e *cacheEntry, res *core.Result, err error) {
	e.res, e.err = res, err
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else if e.bytes = approxResultBytes(res); e.bytes > c.maxBytes {
		// Larger than the whole byte bound: evicting every other entry
		// would not make it fit, so drop just this one instead of
		// flushing a warm cache.
		delete(c.entries, key)
		c.evictions++
	} else {
		c.bytes += e.bytes
		c.order = append(c.order, key)
		for len(c.order) > 0 && (len(c.order) > c.cap || c.bytes > c.maxBytes) {
			evict := c.order[0]
			c.order = c.order[1:]
			if old, ok := c.entries[evict]; ok {
				c.bytes -= old.bytes
				delete(c.entries, evict)
			}
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// stats returns the cache's eviction count, live entries, and the entry
// and byte capacities.
func (c *resultCache) stats() (evictions uint64, entries, capacity int, bytes, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions, len(c.entries), c.cap, c.bytes, c.maxBytes
}
