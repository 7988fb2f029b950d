// Package service turns the digital twin into a long-running
// scenario-sweep service — the paper's twin-as-a-service deployment
// (§III-B6), where the REST backend runs each what-if experiment as its
// own worker. A Service owns a bounded simulation worker pool, compiles
// each submitted SystemSpec once (power models + cooling FMU design,
// shared read-only by every scenario of every sweep against that spec),
// deduplicates work through a content-addressed result cache keyed by
// (spec hash, scenario hash), and exposes submit/status/cancel plus
// streaming results over HTTP.
//
// Files: service.go holds admission, close and drain; sweep.go and
// http.go a sweep's per-scenario state, its dispatch and its NDJSON
// stream; resolve.go per-scenario resolution (cache, store, lease,
// slots, Runner, attempts and retries); cache.go the result cache;
// journal.go journaling and restart recovery; optimize.go and
// optimize_http.go studies and their counters.
package service

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
	res     *resolver    // per-scenario resolution (resolve.go)
	store   *store.Store // journals and study blobs; nil → memory-only
	logf    httpmw.Logf  // nil → logging off; log through printf
	metrics *httpmw.Metrics
	reg     *obs.Registry
	tracer  *obs.Tracer

	// Sweep defaults (sweeps may lower the attempts and set the timeout)
	// and the admission bound.
	scenarioTimeout time.Duration
	maxAttempts     int
	maxPending      int

	// Admission and recovery accounting. These registry instruments ARE
	// the counters — the /metrics exposition and the Summary heartbeat
	// both read them.
	rejections  *obs.Counter
	idemHits    *obs.Counter
	recAdopted  *obs.Counter
	recFinished *obs.Counter
	requeued    *obs.Counter
	recoverSec  *obs.Gauge   // wall time of the last Recover pass
	scenRate    *obs.Gauge   // scenarios/sec of the most recently finished sweep
	pending     atomic.Int64 // queued+running scenarios across all sweeps (CAS admission)
	drain       drainRate    // completion-rate EWMA behind Retry-After
	drainBy     atomic.Int64 // shutdown drain deadline (unixnano; 0 = none) behind the 503 Retry-After

	study studyMetrics // optimizer accounting (optimize.go)

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
		store:           opts.Store,
		metrics:         &httpmw.Metrics{},
		reg:             reg,
		tracer:          obs.NewTracer(opts.TraceCap),
		scenarioTimeout: opts.ScenarioTimeout,
		maxAttempts:     opts.MaxAttempts,
		maxPending:      opts.MaxPending,
		sweeps:          newRegistry[*Sweep](opts.MaxSweeps),
		studies:         newRegistry[*Study](opts.MaxSweeps),
		specs:           make(map[string]*core.CompiledSpec),
	}
	s.res = newResolver(opts, reg, s.printf)
	s.registerMetrics()
	return s
}

// registerMetrics attaches the service's own counters to the registry
// (the resolver registers the cache, failure and worker-pool families).
// Counters are registry instruments written on the hot path; owner-held
// state (pending, store counters, global model-build counters) is
// collected at scrape time. The exposition is the only way the counters
// leave the process.
func (s *Service) registerMetrics() {
	reg := s.reg
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
	s.recoverSec = reg.Gauge("exadigit_sweep_recover_seconds",
		"Wall time of the last journal recovery pass (scan plus adoption).")
	s.idemHits = reg.Counter("exadigit_sweep_idempotent_hits_total",
		"Submissions deduplicated onto an existing sweep by idempotency key.")
	reg.GaugeFunc("exadigit_sweep_pending_scenarios",
		"Queued+running scenarios across all sweeps.",
		func() float64 { return float64(s.pending.Load()) })
	reg.GaugeFunc("exadigit_sweep_max_pending",
		"Admission bound on pending scenarios.",
		func() float64 { return float64(s.maxPending) })
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
				emit([]string{"journal_sync"}, float64(m.JournalSyncs))
				emit([]string{"journal_rewrite"}, float64(m.JournalRewrites))
				emit([]string{"journal_error"}, float64(m.JournalErrors))
			})
		reg.GaugeFunc("exadigit_store_entries",
			"Results resident in the durable store.",
			func() float64 { return float64(st.Stats().Entries) })
		reg.GaugeFunc("exadigit_store_bytes",
			"Bytes resident in the durable store.",
			func() float64 { return float64(st.Stats().Bytes) })
	}
	s.study = newStudyMetrics(reg)
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
	r, cs := s.res, s.res.cache.stats()
	return fmt.Sprintf("pending=%d hits=%d misses=%d evictions=%d cache_entries=%d cache_mb=%.1f retries=%d panics=%d timeouts=%d rejections=%d spans=%d",
		s.pending.Load(), r.hits.Value(), r.misses.Value(), cs.evictions, cs.entries, float64(cs.bytes)/(1<<20),
		r.retries.Value(), r.panics.Value(), r.timeouts.Value(), s.rejections.Value(), s.tracer.Total())
}

// Store returns the durable result store, or nil when memory-only.
func (s *Service) Store() *store.Store { return s.store }

// SetLogf enables request logging through the shared middleware stack
// (log.Printf-shaped; nil keeps logging off). Call before Handler.
func (s *Service) SetLogf(logf httpmw.Logf) { s.logf = logf }

// printf logs through the SetLogf sink, when one is set.
func (s *Service) printf(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

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
		if s.res.remote() && sc.Dataset != nil {
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
	for i := range scenarios {
		if res, ok := s.res.memoryHit(&sw.batch, i); ok {
			sw.record(outcome{i: i, res: res, tier: tierMemory})
		}
	}
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

// dropJournals drops the journals of sweeps dropped from the registry,
// so a pruned or removed sweep is not re-adopted at the next restart. A
// sweep never journaled (ephemeral, or its create failed) has nothing
// to drop. The registry drops only finished sweeps, and a sweep is
// finished once run closes its done channel: run starts after
// journalSweep has set sw.journal, even for a sweep settled in full at
// submit, so the read here comes after the create. It is file I/O, so
// callers hold no lock.
func (s *Service) dropJournals(sweeps []*Sweep) {
	if s.store == nil {
		return
	}
	for _, sw := range sweeps {
		if sw.journal == nil && !sw.recovered {
			continue
		}
		if err := s.store.RemoveJournal(sw.id); err != nil {
			s.printf("service: sweep %s journal remove: %v", sw.id, err)
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
	return clampRetryAfter(float64(int(time.Until(time.Unix(0, dl)).Seconds()) + 1))
}

// drainTau is the EWMA time constant of the queue drain-rate estimate —
// long enough to smooth per-scenario noise, short enough that an
// operator-visible slowdown moves the Retry-After hint within a minute.
const drainTau = 30 * time.Second

// drainRate estimates the service's scenario completion rate as an
// irregular-interval EWMA. Each release of queue capacity feeds it; the
// saturated-queue Retry-After hint divides the pending count by this
// rate, so the hint tracks what the service is actually draining instead
// of a fixed per-worker guess.
type drainRate struct {
	mu   sync.Mutex
	rate float64 // scenarios/sec
	last time.Time
}

func (d *drainRate) note(n int, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.last.IsZero() {
		d.last = now
		return
	}
	dt := now.Sub(d.last).Seconds()
	if dt <= 0 {
		// Same-instant completions: treat as an impulse. alpha*sample
		// degenerates to n/tau, so the contribution stays bounded.
		dt = 1e-9
	}
	sample := float64(n) / dt
	alpha := 1 - math.Exp(-dt/drainTau.Seconds())
	d.rate += alpha * (sample - d.rate)
	d.last = now
}

func (d *drainRate) value() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rate
}

// retryAfterSec derives the saturated-queue Retry-After hint from the
// observed drain rate: pending scenarios divided by scenarios/sec, with
// ±25% jitter so a burst of throttled clients does not resubmit in
// lockstep. Before any drain has been observed it falls back to assuming
// ~1 scenario/sec/worker.
func (s *Service) retryAfterSec() int {
	rate := s.drain.value()
	if rate <= 0 {
		rate = float64(s.Workers())
	}
	sec := float64(s.pending.Load()) / rate
	return clampRetryAfter(sec * (0.75 + 0.5*rand.Float64()))
}

// clampRetryAfter bounds a Retry-After hint to a sane header range,
// [1, 60] whole seconds.
func clampRetryAfter(sec float64) int { return int(min(max(sec, 1), 60)) }

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
// per-scenario detail). A recovered sweep's journal records stay unread.
func (s *Service) List() []SweepStatus {
	sweeps := s.sweeps.list()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.summary()
	}
	return out
}
