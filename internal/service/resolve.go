package service

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/httpmw"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// resolver settles scenarios through the tiers in order — memory, the
// durable store, another node's lease, compute — under their (spec,
// scenario) keys. A sweep hands it a member list and gets each member's
// outcome back; the resolver owns everything between: the cache's
// single-flight, store reads and Puts, leases, worker slots, Runner
// dispatch, the attempt/deadline/panic scope, retries, the fault hook,
// and the counters that describe them.
type resolver struct {
	slots     chan struct{} // global simulation-worker pool
	cache     *resultCache
	store     *store.Store   // durable tier; nil → memory-only
	runner    ScenarioRunner // remote compute tier; nil → local pool
	leaseTTL  time.Duration  // cross-node single-flight; 0 → no leasing
	owner     string         // this service's lease identity
	retryBase time.Duration
	retryMax  time.Duration
	faults    atomic.Pointer[FaultInjector] // test-only chaos hook
	logf      httpmw.Logf                   // never nil

	// Registry instruments: the /metrics exposition and the Summary
	// heartbeat both read them.
	hits     *obs.Counter
	misses   *obs.Counter
	retries  *obs.Counter
	panics   *obs.Counter
	timeouts *obs.Counter
}

// batch is what the resolver reads of the scenarios it settles, a
// sweep's (Sweep embeds it): the spec and the scenarios' keys, the
// attempt budget and deadline, the context that cancels them, and the
// two reports back — a member's attempt starting and its outcome.
type batch struct {
	ctx         context.Context
	spec        config.SystemSpec // retained for remote dispatch (RunRequest.Spec)
	specHash    string
	compiled    *core.CompiledSpec // released when the sweep finishes
	scenarios   []core.Scenario    // released when the sweep finishes
	hashes      []string
	timeout     time.Duration // per-attempt deadline (0 → none)
	maxAttempts int
	onRunning   func(members []int, attempt int)
	onSettled   func(outcome) // exactly once per member handed to resolve
}

// outcome is how one scenario resolved. tier is the cache tier that
// answered (tierNone on failure or cancellation); began, when the
// first attempt started waiting for a slot, is set once it got one.
type outcome struct {
	i        int
	res      *core.Result
	err      error
	tier     string
	attempts []obs.AttemptSpan
	began    time.Time
	storeSec float64
}

// newResolver builds the resolver for the defaulted opts and registers
// its instruments.
func newResolver(opts Options, reg *obs.Registry, logf httpmw.Logf) *resolver {
	r := &resolver{
		slots:     make(chan struct{}, opts.Workers),
		cache:     newResultCache(opts.CacheCap, opts.CacheMaxBytes),
		store:     opts.Store,
		runner:    opts.Runner,
		leaseTTL:  opts.LeaseTTL,
		owner:     leaseOwnerID(),
		retryBase: opts.RetryBaseDelay,
		retryMax:  opts.RetryMaxDelay,
		logf:      logf,
		hits: reg.Counter("exadigit_cache_hits_total",
			"Scenarios served from a cache tier (memory or durable store)."),
		misses: reg.Counter("exadigit_cache_misses_total",
			"Scenario simulation attempts started (cache misses)."),
		retries: reg.Counter("exadigit_sweep_retries_total",
			"Scenario re-attempts after a transient failure."),
		panics: reg.Counter("exadigit_sweep_panics_recovered_total",
			"Worker panics recovered into per-scenario failures."),
		timeouts: reg.Counter("exadigit_sweep_timeouts_total",
			"Scenario attempts that exceeded their deadline."),
	}
	reg.GaugeFunc("exadigit_sweep_workers",
		"Simulation worker-pool capacity.",
		func() float64 { return float64(cap(r.slots)) })
	r.cache.register(reg)
	return r
}

// leaseOwnerID derives this service's cross-node lease identity:
// host + pid disambiguate nodes and processes, the random suffix
// disambiguates services within one process (tests run several).
func leaseOwnerID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var b [4]byte
	_, _ = cryptorand.Read(b[:])
	return fmt.Sprintf("%s-%d-%s", host, os.Getpid(), hex.EncodeToString(b[:]))
}

// Workers returns the pool capacity.
func (s *Service) Workers() int { return cap(s.res.slots) }

// SetFaultInjector installs (or, with nil, removes) the chaos hook.
// Test-only: it exists so the fault-injection suite can drive every
// recovery path deterministically.
func (s *Service) SetFaultInjector(fi *FaultInjector) { s.res.faults.Store(fi) }

// remote reports whether scenarios compute on a Runner's workers.
func (r *resolver) remote() bool { return r.runner != nil }

// freeSlots is how many worker slots could take a run now, with active
// of a sweep's dispatches under way: a dispatch counts as busy from its
// start, before its goroutine takes a slot. A run is one goroutine, so
// slots beyond GOMAXPROCS add no throughput and do not count as free.
func (r *resolver) freeSlots(active int) int {
	return min(cap(r.slots), runtime.GOMAXPROCS(0)) - max(len(r.slots), active)
}

// memoryHit is scenario i's completed, successful memory-tier result:
// the lookup that neither leads nor waits, shared by submission (which
// settles hits before the journal exists) and lead. Streaming scenarios
// never hit: serving one would skip the writer side effect the caller
// asked for.
func (r *resolver) memoryHit(b *batch, i int) (*core.Result, bool) {
	if b.scenarios[i].TelemetryTo != nil {
		return nil, false
	}
	return r.cache.peek(b.specHash + ":" + b.hashes[i])
}

// resolve settles one dispatch — a scenario, or a lockstep group of its
// power-mode siblings simulated as one run — and hands each member's
// outcome to b.onSettled as it settles.
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
func (r *resolver) resolve(b *batch, members []int) {
	var claims []*claim
	var run, left []int // run: the claims' members
	for _, i := range members {
		c, o := r.lead(b, i, len(members) == 1)
		switch {
		case c != nil:
			claims, run = append(claims, c), append(run, i)
		case errors.Is(o.err, errBusy):
			left = append(left, i)
		default:
			b.onSettled(o)
		}
	}
	if len(claims) > 0 {
		began := time.Now()
		results, span, err := r.attempt(b, run, 1)
		for k, c := range claims {
			o := outcome{i: c.i, err: err}
			if span != nil { // no span: cancelled before a slot freed
				o.began = began
				o.attempts = []obs.AttemptSpan{*span}
				if err == nil {
					o.res = results[k]
				} else {
					r.retry(b, &o)
				}
			}
			r.settle(b, c, &o)
			b.onSettled(o)
		}
	}
	for _, i := range left {
		r.resolve(b, []int{i})
	}
}

// claim is a scenario key a sweep leads to compute: its memory-tier
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

// errAbandoned marks a cache entry whose leader was cancelled before
// producing a result; waiters retry leadership instead of failing.
var errAbandoned = errors.New("service: scenario abandoned by cancelled sweep")

// lead takes scenario i's key for computing: it leads the key's memory
// entry, misses the durable store and, when leasing, holds the lease. A
// scenario another tier answers settles instead: lead returns a nil
// claim with the outcome. Without wait, lead gives up with errBusy,
// holding nothing, where it would otherwise wait for another
// submitter's run or another node's lease.
func (r *resolver) lead(b *batch, i int, wait bool) (*claim, outcome) {
	o := outcome{i: i, tier: tierNone}
	if res, ok := r.memoryHit(b, i); ok {
		o.res, o.tier = res, tierMemory
		return nil, o
	}
	if b.scenarios[i].TelemetryTo != nil {
		// Streaming scenarios bypass every cache tier, and so does
		// waiting on another submitter's run.
		return &claim{i: i, stopRenew: func() {}}, o
	}
	key := b.specHash + ":" + b.hashes[i]
	entry, leader := r.cache.acquire(key)
	for !leader {
		if !wait {
			o.err = errBusy
			return nil, o
		}
		select {
		case <-entry.done:
		case <-b.ctx.Done():
			o.err = b.ctx.Err()
			return nil, o
		}
		switch {
		case errors.Is(entry.err, errAbandoned):
			entry, leader = r.cache.acquire(key) // leader cancelled before running; take over
		case entry.err != nil:
			// The leader simulated and failed; failures are not cached
			// (complete() dropped the entry), so this is not a hit.
			o.err = entry.err
			return nil, o
		default:
			o.res, o.tier = entry.res, tierMemory
			return nil, o
		}
	}
	// stored reads the durable tier, publishing a hit to the key's
	// waiters. ErrNotFound and ErrCorrupt (quarantined) both mean
	// compute; the recomputed result re-persists in settle, healing
	// corrupt entries.
	stored := func() bool {
		res, err := r.store.Get(b.specHash, b.hashes[i])
		if err != nil {
			return false
		}
		r.cache.complete(key, entry, res, nil)
		o.res, o.tier = res, tierDisk
		return true
	}
	c := &claim{i: i, key: key, entry: entry, stopRenew: func() {}}
	if r.store != nil && b.ctx.Err() == nil {
		if stored() {
			return nil, o
		}
		// Cross-node single-flight, local compute only: a coordinator
		// never leases before remote dispatch (the worker that computes
		// the key takes the lease; a coordinator holding it would
		// deadlock them). Lease I/O failure fails open — the worst case
		// is a duplicate compute, never a stuck scenario.
		poll := min(max(r.leaseTTL/10, 50*time.Millisecond), time.Second)
		for r.leaseTTL > 0 && r.runner == nil {
			l, err := r.store.AcquireLease(b.specHash, b.hashes[i], r.owner, r.leaseTTL)
			if err != nil && !errors.Is(err, store.ErrLeaseHeld) {
				r.logf("service: lease %s/%s: %v (computing without lease)", b.specHash, b.hashes[i], err)
				break
			}
			if err != nil && !wait {
				r.cache.complete(key, entry, nil, errAbandoned)
				o.err = errBusy
				return nil, o
			}
			if err != nil && !sleepCtx(b.ctx, poll) {
				r.cache.complete(key, entry, nil, errAbandoned)
				o.err = b.ctx.Err()
				return nil, o
			}
			// Re-check the store before computing: the holder may have
			// Put while we waited, or between our miss and this acquire.
			if stored() {
				if l != nil {
					l.Release()
				}
				return nil, o
			}
			if l != nil {
				c.lease = l
				break
			}
		}
	}
	if c.lease != nil {
		var renewCtx context.Context
		renewCtx, c.stopRenew = context.WithCancel(b.ctx)
		go r.renewLease(renewCtx, c.lease)
	}
	return c, o
}

// settle publishes a claimed key's computed outcome: to its memory
// entry's waiters, then to the durable store, then it gives the lease
// back. A cancelled run publishes nothing: the key is released so
// another submitter can take over, rather than the cancellation reaching
// unrelated waiters.
func (r *resolver) settle(b *batch, c *claim, o *outcome) {
	c.stopRenew()
	o.tier = tierCompute
	if o.err != nil {
		o.res, o.tier = nil, tierNone
	}
	if c.entry == nil {
		return
	}
	if errors.Is(o.err, context.Canceled) {
		if c.lease != nil {
			c.lease.Release()
		}
		r.cache.complete(c.key, c.entry, nil, errAbandoned)
		return
	}
	r.cache.complete(c.key, c.entry, o.res, o.err)
	if o.err == nil && r.store != nil && r.runner == nil {
		// Persist after publishing so waiters are never delayed by disk
		// I/O. A failed Put is an observability event (store put_errors),
		// not a scenario failure — the result is already served from
		// memory. Skipped in coordinator mode: the worker that computed
		// the result persists it, so a shared store counts each key
		// exactly once.
		putStart := time.Now()
		err := r.store.Put(b.specHash, b.hashes[c.i], o.res)
		o.storeSec = time.Since(putStart).Seconds()
		if err != nil {
			r.logf("service: store put %s/%s: %v", b.specHash, b.hashes[c.i], err)
		}
	}
	if c.lease != nil {
		// Release only after the Put: a waiter that sees the lease go
		// away must find the result on its next store poll.
		c.lease.Release()
	}
}

// retry continues o's retry loop alone after its first attempt — alone
// or in a lockstep group — ran and failed with o.err. Transient failures
// — recovered panics, deadline overruns, simulation errors — retry with
// capped exponential backoff + jitter up to the sweep's attempt budget,
// and what survives is wrapped in a *ScenarioError so callers see the
// scenario's identity, attempt count, and cause. Sweep cancellation is
// never retried and surfaces as context.Canceled, also when the sweep
// was cancelled before a pool slot freed.
func (r *resolver) retry(b *batch, o *outcome) {
	for attempt := 1; ; {
		if b.ctx.Err() != nil {
			// The sweep itself was cancelled (possibly mid-attempt);
			// report the cancellation, not the attempt's error.
			o.err = b.ctx.Err()
			return
		}
		if attempt >= b.maxAttempts {
			o.err = &ScenarioError{
				ScenarioHash: b.hashes[o.i], Index: o.i, Attempts: attempt, Cause: o.err,
			}
			return
		}
		r.retries.Inc()
		if !sleepCtx(b.ctx, backoffDelay(r.retryBase, r.retryMax, attempt)) {
			o.err = b.ctx.Err()
			return
		}
		attempt++
		res, span, err := r.attempt(b, []int{o.i}, attempt)
		o.err = err
		if span == nil {
			return
		}
		o.attempts = append(o.attempts, *span)
		if err == nil {
			o.res = res[0]
			return
		}
	}
}

// attempt acquires a pool slot and runs the member scenarios once — one
// scenario, or a lockstep group of power-mode siblings as one run — and
// returns their results in member order with the attempt's span, nil
// when the sweep was cancelled before a slot freed. The sweep context is
// threaded through the run, so a cancel aborts an in-flight simulation
// at its next tick boundary (mid-day); the per-attempt deadline, when
// configured, is layered on top (times the group size, since a group
// does every member's run) and reported as a timeout rather than a
// cancellation.
func (r *resolver) attempt(b *batch, members []int, attempt int) ([]*core.Result, *obs.AttemptSpan, error) {
	waitStart := time.Now()
	select {
	case r.slots <- struct{}{}:
	case <-b.ctx.Done():
		return nil, nil, b.ctx.Err()
	}
	defer func() { <-r.slots }()
	span := &obs.AttemptSpan{Attempt: attempt, WaitSec: time.Since(waitStart).Seconds()}
	b.onRunning(members, attempt)
	n := uint64(len(members))
	r.misses.Add(n)
	ctx := b.ctx
	deadline := b.timeout * time.Duration(len(members))
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	runStart := time.Now()
	res, err := r.run(ctx, b, members, attempt)
	span.RunSec = time.Since(runStart).Seconds()
	// Outcome classification shares its branches with the failure
	// counters — one increment per "timeout"/"panic" attempt span, so
	// the trace and the failure counters reconcile exactly.
	var pe *PanicError
	switch {
	case err != nil && ctx.Err() == context.DeadlineExceeded && b.ctx.Err() == nil:
		// The attempt's own deadline expired (not a sweep cancel):
		// normalize whatever surfaced — the context error itself or a
		// mid-tick wrap of it — into a typed, retriable timeout.
		r.timeouts.Add(n)
		span.Outcome = "timeout"
		err = fmt.Errorf("service: scenario deadline %v exceeded: %w",
			deadline, context.DeadlineExceeded)
	case err == nil:
		span.Outcome = "ok"
	case errors.As(err, &pe):
		span.Outcome = "panic"
	case errors.Is(err, context.Canceled):
		span.Outcome = "cancelled"
	default:
		span.Outcome = "error"
	}
	if err != nil {
		span.Error = err.Error()
	}
	if len(members) > 1 {
		span.Lockstep = len(members)
	}
	return res, span, err
}

// run executes one simulation attempt of the member scenarios inside the
// panic isolation boundary: a panic anywhere below — the twin, the power
// engine, the cooling solver, or an injected fault — is converted to a
// *PanicError instead of unwinding the worker goroutine and killing the
// process. It is counted once per member, as each member's span records
// the attempt.
func (r *resolver) run(ctx context.Context, b *batch, members []int, attempt int) (res []*core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r.panics.Add(uint64(len(members)))
			res, err = nil, &PanicError{Value: rec, Stack: string(debug.Stack())}
		}
	}()
	if fi := r.faults.Load(); fi != nil && fi.BeforeRun != nil {
		for _, i := range members {
			if err := fi.BeforeRun(ctx, Fault{
				SpecHash:     b.specHash,
				ScenarioHash: b.hashes[i],
				Index:        i,
				Attempt:      attempt,
			}); err != nil {
				return nil, err
			}
		}
		// An injected delay may have consumed the whole deadline; surface
		// that exactly like a slow simulation would.
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	scs := make([]core.Scenario, len(members))
	for k, i := range members {
		scs[k] = b.scenarios[i]
	}
	// Coordinator mode: hand the attempt to the remote compute tier,
	// which never gets a group. Telemetry-writer scenarios stay local —
	// their side effect cannot cross the wire, and the coordinator holds
	// the compiled spec anyway.
	if r.runner != nil && scs[0].TelemetryTo == nil {
		res, err := r.runner.RunScenario(ctx, RunRequest{
			Spec:         b.spec,
			SpecHash:     b.specHash,
			Scenario:     scs[0],
			ScenarioHash: b.hashes[members[0]],
			Index:        members[0],
			Attempt:      attempt,
		})
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, nil
	}
	return b.compiled.Twin().RunLockstep(ctx, scs)
}

// renewLease extends the held lease every TTL/3 until ctx ends. A
// failed renew means a holder that overran its TTL lost the lease to a
// stealer; the compute still finishes and publishes (Puts are atomic and
// idempotent) — the stealer's duplicate run is the documented
// degradation mode, so the renewer just stops.
func (r *resolver) renewLease(ctx context.Context, l *store.Lease) {
	interval := r.leaseTTL / 3
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
			if err := l.Renew(r.leaseTTL); err != nil {
				return
			}
		}
	}
}
