package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

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
	batch
	compileSec float64 // spec-compile wall time, stamped on every span
	svc        *Service
	key        string              // idempotency key ("" = none)
	recovered  bool                // reconstructed from the journal after a restart
	journal    *store.SweepJournal // durable manifest + terminal records; nil = not journaled

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
		lifecycle: newLifecycle(opts.Name, cancel),
		batch: batch{
			ctx:         ctx,
			specHash:    specHash,
			hashes:      hashes,
			timeout:     opts.ScenarioTimeout,
			maxAttempts: opts.MaxAttempts,
		},
		svc:      s,
		key:      opts.Key,
		statuses: make([]ScenarioStatus, len(hashes)),
		results:  make([]*core.Result, len(hashes)),
	}
	sw.onRunning, sw.onSettled = sw.running, sw.record
	for i := range sw.statuses {
		sw.statuses[i] = ScenarioStatus{Index: i, Name: names[i], Hash: hashes[i], State: state}
	}
	return sw
}

// emitSpan publishes a terminal scenario's lifecycle span to the service
// tracer. Called exactly once per scenario, at its terminal state.
func (sw *Sweep) emitSpan(st ScenarioStatus, o outcome) {
	span := obs.Span{
		Time:          time.Now(),
		Sweep:         sw.id,
		Index:         st.Index,
		Scenario:      st.Name,
		SpecHash:      sw.specHash,
		ScenarioHash:  st.Hash,
		State:         string(st.State),
		CacheTier:     o.tier,
		Error:         st.Error,
		Recovered:     sw.recovered,
		CompileSec:    sw.compileSec,
		TotalSec:      time.Since(sw.createdAt).Seconds(),
		StoreWriteSec: o.storeSec,
		Attempts:      o.attempts,
	}
	if len(o.attempts) > 0 {
		// Submit → first slot.
		span.QueueSec = o.began.Sub(sw.createdAt).Seconds() + o.attempts[0].WaitSec
	} else {
		// No attempt ever got a slot: the whole lifetime was queueing.
		span.QueueSec = span.TotalSec
	}
	sw.svc.tracer.Emit(span)
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
// gated by the per-sweep limit and, inside resolution, the service-wide
// worker pool. The first dispatch is one scenario, so grouping never
// delays the first result. A later one takes the scenario's still-queued
// power-mode siblings with it as a lockstep group (lockstepSiblings) when
// the sweep has more undispatched scenarios than worker slots it could
// use now: siblings that could each have a slot and a processor of their
// own run apart.
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
		busy := int(active.Load())
		free := sw.svc.res.freeSlots(busy)
		if sem != nil {
			free = min(free, cap(sem)-busy)
		}
		if !first && remaining > free {
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
			sw.svc.res.resolve(&sw.batch, group)
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
		sw.emitSpan(st, outcome{tier: tierNone})
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
		if err := j.End(disposition); err != nil {
			sw.svc.printf("service: sweep %s journal end: %v", sw.id, err)
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

// lockstepSiblings returns, for each scenario, the indices of every
// scenario sharing its lockKey — its candidate power-mode siblings, which
// run confirms with core.ModeSiblings — or nil. Nothing groups under a
// remote runner, which dispatches one scenario at a time, or under a
// one-attempt budget, which would leave a member no attempt of its own
// after a failed group attempt.
func (sw *Sweep) lockstepSiblings() [][]int {
	out := make([][]int, len(sw.scenarios))
	if sw.svc.res.remote() || sw.maxAttempts < 2 {
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

// running marks the members as running their attempt'th attempt.
func (sw *Sweep) running(members []int, attempt int) {
	sw.update(func() {
		for _, i := range members {
			sw.statuses[i].State = StateRunning
			sw.statuses[i].Attempts = attempt
		}
	})
}

// record finalizes one scenario from its outcome — status and result in
// one update — then returns its queue reservation, journals the terminal
// state and emits the scenario's lifecycle span. A memory or disk tier
// counts as a cache hit. It is called exactly once per dispatched
// scenario.
func (sw *Sweep) record(o outcome) {
	defer sw.svc.release(1)
	cacheHit := o.tier == tierMemory || o.tier == tierDisk
	if cacheHit {
		sw.svc.res.hits.Inc()
	}
	var final ScenarioStatus
	sw.update(func() {
		st := &sw.statuses[o.i]
		st.CacheHit = cacheHit
		switch {
		case o.err != nil && errors.Is(o.err, context.Canceled):
			st.State = StateCancelled
		case o.err != nil:
			st.State = StateFailed
			st.Error = o.err.Error()
		case cacheHit:
			st.State = StateCached
			sw.results[o.i] = o.res
		default:
			st.State = StateDone
			sw.results[o.i] = o.res
		}
		if o.res != nil {
			st.WallSec = o.res.WallSec
		}
		final = *st
	})
	sw.appendJournal(final)
	sw.emitSpan(final, o)
}

// terminalAt reports whether scenario i is already terminal — at
// dispatch time true only for hits settled at submit and for
// journal-restored states on a recovered sweep.
func (sw *Sweep) terminalAt(i int) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statuses[i].Terminal()
}
