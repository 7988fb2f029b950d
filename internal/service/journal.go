package service

// Sweep durability: the manifest/record journaling half lives here, and
// so does startup recovery — the piece that closes the coordinator SPOF.
// The result store already survives restarts; this file makes the sweeps
// themselves survive too, by persisting each sweep's identity and
// terminal outcomes into a store-hosted journal (store.SweepJournal) and
// re-adopting incomplete sweeps at startup through the normal runner
// seam, so recovery behaves identically whether scenarios compute on the
// local pool or fan out to cluster workers.

import (
	cryptorand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/store"
)

// newSweepID mints a collision-free sweep id: "sw-" + the submission
// instant in hex nanoseconds + a random suffix. Unlike the old
// process-local counter, ids from different processes (or the same
// store directory across restarts) cannot collide — which the durable
// journal requires, since a recovered sweep keeps its id. The alphabet
// stays within what httpmw.RouteLabel normalizes and
// store.ValidSweepID accepts.
func newSweepID() string {
	var b [4]byte
	_, _ = cryptorand.Read(b[:])
	return fmt.Sprintf("sw-%x-%x", time.Now().UnixNano(), b)
}

// journalSweep durably writes the sweep's manifest together with the
// records of scenarios already terminal (hits settled at submit),
// arming per-scenario record appends for the rest; a sweep settled in
// full is sealed by the create. No-ops without a store; degrades (log +
// journal_error metric) when the sweep cannot be journaled — scenarios
// that cannot cross a process boundary (replay datasets, telemetry
// writers) or a failing disk never fail a submission that would have
// worked in memory.
func (s *Service) journalSweep(sw *Sweep, opts SweepOptions, names []string) {
	if s.store == nil || opts.Ephemeral {
		return
	}
	reqs := make([]ScenarioRequest, len(sw.scenarios))
	for i, sc := range sw.scenarios {
		r, err := ScenarioRequestFrom(sc)
		if err != nil {
			s.printf("service: sweep %s not journaled (scenario %d: %v)", sw.id, i, err)
			return
		}
		reqs[i] = r
	}
	specJSON, err := json.Marshal(sw.spec)
	scenJSON, serr := json.Marshal(reqs)
	if err = errors.Join(err, serr); err == nil {
		var recs []store.ScenarioRecord
		sw.mu.Lock()
		for _, st := range sw.statuses {
			if rec, ok := journalRecord(st); ok {
				recs = append(recs, rec)
			}
		}
		sw.mu.Unlock()
		var j *store.SweepJournal
		j, err = s.store.CreateJournal(&store.SweepManifest{
			ID:              sw.id,
			Key:             sw.key,
			Name:            sw.name,
			SpecHash:        sw.specHash,
			ScenarioHashes:  sw.hashes,
			Names:           names,
			SpecJSON:        specJSON,
			ScenariosJSON:   scenJSON,
			MaxConcurrent:   opts.MaxConcurrent,
			TimeoutSec:      sw.timeout.Seconds(),
			MaxAttempts:     sw.maxAttempts,
			CreatedUnixNano: sw.createdAt.UnixNano(),
		}, recs...)
		if err == nil {
			sw.journal = j
			return
		}
	}
	s.printf("service: sweep %s journal create: %v (continuing in-memory)", sw.id, err)
}

// journalRecord is st's journal record, if st is a fact the journal
// keeps. Cancellations are skipped on purpose: a cancelled scenario is
// work the sweep still owes after a restart, which is exactly what
// re-adoption recomputes.
func journalRecord(st ScenarioStatus) (store.ScenarioRecord, bool) {
	switch st.State {
	case StateDone, StateCached, StateFailed:
	default:
		return store.ScenarioRecord{}, false
	}
	return store.ScenarioRecord{
		Index:    st.Index,
		Hash:     st.Hash,
		State:    string(st.State),
		Error:    st.Error,
		Attempts: st.Attempts,
		WallSec:  st.WallSec,
		CacheHit: st.CacheHit,
	}, true
}

// appendJournal records one terminal scenario into the sweep's journal.
func (sw *Sweep) appendJournal(st ScenarioStatus) {
	j := sw.journal
	if j == nil {
		return
	}
	rec, ok := journalRecord(st)
	if !ok {
		return
	}
	if err := j.Append(rec); err != nil {
		sw.svc.printf("service: sweep %s journal append: %v (continuing in-memory)", sw.id, err)
	}
}

// DetachJournal severs the sweep from its journal without sealing it:
// on disk the journal looks exactly as a kill -9 at this instant would
// have left it. Crash-recovery tests use this to fabricate a mid-sweep
// process death without actually killing the test process (an in-process
// teardown would otherwise journal a tidy cancelled disposition).
func (sw *Sweep) DetachJournal() {
	if j := sw.journal; j != nil {
		j.Detach()
	}
}

// Recovered reports whether this sweep was reconstructed from the
// journal after a restart.
func (sw *Sweep) Recovered() bool { return sw.recovered }

// RecoverStats summarizes one startup recovery pass.
type RecoverStats struct {
	// Adopted counts incomplete sweeps re-adopted and resumed; Finished
	// counts completed sweeps re-registered for status/results serving.
	Adopted  int `json:"adopted"`
	Finished int `json:"finished"`
	// Terminal counts scenarios settled without recompute: restored
	// from journal records (plus the result store), or refused by
	// core.CompiledSpec.Check and recorded failed; Requeued counts
	// scenarios re-enqueued through the runner seam.
	Terminal int `json:"terminal"`
	Requeued int `json:"requeued"`
}

// Recover scans the store's sweep journals and re-adopts what the
// previous process left behind: finished sweeps come back as queryable
// status (GET /api/sweeps/{id} keeps working across restarts, results
// lazily re-read from the store), incomplete sweeps are resumed —
// journal-recorded scenarios whose results the store still holds are
// marked terminal without recompute, and the remainder re-enters the
// normal dispatch path, identically under a local pool or a cluster
// runner. Idempotency keys are rebound, so resubmission against a
// recovered sweep dedupes exactly as it would have before the crash.
//
// Call once at startup, before serving traffic. Without a store this is
// a no-op. The pass's wall time is the exadigit_sweep_recover_seconds
// gauge.
func (s *Service) Recover() (RecoverStats, error) {
	var stats RecoverStats
	if s.store == nil {
		return stats, nil
	}
	start := time.Now()
	defer func() { s.recoverSec.Set(time.Since(start).Seconds()) }()
	if err := s.store.LogOpenErr(); err != nil {
		s.printf("service: recover: %v (journaling degraded)", err)
	}
	entries, err := s.store.ScanJournals()
	if err != nil {
		return stats, err
	}
	for i := range entries {
		e := &entries[i]
		if _, exists := s.sweeps.get(e.Manifest.ID); exists {
			continue
		}
		if e.EndDisposition != "" {
			s.adoptFinished(e)
			stats.Finished++
			continue
		}
		requeued, terminal, err := s.adoptIncomplete(e)
		if err != nil {
			s.printf("service: recover %s: %v (journal left in place)", e.Manifest.ID, err)
			continue
		}
		stats.Adopted++
		stats.Requeued += requeued
		stats.Terminal += terminal
	}
	return stats, nil
}

// recoveredShell builds a journal-reconstructed sweep: identity from
// the manifest, every scenario named and initialized to the given state
// (none, when blank: see newSweep).
func (s *Service) recoveredShell(e *store.JournalEntry, names []string, initial ScenarioState) *Sweep {
	m := &e.Manifest
	sw := s.newSweep(SweepOptions{
		Name:            m.Name,
		Key:             m.Key,
		ScenarioTimeout: time.Duration(m.TimeoutSec * float64(time.Second)),
		MaxAttempts:     m.MaxAttempts,
	}, m.SpecHash, append([]string(nil), m.ScenarioHashes...), names, initial)
	sw.id = m.ID
	sw.createdAt = time.Unix(0, m.CreatedUnixNano)
	sw.recovered = true
	return sw
}

// journalNames returns the scenarios' display names from the header. A
// journal written before the header carried them falls back to the
// payload's wire forms, named as submission names them (the scenario's
// name, else its workload); names are display-only, so an undecodable
// payload leaves them blank rather than failing recovery.
func journalNames(e *store.JournalEntry) []string {
	m := &e.Manifest
	if len(m.Names) == len(m.ScenarioHashes) {
		return m.Names
	}
	var reqs []ScenarioRequest
	if _, scenJSON, err := e.Payload(); err == nil {
		_ = json.Unmarshal(scenJSON, &reqs)
	}
	names := make([]string, len(m.ScenarioHashes))
	for i := range names {
		if i < len(reqs) {
			if names[i] = reqs[i].Name; names[i] == "" {
				names[i] = reqs[i].Workload
			}
		}
	}
	return names
}

// applyRecord restores one journal record onto the shell's status slot.
func applyRecord(sw *Sweep, rec store.ScenarioRecord) {
	st := &sw.statuses[rec.Index]
	st.State = ScenarioState(rec.State)
	st.Error = rec.Error
	st.Attempts = rec.Attempts
	st.WallSec = rec.WallSec
	st.CacheHit = rec.CacheHit
}

// registerRecovered publishes a reconstructed sweep into the registry.
func (s *Service) registerRecovered(sw *Sweep) error {
	holder, added, pruned := s.sweeps.add(sw, sw.key)
	if !added && holder.ID() != sw.id {
		// Another sweep already holds the key: it keeps the binding and
		// this one is served by id alone.
		holder, added, pruned = s.sweeps.add(sw, "")
	}
	s.dropJournals(pruned)
	if !added {
		return fmt.Errorf("service: sweep id %s already registered", sw.id)
	}
	return nil
}

// adoptFinished re-registers a completed sweep for status and result
// serving — no compile, no admission, no goroutines, and no payload
// decode; scenarios without a record were cancelled (cancellations are
// never journaled). The scan has already dropped records that do not
// fit the manifest. When the scan left the records undecoded behind the
// end line's tally, the sweep keeps them so, and builds no per-scenario
// state, until a request needs it (readJournal): a restart after which
// its sweeps are not asked for per-scenario state decodes no record,
// and one that asks pays each sweep's decode on its first request.
func (s *Service) adoptFinished(e *store.JournalEntry) {
	var sw *Sweep
	if e.Tally != nil {
		sw = s.recoveredShell(e, nil, "")
		unread := e.WithoutPayload()
		unread.Manifest.ScenarioHashes, unread.Manifest.Names = sw.hashes, journalNames(e)
		sw.unread = &unread
	} else {
		sw = s.recoveredShell(e, journalNames(e), StateCancelled)
		for _, rec := range e.Records() {
			applyRecord(sw, rec)
		}
	}
	sw.cancel()
	close(sw.done)
	if err := s.registerRecovered(sw); err != nil {
		s.printf("service: recover %s: %v", sw.id, err)
		return
	}
	s.recFinished.Inc()
}

// adoptIncomplete resumes a sweep the previous process died holding:
// verify the manifest's hashes against a fresh compile (a journal from a
// different code version must recompute, not serve stale keys), restore
// journal-terminal scenarios whose results the store still holds,
// settle as failed (journaled, no attempt) any scenario the compiled
// spec's Check refuses (every scenario, when the spec itself no longer
// validates or compiles), and re-enqueue the rest through run() — the
// same dispatch loop a live submission uses, runner seam and all. It is
// the one recovery path that decodes the journal's payload; a payload
// that does not decode rejects the journal rather than resume from
// partial data.
func (s *Service) adoptIncomplete(e *store.JournalEntry) (requeued, terminal int, err error) {
	m := &e.Manifest
	specJSON, scenJSON, err := e.Payload()
	if err != nil {
		return 0, 0, err
	}
	var spec config.SystemSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return 0, 0, fmt.Errorf("manifest spec: %w", err)
	}
	var reqs []ScenarioRequest
	if err := json.Unmarshal(scenJSON, &reqs); err != nil {
		return 0, 0, fmt.Errorf("manifest scenarios: %w", err)
	}
	if len(reqs) != len(m.ScenarioHashes) {
		return 0, 0, fmt.Errorf("manifest carries %d scenarios but %d hashes", len(reqs), len(m.ScenarioHashes))
	}
	scenarios := make([]core.Scenario, len(reqs))
	for i := range reqs {
		scenarios[i] = reqs[i].Scenario()
	}
	compileStart := time.Now()
	compiled, compileErr := s.compiledFor(spec)

	sw := s.recoveredShell(e, journalNames(e), StateQueued)
	sw.spec = spec
	sw.compiled = compiled
	sw.scenarios = scenarios
	sw.compileSec = time.Since(compileStart).Seconds()

	// Trust journal records only where the content-addressed identity
	// still checks out: same spec hash and, per scenario, the same
	// recomputed hash. A mismatch (journal from an older build) falls
	// back to recompute for the affected scenarios — correctness over
	// thrift. A spec this build refuses (journaled before a bound was
	// added) checks nothing out: every scenario settles failed below,
	// so the sweep finishes and its journal is sealed.
	specOK := compileErr == nil && compiled.Hash() == m.SpecHash
	if compileErr != nil {
		compileErr = fmt.Errorf("spec recompile: %w", compileErr)
		s.printf("service: recover %s: %v; settling every scenario failed", sw.id, compileErr)
	} else if !specOK {
		sw.specHash = compiled.Hash()
		s.printf("service: recover %s: spec hash drifted %s -> %s; recomputing all scenarios",
			sw.id, m.SpecHash, sw.specHash)
	}
	hashOK := make([]bool, len(scenarios))
	for i, sc := range scenarios {
		h, herr := HashScenario(sc)
		if herr != nil {
			return 0, 0, fmt.Errorf("scenario %d hash: %w", i, herr)
		}
		hashOK[i] = specOK && h == m.ScenarioHashes[i]
		sw.hashes[i] = h
		sw.statuses[i].Hash = h
	}
	var restored []ScenarioStatus
	for _, rec := range e.Records() {
		if !hashOK[rec.Index] {
			continue
		}
		switch ScenarioState(rec.State) {
		case StateDone, StateCached:
			// A "done" record whose result the store has since lost
			// (deleted, quarantined) is recomputed rather than served
			// as a result-less success.
			if !s.store.Has(sw.specHash, rec.Hash) {
				continue
			}
		case StateFailed:
		default:
			continue
		}
		applyRecord(sw, rec)
	}
	var refused []ScenarioStatus
	for i := range sw.statuses {
		st := &sw.statuses[i]
		if st.Terminal() {
			restored = append(restored, *st)
			continue
		}
		err := compileErr
		if err == nil {
			err = compiled.Check(&scenarios[i])
		}
		if err != nil {
			// A scenario no run can complete (journaled by an older
			// build, or edited on disk) settles failed here with no
			// attempt: requeueing it would only spend its retry budget.
			st.State = StateFailed
			st.Error = fmt.Sprintf("service: scenario %d: %v", i, err)
			refused = append(refused, *st)
			continue
		}
		requeued++
	}
	terminal = len(restored) + len(refused)

	// Re-enqueued scenarios bypass the MaxPending gate — shedding
	// journaled work at startup would turn a restart into data loss —
	// but still count as pending so admission and Retry-After see the
	// true backlog. Each re-run releases its reservation through the
	// normal record() path.
	s.pending.Add(int64(requeued))
	if j, jerr := s.store.OpenJournal(sw.id); jerr == nil {
		sw.journal = j
	} else {
		s.printf("service: recover %s: journal reopen: %v (resuming without journaling)", sw.id, jerr)
	}
	if err := s.registerRecovered(sw); err != nil {
		s.pending.Add(-int64(requeued))
		return 0, 0, err
	}
	s.recAdopted.Inc()
	s.requeued.Add(uint64(requeued))
	for _, st := range restored {
		// The restored scenarios' lifecycle spans re-emit with the
		// journal tier so the trace explains why no compute happened.
		sw.emitSpan(st, outcome{tier: tierJournal})
	}
	for _, st := range refused {
		sw.appendJournal(st)
		sw.emitSpan(st, outcome{tier: tierNone})
	}
	go sw.run(m.MaxConcurrent)
	return requeued, terminal, nil
}
