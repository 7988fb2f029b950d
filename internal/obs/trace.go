package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Per-scenario lifecycle tracing: every scenario a sweep works through
// emits one Span when it reaches a terminal state —
// submit → queue-wait → attempt[n]{wait, run} with durations, the cache
// tier that served it, and the terminal status. Spans land in a ring
// buffer served as NDJSON at /api/sweeps/trace and, when the server
// runs with -trace FILE, in an append-only NDJSON sink, so a chaos
// run's retry/timeout timeline is reconstructable after the fact.

// AttemptSpan is one simulation attempt inside a scenario span.
type AttemptSpan struct {
	// Attempt is 1-based.
	Attempt int `json:"attempt"`
	// WaitSec is the time this attempt spent waiting for a worker slot.
	WaitSec float64 `json:"wait_sec"`
	// RunSec is the simulation wall time of this attempt.
	RunSec float64 `json:"run_sec"`
	// Outcome is "ok", "error", "panic", "timeout", or "cancelled".
	Outcome string `json:"outcome"`
	// Error carries the attempt's failure message for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Lockstep is the size of the lockstep group this attempt ran in —
	// power-mode siblings simulated as one run, so RunSec covers all of
	// them; omitted for a scenario that ran alone.
	Lockstep int `json:"lockstep,omitempty"`
}

// Span is one scenario's recorded lifecycle.
type Span struct {
	// Time is when the scenario reached its terminal state.
	Time time.Time `json:"time"`
	// Sweep and Index identify the scenario within its sweep; the
	// content hashes identify it globally.
	Sweep        string `json:"sweep"`
	Index        int    `json:"index"`
	Scenario     string `json:"scenario,omitempty"`
	SpecHash     string `json:"spec_hash"`
	ScenarioHash string `json:"scenario_hash"`
	// State is the terminal ScenarioState (done/cached/failed/cancelled).
	State string `json:"state"`
	// CacheTier is which tier resolved the scenario: "memory" (waiter on
	// an in-memory entry), "disk" (durable store hit), "compute" (a
	// simulation ran), or "none" (failed or cancelled before resolution).
	CacheTier string `json:"cache_tier"`
	Error     string `json:"error,omitempty"`
	// Recovered marks spans emitted by a sweep that was re-adopted from
	// the durable journal after a restart (tier "journal" for scenarios
	// whose terminal state was restored rather than recomputed).
	Recovered bool `json:"recovered,omitempty"`
	// CompileSec is the sweep's spec-compile time (zero when the compiled
	// spec was shared from a previous sweep); QueueSec the wait from
	// submission to the first attempt's worker slot (or to the terminal
	// state when no attempt ran); TotalSec submission to terminal.
	CompileSec float64 `json:"compile_sec,omitempty"`
	QueueSec   float64 `json:"queue_sec"`
	TotalSec   float64 `json:"total_sec"`
	// StoreWriteSec is the durable-store persist time (leader scenarios
	// with a store configured only).
	StoreWriteSec float64 `json:"store_write_sec,omitempty"`
	// Attempts lists each simulation attempt; empty for scenarios served
	// from a cache tier or cancelled before dispatch.
	Attempts []AttemptSpan `json:"attempts,omitempty"`
}

// Tracer is the bounded span store: a fixed-capacity ring buffer plus
// an optional NDJSON sink. Emit is cheap (one lock, one slice write; a
// sink write when configured) and safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	ring    []Span
	next    int
	full    bool
	total   uint64
	sink    io.Writer
	sinkErr error
}

// NewTracer builds a tracer retaining the last capacity spans
// (capacity ≤ 0 → 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// SetSink attaches an NDJSON writer that receives every span as one
// JSON line (nil detaches). The tracer serializes writes; the writer
// does not need to be concurrency-safe. The first write error detaches
// the sink (readable via SinkErr) rather than failing span emission.
func (t *Tracer) SetSink(w io.Writer) {
	t.mu.Lock()
	t.sink, t.sinkErr = w, nil
	t.mu.Unlock()
}

// SinkErr returns the write error that detached the sink, if any.
func (t *Tracer) SinkErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sinkErr
}

// Emit records one span.
func (t *Tracer) Emit(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	t.total++
	if t.sink != nil {
		b, err := json.Marshal(s)
		if err == nil {
			b = append(b, '\n')
			_, err = t.sink.Write(b)
		}
		if err != nil {
			t.sinkErr, t.sink = err, nil
		}
	}
}

// Total returns how many spans have been emitted since start (including
// those the ring has since overwritten).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.ring[:t.next]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Handler serves the retained spans as NDJSON, oldest first. ?limit=N
// restricts the response to the most recent N spans.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := t.Snapshot()
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(spans) {
				spans = spans[len(spans)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				return
			}
		}
	})
}
