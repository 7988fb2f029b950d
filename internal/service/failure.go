package service

// This file is the sweep service's per-scenario failure domain. A worker
// panic, a scenario running past its deadline, or a transient simulation
// error must cost exactly one scenario attempt — never the process, never
// the sweep. Panics are recovered into typed errors, attempts retry with
// capped exponential backoff + jitter, and what survives MaxAttempts is
// reported per-scenario as a ScenarioError in sweep status and NDJSON
// output. The FaultInjector hook at the bottom is the test-only chaos
// harness that pins every one of these recovery paths.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"exadigit/internal/core"
)

// Submission errors.
var (
	// ErrSaturated is returned by Submit when admitting the sweep would
	// push the pending-scenario count past Options.MaxPending. The HTTP
	// layer maps it to 429 + Retry-After; library callers back off and
	// resubmit.
	ErrSaturated = errors.New("service: sweep queue saturated")
	// ErrClosed is returned by Submit once Close has been called — the
	// graceful-shutdown path stops admitting work before draining.
	ErrClosed = errors.New("service: service closed")
)

// ScenarioError is the typed per-scenario failure the service reports
// when a scenario exhausts its attempts: which scenario (by content
// hash and sweep index), how many attempts were made, and the final
// cause. It unwraps to the cause, so errors.Is/As see through it.
type ScenarioError struct {
	ScenarioHash string
	Index        int
	Attempts     int
	Cause        error
}

func (e *ScenarioError) Error() string {
	return fmt.Sprintf("service: scenario %d (%.12s) failed after %d attempt(s): %v",
		e.Index, e.ScenarioHash, e.Attempts, e.Cause)
}

func (e *ScenarioError) Unwrap() error { return e.Cause }

// PanicError is a worker panic converted into an error by the recovery
// wrapper around each scenario attempt — the process-isolation boundary
// that keeps one poisoned scenario from killing the whole service.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("service: scenario panicked: %v", e.Value)
}

// backoffDelay returns the capped exponential backoff for the given
// (1-based) attempt with ±50% jitter, so a burst of simultaneous
// failures does not retry in lockstep.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	// jitter in [0.5, 1.5)
	return time.Duration((0.5 + rand.Float64()) * float64(d))
}

// sleepCtx waits d, returning false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Fault identifies one scenario attempt to the fault injector.
type Fault struct {
	SpecHash     string
	ScenarioHash string
	// Index is the scenario's position within its sweep.
	Index int
	// Attempt is 1-based.
	Attempt int
}

// FaultInjector is the test-only chaos hook. When installed via
// SetFaultInjector, BeforeRun is called inside the worker's recovery and
// deadline scope immediately before each simulation attempt, so a hook
// that panics exercises panic isolation, a hook that sleeps past the
// scenario deadline exercises timeout handling, and a hook that returns
// an error exercises retry/backoff (fail-N-times-then-succeed). The ctx
// carries the attempt's deadline; hooks that sleep should select on it.
//
// Production code never installs an injector; the nil fast path is one
// atomic load per attempt.
type FaultInjector struct {
	BeforeRun func(ctx context.Context, f Fault) error
}

// faultHolder wraps the injector for atomic publication.
type faultHolder struct {
	mu sync.RWMutex
	fi *FaultInjector
}

func (h *faultHolder) get() *FaultInjector {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.fi
}

func (h *faultHolder) set(fi *FaultInjector) {
	h.mu.Lock()
	h.fi = fi
	h.mu.Unlock()
}

// SetFaultInjector installs (or, with nil, removes) the chaos hook.
// Test-only: it exists so the fault-injection suite can drive every
// recovery path deterministically.
func (s *Service) SetFaultInjector(fi *FaultInjector) { s.faults.set(fi) }

// runRecovered executes one simulation attempt of the member scenarios
// inside the panic isolation boundary: a panic anywhere below — the
// twin, the power engine, the cooling solver, or an injected fault — is
// converted to a *PanicError instead of unwinding the worker goroutine
// and killing the process. It is counted once per member, as each
// member's span records the attempt.
func (sw *Sweep) runRecovered(ctx context.Context, members []int, attempt int) (res []*core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			sw.svc.panics.Add(uint64(len(members)))
			res, err = nil, &PanicError{Value: rec, Stack: string(debug.Stack())}
		}
	}()
	if fi := sw.svc.faults.get(); fi != nil && fi.BeforeRun != nil {
		for _, i := range members {
			if err := fi.BeforeRun(ctx, Fault{
				SpecHash:     sw.specHash,
				ScenarioHash: sw.hashes[i],
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
		scs[k] = sw.scenarios[i]
	}
	// Coordinator mode: hand the attempt to the remote compute tier,
	// which never gets a group. Telemetry-writer scenarios stay local —
	// their side effect cannot cross the wire, and the coordinator holds
	// the compiled spec anyway.
	if r := sw.svc.runner; r != nil && scs[0].TelemetryTo == nil {
		res, err := r.RunScenario(ctx, RunRequest{
			Spec:         sw.spec,
			SpecHash:     sw.specHash,
			Scenario:     scs[0],
			ScenarioHash: sw.hashes[members[0]],
			Index:        members[0],
			Attempt:      attempt,
		})
		if err != nil {
			return nil, err
		}
		return []*core.Result{res}, nil
	}
	return sw.compiled.Twin().RunLockstep(ctx, scs)
}
