package service

// The fault-injection (chaos) suite — run standalone via `make chaos`.
// Every recovery path of the per-scenario failure domain is pinned here:
// worker panics recovered into typed errors, deadline overruns retried,
// fail-N-times-then-succeed transients, permanent failures reported
// per-scenario without poisoning the sweep, truncated store entries
// quarantined at startup and at read time, and queue saturation refused
// with backpressure instead of accepted and dropped.

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/store"
)

// chaosOptions are fast-retry service options for the suite (waiting out
// production backoff would dominate test wall time).
func chaosOptions(st *store.Store) Options {
	return Options{
		Workers:        4,
		Store:          st,
		MaxAttempts:    3,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  5 * time.Millisecond,
	}
}

// TestChaosSweepSurvivesInjectedFaults is the acceptance chaos test: a
// 32-scenario sweep with a panic on one scenario, a deadline overrun on
// another, a fail-twice-then-succeed transient on a third, and one
// permanently failing scenario completes with correct results for every
// non-permanently-failed scenario — the process never dies, the sweep
// never hangs, and the durable store ends up holding every success.
func TestChaosSweepSurvivesInjectedFaults(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(chaosOptions(st))
	const (
		panicIdx     = 3
		timeoutIdx   = 7
		transientIdx = 11
		permIdx      = 13
		n            = 32
	)
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			switch {
			case f.Index == panicIdx && f.Attempt == 1:
				panic("chaos: injected worker panic")
			case f.Index == timeoutIdx && f.Attempt == 1:
				// Inject latency past the scenario deadline; the hook
				// honors the attempt ctx like a well-behaved slow stage.
				<-ctx.Done()
				return nil
			case f.Index == transientIdx && f.Attempt <= 2:
				return errors.New("chaos: injected transient failure")
			case f.Index == permIdx:
				return errors.New("chaos: injected permanent failure")
			}
			return nil
		},
	})

	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(9000+i), 900)
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{
		Name:            "chaos",
		ScenarioTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Done != n-1 || stat.Failed != 1 || stat.Cancelled != 0 {
		t.Fatalf("chaos sweep final status: %+v", stat)
	}

	results := sw.Results()
	for i, sc := range stat.Scenarios {
		if i == permIdx {
			if sc.State != StateFailed {
				t.Fatalf("permanent scenario %d not failed: %+v", i, sc)
			}
			if !strings.Contains(sc.Error, "after 3 attempt") || !strings.Contains(sc.Error, "permanent failure") {
				t.Fatalf("permanent failure not reported as ScenarioError: %q", sc.Error)
			}
			if sc.Attempts != 3 {
				t.Fatalf("permanent scenario consumed %d attempts, want 3", sc.Attempts)
			}
			continue
		}
		if sc.State != StateDone || results[i] == nil || results[i].Report == nil {
			t.Fatalf("scenario %d did not recover: %+v", i, sc)
		}
	}
	// The recovered scenarios record their retry consumption.
	if got := stat.Scenarios[panicIdx].Attempts; got != 2 {
		t.Errorf("panicked scenario attempts = %d, want 2", got)
	}
	if got := stat.Scenarios[timeoutIdx].Attempts; got != 2 {
		t.Errorf("timed-out scenario attempts = %d, want 2", got)
	}
	if got := stat.Scenarios[transientIdx].Attempts; got != 3 {
		t.Errorf("transient scenario attempts = %d, want 3", got)
	}

	if got := svc.panics.Value(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}
	if got := svc.timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
	// panic retry + timeout retry + two transient retries = 4 (the
	// permanent scenario adds 2 more).
	if got := svc.retries.Value(); got != 6 {
		t.Errorf("retries = %d, want 6", got)
	}
	if got := svc.pending.Load(); got != 0 {
		t.Errorf("pending not drained after sweep: %d", got)
	}
	// Every success was persisted; the failure was not.
	if st.Len() != n-1 {
		t.Errorf("store holds %d entries, want %d", st.Len(), n-1)
	}
}

// TestChaosPanicEveryAttemptIsPermanentTypedFailure: a scenario that
// panics on every attempt exhausts its budget and surfaces as a
// *ScenarioError wrapping a *PanicError — typed all the way through.
func TestChaosPanicEveryAttemptIsPermanentTypedFailure(t *testing.T) {
	svc := New(chaosOptions(nil))
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.Index == 0 {
				panic("chaos: poisoned scenario")
			}
			return nil
		},
	})
	scenarios := []core.Scenario{synthScenario(9101, 900), synthScenario(9102, 900)}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Failed != 1 || stat.Done != 1 {
		t.Fatalf("final status: %+v", stat)
	}
	if got := stat.Scenarios[0].Error; !strings.Contains(got, "panicked") || !strings.Contains(got, "poisoned") {
		t.Fatalf("panic cause lost from reported error: %q", got)
	}
	if got := svc.panics.Value(); got != 3 {
		t.Fatalf("want 3 recovered panics, got %d", got)
	}
}

// TestChaosDeadlineOverrunEveryAttempt: injected latency past the
// deadline on every attempt makes the scenario fail permanently with the
// deadline in its error, while a sibling scenario is untouched.
func TestChaosDeadlineOverrunEveryAttempt(t *testing.T) {
	svc := New(chaosOptions(nil))
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.Index == 0 {
				<-ctx.Done()
			}
			return nil
		},
	})
	scenarios := []core.Scenario{synthScenario(9201, 900), synthScenario(9202, 900)}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{
		ScenarioTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw)
	if stat.Failed != 1 || stat.Done != 1 {
		t.Fatalf("final status: %+v", stat)
	}
	if got := stat.Scenarios[0].Error; !strings.Contains(got, "deadline") {
		t.Fatalf("timeout not reported: %q", got)
	}
	if tm := svc.timeouts.Value(); tm != 3 {
		t.Fatalf("timeouts = %d, want 3", tm)
	}
}

// TestChaosTruncatedStoreEntryHealed: a store entry truncated behind the
// index's back is quarantined at read time, the scenario recomputed, and
// the recomputed result re-persisted — the self-healing path. A fresh
// Open over the same directory must also quarantine a truncation at
// startup (both detection points are exercised).
func TestChaosTruncatedStoreEntryHealed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(chaosOptions(st))
	scenarios := []core.Scenario{synthScenario(9301, 900), synthScenario(9302, 900)}
	spec := config.Frontier()
	sw, err := svc.Submit(spec, scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	if st.Len() != 2 {
		t.Fatalf("store holds %d entries, want 2", st.Len())
	}

	// Truncate one entry in place (index still trusts it).
	path := st.EntryPath(sw.SpecHash(), sw.ScenarioHashes()[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/3); err != nil {
		t.Fatal(err)
	}

	// A fresh service over the same store (memory cache cold) must
	// detect the corruption at read time, recompute, and re-persist.
	svc2 := New(chaosOptions(st))
	sw2, err := svc2.Submit(spec, scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stat := waitSweep(t, sw2)
	if stat.Done != 1 || stat.Cached != 1 {
		t.Fatalf("post-truncation sweep: %+v (want 1 recomputed + 1 disk hit)", stat)
	}
	if m := st.Stats(); m.CorruptQuarantined != 1 {
		t.Fatalf("corrupt entry not quarantined: %+v", m)
	}
	if st.Len() != 2 {
		t.Fatalf("store not healed: %d entries, want 2", st.Len())
	}

	// Startup-scan detection: truncate again, then reopen the directory.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("startup scan served a truncated entry: %d entries, want 1", st2.Len())
	}
	if m := st2.Stats(); m.CorruptQuarantined != 1 {
		t.Fatalf("startup quarantine not counted: %+v", m)
	}
}

// TestChaosQueueSaturationBackpressure: a saturated queue refuses new
// sweeps with ErrSaturated (counted as a rejection) instead of accepting
// work it cannot reach, and admits again once capacity frees.
func TestChaosQueueSaturationBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var gated atomic.Bool
	opts := chaosOptions(nil)
	opts.Workers = 1
	opts.MaxPending = 2
	svc := New(opts)
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if gated.Load() {
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
			return nil
		},
	})
	gated.Store(true)
	spec := config.Frontier()
	sw, err := svc.Submit(spec, []core.Scenario{synthScenario(9401, 900), synthScenario(9402, 900)}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	_, err = svc.Submit(spec, []core.Scenario{synthScenario(9403, 900)}, SweepOptions{})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated queue accepted work: %v", err)
	}
	if rej := svc.rejections.Value(); rej != 1 {
		t.Fatalf("rejections = %d, want 1", rej)
	}

	gated.Store(false)
	close(gate)
	waitSweep(t, sw)
	sw2, err := svc.Submit(spec, []core.Scenario{synthScenario(9403, 900)}, SweepOptions{})
	if err != nil {
		t.Fatalf("queue did not recover after drain: %v", err)
	}
	waitSweep(t, sw2)
}

// TestChaosCloseThenDrain: Close rejects new sweeps with ErrClosed while
// already-admitted sweeps run to completion under Drain — the graceful
// shutdown sequence.
func TestChaosCloseThenDrain(t *testing.T) {
	svc := New(chaosOptions(nil))
	spec := config.Frontier()
	sw, err := svc.Submit(spec, []core.Scenario{synthScenario(9501, 1800)}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(spec, []core.Scenario{synthScenario(9502, 900)}, SweepOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed service accepted a sweep: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := sw.Status(); !st.Finished || st.Done != 1 {
		t.Fatalf("drained sweep not finished: %+v", st)
	}
}
