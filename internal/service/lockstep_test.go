package service

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

var powerModes = []string{"ac-baseline", "smart-rectifier", "dc380"}

// modeScenarios returns, per policy, the three power-mode siblings of
// one uncooled report-only day — lockstep candidates.
func modeScenarios(seed int64, policies ...string) []core.Scenario {
	var out []core.Scenario
	for _, pol := range policies {
		for _, mode := range powerModes {
			sc := synthScenario(seed, 1800)
			sc.Name = pol + "-" + mode
			sc.Policy, sc.PowerMode, sc.NoHistory = pol, mode, true
			out = append(out, sc)
		}
	}
	return out
}

// sweepSpans returns the sweep's lifecycle spans by scenario index.
func sweepSpans(svc *Service, id string) map[int]obs.Span {
	out := make(map[int]obs.Span)
	for _, sp := range svc.Tracer().Snapshot() {
		if sp.Sweep == id {
			out[sp.Index] = sp
		}
	}
	return out
}

// lockstepSizes lists the group size each attempt of a span ran in.
func lockstepSizes(sp obs.Span) []int {
	var out []int
	for _, a := range sp.Attempts {
		out = append(out, a.Lockstep)
	}
	return out
}

// assertSoloReports checks every result against its scenario's own
// solo run, report JSON for report JSON.
func assertSoloReports(t *testing.T, scs []core.Scenario, results []*core.Result, skip ...int) {
	t.Helper()
	cs, err := core.Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	skipped := make(map[int]bool)
	for _, i := range skip {
		skipped[i] = true
	}
	for i, sc := range scs {
		if skipped[i] {
			continue
		}
		want, err := cs.Twin().Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil || results[i].Scenario.Name != sc.Name {
			t.Fatalf("scenario %d: result %+v does not carry its own scenario", i, results[i])
		}
		w, _ := json.Marshal(want.Report)
		g, _ := json.Marshal(results[i].Report)
		if string(w) != string(g) {
			t.Fatalf("scenario %d (%s): sweep report differs from the solo run:\nsolo  %s\nsweep %s", i, sc.Name, w, g)
		}
	}
}

func sameSizes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSweepRunsModeSiblingsInLockstep: the first dispatch runs alone;
// every later one takes its still-queued power-mode siblings along while
// the sweep has more scenarios left than slots it could use — under a
// max_concurrent of one, and with more workers than processors — and
// each member still resolves, caches and stores under its own key with
// its solo report.
func TestSweepRunsModeSiblingsInLockstep(t *testing.T) {
	for name, tc := range map[string]struct {
		workers, procs, maxConcurrent int
	}{
		"max_concurrent": {workers: 1, procs: runtime.GOMAXPROCS(0), maxConcurrent: 1},
		"oversubscribed": {workers: 6, procs: 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			svc := New(Options{Workers: tc.workers, Store: st})
			scs := modeScenarios(5, "fcfs", "easy")
			sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{MaxConcurrent: tc.maxConcurrent})
			if err != nil {
				t.Fatal(err)
			}
			stat := waitSweep(t, sw)
			if stat.Done != len(scs) {
				t.Fatalf("final status: %+v", stat)
			}
			assertSoloReports(t, scs, sw.Results())
			spans := sweepSpans(svc, sw.ID())
			want := []int{0, 2, 2, 3, 3, 3}
			for i, size := range want {
				if got := lockstepSizes(spans[i]); !sameSizes(got, []int{size}) {
					t.Errorf("scenario %d ran in groups %v, want [%d]", i, got, size)
				}
				if spans[i].CacheTier != tierCompute {
					t.Errorf("scenario %d tier %q", i, spans[i].CacheTier)
				}
			}
			if st.Len() != len(scs) {
				t.Errorf("store holds %d entries, want %d", st.Len(), len(scs))
			}
			if got := svc.res.misses.Value(); got != uint64(len(scs)) {
				t.Errorf("misses = %d, want one per scenario", got)
			}
			// Every member is cached under its own key: resubmitting is all hits.
			again, err := svc.Submit(config.Frontier(), scs, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitSweep(t, again); st.Cached != len(scs) {
				t.Fatalf("resubmission not served from cache: %+v", st)
			}
		})
	}
}

// TestLockstepMemberLeavesGroup: a member another submitter is already
// computing, one the durable store holds, and one whose lease another
// node holds each leave the group and resolve alone; the rest still run
// in lockstep.
func TestLockstepMemberLeavesGroup(t *testing.T) {
	scs := append([]core.Scenario{synthScenario(99, 900)}, modeScenarios(7, "sjf")...)
	const x = 3 // the dc380 member
	specHash, err := func() (string, error) { s := config.Frontier(); return s.Hash() }()
	if err != nil {
		t.Fatal(err)
	}
	hashX, err := HashScenario(scs[x])
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, svc *Service, sw *Sweep, tier string) {
		t.Helper()
		stat := waitSweep(t, sw)
		if stat.Failed != 0 || stat.Cancelled != 0 {
			t.Fatalf("final status: %+v", stat)
		}
		spans := sweepSpans(svc, sw.ID())
		for i := 1; i < x; i++ {
			if got := lockstepSizes(spans[i]); !sameSizes(got, []int{2}) {
				t.Errorf("member %d ran in groups %v, want [2]", i, got)
			}
		}
		if spans[x].CacheTier != tier || len(spans[x].Attempts) > 1 || (len(spans[x].Attempts) == 1 && spans[x].Attempts[0].Lockstep != 0) {
			t.Errorf("leaving member: tier %q attempts %+v, want tier %q alone", spans[x].CacheTier, spans[x].Attempts, tier)
		}
		assertSoloReports(t, scs, sw.Results())
	}

	t.Run("single-flight", func(t *testing.T) {
		svc := New(Options{Workers: 2})
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		svc.SetFaultInjector(&FaultInjector{BeforeRun: func(ctx context.Context, f Fault) error {
			if f.ScenarioHash == hashX && f.Attempt == 1 {
				once.Do(func() { close(started) })
				<-release
			}
			return nil
		}})
		other, err := svc.Submit(config.Frontier(), []core.Scenario{scs[x]}, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for st := sw.Status(); st.Scenarios[1].State != StateDone || st.Scenarios[2].State != StateDone; st = sw.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("group did not finish while its sibling waited: %+v", st)
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(release)
		waitSweep(t, other)
		check(t, svc, sw, tierMemory)
	})

	t.Run("disk", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		warm := New(Options{Workers: 2, Store: st})
		first, err := warm.Submit(config.Frontier(), []core.Scenario{scs[x]}, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitSweep(t, first)
		svc := New(Options{Workers: 2, Store: st})
		sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, svc, sw, tierDisk)
	})

	t.Run("lease", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		held, err := st.AcquireLease(specHash, hashX, "another-node", time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Options{Workers: 2, Store: st, LeaseTTL: time.Second})
		sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(60 * time.Second)
		for s := sw.Status(); s.Scenarios[1].State != StateDone || s.Scenarios[2].State != StateDone; s = sw.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("group did not finish while its sibling waited on the lease: %+v", s)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if s := sw.Status().Scenarios[x]; s.Terminal() {
			t.Fatalf("member under another node's lease settled before the lease went away: %+v", s)
		}
		held.Release()
		check(t, svc, sw, tierCompute)
	})
}

// TestLockstepGroupFailureFallsBack: a failed, panicked or timed-out
// group attempt is attempt 1 of every member, and each member then
// continues alone in its ordinary retry loop, ending with its solo
// report. The failure counters count the attempt once per member span.
// The fallback keeps the sweep's max_concurrent: with a limit of one,
// no two attempts ever run at once.
func TestLockstepGroupFailureFallsBack(t *testing.T) {
	for _, kind := range []string{"error", "panic", "timeout"} {
		t.Run(kind, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			svc := New(chaosOptions(st))
			scs := append([]core.Scenario{synthScenario(99, 900)}, modeScenarios(3, "fcfs")...)
			var running, most atomic.Int32
			svc.SetFaultInjector(&FaultInjector{BeforeRun: func(ctx context.Context, f Fault) error {
				n := running.Add(1)
				defer running.Add(-1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				time.Sleep(5 * time.Millisecond) // widen the window an overlap would show in
				if f.Index != 2 || f.Attempt != 1 {
					return nil
				}
				switch kind {
				case "panic":
					panic("lockstep: injected panic")
				case "timeout":
					<-ctx.Done()
					return nil
				}
				return errors.New("lockstep: injected failure")
			}})
			sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{ScenarioTimeout: time.Second, MaxConcurrent: 1})
			if err != nil {
				t.Fatal(err)
			}
			stat := waitSweep(t, sw)
			if stat.Done != len(scs) {
				t.Fatalf("final status: %+v", stat)
			}
			if m := most.Load(); m != 1 {
				t.Errorf("%d attempts ran at once under max_concurrent 1", m)
			}
			assertSoloReports(t, scs, sw.Results())
			spans := sweepSpans(svc, sw.ID())
			for i := 1; i < len(scs); i++ {
				sp := spans[i]
				if stat.Scenarios[i].Attempts != 2 || !sameSizes(lockstepSizes(sp), []int{3, 0}) {
					t.Fatalf("member %d: %d attempts in groups %v, want 2 in [3 0]", i, stat.Scenarios[i].Attempts, lockstepSizes(sp))
				}
				if sp.Attempts[0].Outcome != kind || sp.Attempts[1].Outcome != "ok" {
					t.Errorf("member %d outcomes %q, %q; want %q, ok", i, sp.Attempts[0].Outcome, sp.Attempts[1].Outcome, kind)
				}
			}
			counter := map[string]*obs.Counter{"panic": svc.res.panics, "timeout": svc.res.timeouts}[kind]
			if counter != nil && counter.Value() != 3 {
				t.Errorf("%s counter = %d, want 3 (one per member span)", kind, counter.Value())
			}
			if got := svc.res.retries.Value(); got != 3 {
				t.Errorf("retries = %d, want 3", got)
			}
			if st.Len() != len(scs) {
				t.Errorf("store holds %d entries, want %d", st.Len(), len(scs))
			}
		})
	}
}

// TestLockstepCancelDiscardsMembers: cancelling a sweep mid group run
// cancels every member; none is cached, stored or given a result.
func TestLockstepCancelDiscardsMembers(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := New(chaosOptions(st))
	scs := append([]core.Scenario{synthScenario(99, 900)}, modeScenarios(4, "easy")...)
	started := make(chan struct{})
	svc.SetFaultInjector(&FaultInjector{BeforeRun: func(ctx context.Context, f Fault) error {
		if f.Index == 1 {
			close(started)
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}})
	sw, err := svc.Submit(config.Frontier(), scs, SweepOptions{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	sw.Cancel()
	stat := waitSweep(t, sw)
	results := sw.Results()
	for i := 1; i < len(scs); i++ {
		if stat.Scenarios[i].State != StateCancelled || results[i] != nil {
			t.Fatalf("member %d: %+v", i, stat.Scenarios[i])
		}
		if _, ok := svc.res.cache.peek(sw.SpecHash() + ":" + sw.ScenarioHashes()[i]); ok {
			t.Errorf("member %d cached after cancel", i)
		}
		if _, err := st.Get(sw.SpecHash(), sw.ScenarioHashes()[i]); err == nil {
			t.Errorf("member %d stored after cancel", i)
		}
	}
	if got := svc.pending.Load(); got != 0 {
		t.Errorf("pending not drained: %d", got)
	}
}

// localRunner is a ScenarioRunner computing on the local twin, counting
// its calls.
type localRunner struct {
	mu    sync.Mutex
	calls int
	cs    *core.CompiledSpec
}

func (r *localRunner) RunScenario(ctx context.Context, req RunRequest) (*core.Result, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	return r.cs.Twin().RunContext(ctx, req.Scenario)
}

// TestLockstepNotUnderRunnerOrSingleAttempt: a remote runner keeps
// per-scenario dispatch, a one-attempt budget never groups, and neither
// do siblings that each have an idle worker slot and processor.
func TestLockstepNotUnderRunnerOrSingleAttempt(t *testing.T) {
	scs := modeScenarios(6, "fcfs", "sjf")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(scs)))
	cs, err := core.Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	run := &localRunner{cs: cs}
	for name, tc := range map[string]struct {
		opts  Options
		sweep SweepOptions
	}{
		"runner":         {Options{Workers: 2, Runner: run}, SweepOptions{}},
		"single attempt": {Options{Workers: 2}, SweepOptions{MaxAttempts: 1}},
		"idle workers":   {Options{Workers: len(scs)}, SweepOptions{}},
	} {
		svc := New(tc.opts)
		sw, err := svc.Submit(config.Frontier(), scs, tc.sweep)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitSweep(t, sw); st.Done != len(scs) {
			t.Fatalf("%s: final status %+v", name, st)
		}
		for i, sp := range sweepSpans(svc, sw.ID()) {
			if got := lockstepSizes(sp); !sameSizes(got, []int{0}) {
				t.Errorf("%s: scenario %d ran in groups %v", name, i, got)
			}
		}
		assertSoloReports(t, scs, sw.Results())
	}
	if run.calls != len(scs) {
		t.Errorf("runner got %d calls for %d scenarios", run.calls, len(scs))
	}
}
