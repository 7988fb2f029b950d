package service

// Memory-tier hits settled at submit: a fully cached resubmission is
// finished when Submit returns and journaled in one sealed create, a
// half-cached sweep carries its hits in the create and recovers them
// as cached while only its new scenarios requeue, and TelemetryTo
// scenarios and in-flight keys are left to resolve. Plus the
// submit-path benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/obs"
	"exadigit/internal/store"
)

// storeOps reads one exadigit_store_ops_total series from a scrape.
func storeOps(t *testing.T, reg *obs.Registry, op string) float64 {
	t.Helper()
	id := obs.ExpoSeries{Name: "exadigit_store_ops_total", Labels: map[string]string{"op": op}}.ID()
	v, ok := scrapeExposition(t, reg).Series()[id]
	if !ok {
		t.Fatalf("series %s not in scrape", id)
	}
	return v
}

// journalLineTypes lists the "type" of every line of a sweep's journal.
func journalLineTypes(t *testing.T, dir, id string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "sweeps", id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte{'\n'}), []byte{'\n'}) {
		var l struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("journal %s line %q: %v", id, line, err)
		}
		types = append(types, l.Type)
	}
	return types
}

// wantJournalLines checks a journal's line types: header, payload,
// records scenario lines, then the end line when ended.
func wantJournalLines(t *testing.T, dir, id string, records int, ended bool) {
	t.Helper()
	want := []string{"sweep", "payload"}
	for i := 0; i < records; i++ {
		want = append(want, "scenario")
	}
	if ended {
		want = append(want, "end")
	}
	got := journalLineTypes(t, dir, id)
	if len(got) != len(want) {
		t.Fatalf("journal %s lines %v, want %v", id, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("journal %s lines %v, want %v", id, got, want)
		}
	}
}

// TestCachedResubmissionSealedAtCreate: resubmitting a finished sweep's
// scenarios settles every one from the memory tier before Submit
// returns, writes one journal create (header, payload, a record per
// scenario and the end line) and no append, and the sealed journal
// recovers as the same finished sweep.
func TestCachedResubmissionSealedAtCreate(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	scenarios := []core.Scenario{synthScenario(701, 900), synthScenario(702, 900), synthScenario(703, 900)}
	waitSweep(t, mustSubmit(t, svc1, scenarios, SweepOptions{Name: "warm"}))

	creates := storeOps(t, svc1.Registry(), "journal_create")
	appends := storeOps(t, svc1.Registry(), "journal_append")
	sw := mustSubmit(t, svc1, scenarios, SweepOptions{Name: "cached", Key: "cached-key"})
	at := sw.Status()
	if !at.Finished || at.Cached != len(scenarios) {
		t.Fatalf("status when Submit returned: %+v, want finished with every scenario cached", at)
	}
	for _, sc := range at.Scenarios {
		if sc.State != StateCached || !sc.CacheHit {
			t.Fatalf("scenario %d: state %s cache_hit %v, want cached hit", sc.Index, sc.State, sc.CacheHit)
		}
	}
	for i, res := range sw.Results() {
		if res == nil || res.Report == nil {
			t.Fatalf("scenario %d: no result", i)
		}
	}
	waitSweep(t, sw)
	if got := storeOps(t, svc1.Registry(), "journal_create"); got != creates+1 {
		t.Fatalf("journal_create %v -> %v, want one more", creates, got)
	}
	if got := storeOps(t, svc1.Registry(), "journal_append"); got != appends {
		t.Fatalf("journal_append %v -> %v, want unchanged", appends, got)
	}
	wantJournalLines(t, dir, sw.ID(), len(scenarios), true)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 2 || stats.Adopted != 0 || stats.Requeued != 0 {
		t.Fatalf("recover stats %+v, want 2 finished", stats)
	}
	got, ok := svc2.Sweep(sw.ID())
	if !ok {
		t.Fatalf("sealed sweep %s not recovered", sw.ID())
	}
	rs := got.Status()
	if !rs.Finished || rs.Key != "cached-key" || rs.Cached != len(scenarios) {
		t.Fatalf("recovered status %+v", rs)
	}
	for i, sc := range rs.Scenarios {
		want := at.Scenarios[i]
		if sc.State != want.State || sc.CacheHit != want.CacheHit || sc.Hash != want.Hash || sc.Name != want.Name {
			t.Fatalf("scenario %d recovered as %+v, was %+v", i, sc, want)
		}
	}
}

// TestHalfCachedSweepRecoversHits: a sweep mixing cached and new
// scenarios journals its hits in the create; killed while the new ones
// are still running, it recovers with the hits cached and only the new
// scenarios requeued.
func TestHalfCachedSweepRecoversHits(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	old := []core.Scenario{synthScenario(711, 900), synthScenario(712, 900)}
	waitSweep(t, mustSubmit(t, svc1, old, SweepOptions{Name: "warm"}))

	fresh := []core.Scenario{synthScenario(713, 900), synthScenario(714, 900)}
	freshHash := make(map[string]bool)
	for _, sc := range fresh {
		h, err := HashScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		freshHash[h] = true
	}
	entered := make(chan struct{}, len(fresh))
	gate := make(chan struct{})
	svc1.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if !freshHash[f.ScenarioHash] {
				return nil
			}
			entered <- struct{}{}
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return ctx.Err()
		},
	})
	appends := st1.Stats().JournalAppends
	mixed := []core.Scenario{old[0], fresh[0], old[1], fresh[1]}
	sw := mustSubmit(t, svc1, mixed, SweepOptions{Name: "half", Key: "half-key"})
	at := sw.Status()
	if at.Cached != len(old) || at.Finished {
		t.Fatalf("status when Submit returned: %+v, want %d cached and unfinished", at, len(old))
	}
	for range fresh {
		<-entered
	}
	if got := st1.Stats().JournalAppends; got != appends {
		t.Fatalf("journal appends %d -> %d while only hits are final", appends, got)
	}
	wantJournalLines(t, dir, sw.ID(), len(old), false)

	sw.DetachJournal()
	svc1.CancelAll()
	close(gate)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Terminal != len(old) || stats.Requeued != len(fresh) {
		t.Fatalf("recover stats %+v, want 1 adopted, %d terminal, %d requeued", stats, len(old), len(fresh))
	}
	got, ok := svc2.Sweep(sw.ID())
	if !ok {
		t.Fatalf("sweep %s not recovered", sw.ID())
	}
	final := waitSweep(t, got)
	for i, sc := range final.Scenarios {
		hit := i%2 == 0 // mixed interleaves old and fresh
		switch {
		case hit && (sc.State != StateCached || !sc.CacheHit):
			t.Fatalf("hit %d recovered as %s (cache_hit %v)", i, sc.State, sc.CacheHit)
		case !hit && sc.State != StateDone:
			t.Fatalf("new scenario %d finished %s, want done", i, sc.State)
		}
	}
	if p := st2.Stats().Puts; p != uint64(len(fresh)) {
		t.Fatalf("post-restart puts = %d, want %d (hits recomputed?)", p, len(fresh))
	}
}

// TestSettleLeavesTelemetryAndInFlight: a TelemetryTo scenario is never
// settled from the memory tier, and a key whose computation is still in
// flight is not settled at submit — it is left to resolve, which waits
// on the leader and serves the hit from memory.
func TestSettleLeavesTelemetryAndInFlight(t *testing.T) {
	svc := New(Options{Workers: 2})
	plain, slow := synthScenario(721, 900), synthScenario(722, 900)
	waitSweep(t, mustSubmit(t, svc, []core.Scenario{plain}, SweepOptions{}))

	// Every attempt of plain's or slow's key reports in and holds until
	// its gate opens, so no run can finish before the status is read.
	gates := make(map[string]chan struct{})
	for _, sc := range []core.Scenario{plain, slow} {
		h, err := HashScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		gates[h] = make(chan struct{})
	}
	entered := make(chan string, 2)
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if gate, ok := gates[f.ScenarioHash]; ok {
				entered <- f.ScenarioHash
				select {
				case <-gate:
				case <-ctx.Done():
				}
			}
			return ctx.Err()
		},
	})

	var buf bytes.Buffer
	streamed := plain // same key: TelemetryTo is not part of the hash
	streamed.TelemetryTo = &buf
	sw := mustSubmit(t, svc, []core.Scenario{streamed}, SweepOptions{})
	if sc := sw.Status().Scenarios[0]; sc.Terminal() {
		t.Fatalf("TelemetryTo scenario settled at submit: %+v", sc)
	}
	close(gates[<-entered])
	if sc := waitSweep(t, sw).Scenarios[0]; sc.State != StateDone || sc.CacheHit || buf.Len() == 0 {
		t.Fatalf("TelemetryTo scenario %+v, %d telemetry bytes; want a fresh run", sc, buf.Len())
	}

	leader := mustSubmit(t, svc, []core.Scenario{slow}, SweepOptions{})
	inFlight := <-entered
	waiter := mustSubmit(t, svc, []core.Scenario{slow}, SweepOptions{})
	if sc := waiter.Status().Scenarios[0]; sc.Terminal() {
		t.Fatalf("in-flight key settled at submit: %+v", sc)
	}
	close(gates[inFlight])
	if sc := waitSweep(t, leader).Scenarios[0]; sc.State != StateDone {
		t.Fatalf("leader %+v", sc)
	}
	if sc := waitSweep(t, waiter).Scenarios[0]; sc.State != StateCached || !sc.CacheHit {
		t.Fatalf("waiter %+v, want a memory hit through resolve", sc)
	}
}

func mustSubmit(t testing.TB, svc *Service, scenarios []core.Scenario, opts SweepOptions) *Sweep {
	t.Helper()
	sw, err := svc.Submit(config.Frontier(), scenarios, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// BenchmarkCachedSweepSubmit times the cached-read path a warm service
// serves most: submitting an 8-scenario sweep whose results are all in
// the memory tier, through to the sweep being done, over a disk store.
// journal_fsyncs/op counts the journal's creates plus appends per sweep.
func BenchmarkCachedSweepSubmit(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st})
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(730+i), 900)
	}
	wait := func() {
		sw := mustSubmit(b, svc, scenarios, SweepOptions{})
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := sw.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		if st := sw.Status(); st.Done+st.Cached != len(scenarios) {
			b.Fatalf("sweep status %+v", st)
		}
	}
	wait() // computes and caches every scenario
	before := st.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait()
	}
	b.StopTimer()
	after := st.Stats()
	fsyncs := (after.JournalCreates - before.JournalCreates) + (after.JournalAppends - before.JournalAppends)
	b.ReportMetric(float64(fsyncs)/float64(b.N), "journal_fsyncs/op")
	svc.Close()
}
