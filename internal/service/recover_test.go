package service

// Recovery over the journal's header/payload layout: scenario names
// served from the header alone, journals written before the split (the
// committed testdata/parent-journals fixture) recovering finished and
// resuming incomplete, a bad payload rejecting only the resume that
// needs it, the recovery wall-time gauge, a torn-tail sweep finishing
// once, finished sweeps adopted with their records unread (served as if
// read at recovery, listed without reading them), a journal an older
// build fused resuming once more and finishing whole, and the restart
// benchmarks, without and with a request for every recovered sweep.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/store"
)

// journalRefusedSweep writes, straight into the store, the journal of
// an incomplete sweep over spec and scenarios, as a build that admitted
// them would have left it when killed before any finished. It returns
// the sweep id.
func journalRefusedSweep(t *testing.T, st *store.Store, spec config.SystemSpec, scenarios []core.Scenario, maxAttempts int) string {
	t.Helper()
	specHash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]ScenarioRequest, len(scenarios))
	hashes := make([]string, len(scenarios))
	names := make([]string, len(scenarios))
	for i, sc := range scenarios {
		if reqs[i], err = ScenarioRequestFrom(sc); err != nil {
			t.Fatal(err)
		}
		if hashes[i], err = HashScenario(sc); err != nil {
			t.Fatal(err)
		}
		names[i] = sc.Name
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	scenJSON, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	id := newSweepID()
	j, err := st.CreateJournal(&store.SweepManifest{
		ID: id, Name: "refused", SpecHash: specHash, ScenarioHashes: hashes, Names: names,
		SpecJSON: specJSON, ScenariosJSON: scenJSON, MaxAttempts: maxAttempts,
		CreatedUnixNano: time.Now().UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Detach()
	return id
}

// TestRecoverSettlesRefusedScenario: an incomplete journaled sweep that
// holds a scenario the compiled spec's Check refuses (a zero horizon,
// journaled by an older build or edited on disk) resumes with that
// scenario failed at recovery — no attempt, no cache miss, no retry —
// while the rest finish; the failure is journaled, so a second restart
// still reads it. The manifest's oversized retry budget is clamped to
// the server's.
func TestRecoverSettlesRefusedScenario(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := synthScenario(953, 900)
	bad.Name, bad.HorizonSec = "zero-horizon", 0
	scenarios := []core.Scenario{synthScenario(951, 900), bad, synthScenario(952, 900)}
	scenarios[2].Name = "synth-2"
	id := journalRefusedSweep(t, st1, config.Frontier(), scenarios, 2000000000)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Terminal != 1 || stats.Requeued != 2 {
		t.Fatalf("recover stats %+v, want 1 adopted with 1 terminal and 2 requeued", stats)
	}
	sw, ok := svc2.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s not recovered", id)
	}
	if sw.maxAttempts != 3 {
		t.Fatalf("recovered retry budget %d, want the server's 3", sw.maxAttempts)
	}
	final := waitSweep(t, sw)
	refused := final.Scenarios[1]
	if refused.State != StateFailed || refused.Attempts != 0 || !strings.Contains(refused.Error, "horizon_sec") {
		t.Fatalf("refused scenario after recovery: %+v, want failed with 0 attempts naming horizon_sec", refused)
	}
	if final.Done != 2 || final.Failed != 1 {
		t.Fatalf("resumed sweep final status %+v, want 2 done + 1 failed", final)
	}
	if m, r := svc2.res.misses.Value(), svc2.res.retries.Value(); m != 2 || r != 0 {
		t.Fatalf("cache misses %d, retries %d after recovery; want 2 and 0 (the refused scenario never ran)", m, r)
	}

	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc3 := New(chaosOptions(st3))
	if stats, err := svc3.Recover(); err != nil || stats.Finished != 1 {
		t.Fatalf("second restart: stats %+v, err %v; want the sweep recovered finished", stats, err)
	}
	sw3, ok := svc3.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s not recovered after the second restart", id)
	}
	if got := sw3.Status().Scenarios[1]; got.State != StateFailed || got.Attempts != 0 || got.Error != refused.Error {
		t.Fatalf("refused scenario after the second restart: %+v, want %+v", got, refused)
	}
	if m := svc3.res.misses.Value(); m != 0 {
		t.Fatalf("second restart ran %d attempts", m)
	}
}

// TestRecoverSettlesRefusedSpec: an incomplete journal whose payload
// decodes but whose spec this build refuses — a 1e308 W GPU, admitted
// before component powers were bounded — settles every scenario failed
// with no attempt at the first restart, naming the refused field, and
// seals the journal, so the second restart adopts the sweep finished.
func TestRecoverSettlesRefusedSpec(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := config.Frontier()
	spec.Partitions[0].GPUMaxW = 1e308
	id := journalRefusedSweep(t, st1, spec, []core.Scenario{synthScenario(961, 900), synthScenario(962, 900)}, 3)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adopted != 1 || stats.Terminal != 2 || stats.Requeued != 0 {
		t.Fatalf("recover stats %+v, want 1 adopted with 2 terminal and none requeued", stats)
	}
	sw, ok := svc2.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s not served after recovery", id)
	}
	final := waitSweep(t, sw)
	if final.Failed != 2 || !final.Finished {
		t.Fatalf("recovered sweep %+v, want finished with 2 failed", final)
	}
	for _, sc := range final.Scenarios {
		if sc.State != StateFailed || sc.Attempts != 0 || !strings.Contains(sc.Error, "gpu_max_w") {
			t.Fatalf("scenario after recovery: %+v, want failed with 0 attempts naming gpu_max_w", sc)
		}
	}
	if m := svc2.res.misses.Value(); m != 0 {
		t.Fatalf("recovery ran %d attempts", m)
	}

	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc3 := New(chaosOptions(st3))
	if stats, err := svc3.Recover(); err != nil || stats.Finished != 1 || stats.Adopted != 0 {
		t.Fatalf("second restart: stats %+v, err %v; want the sweep recovered finished", stats, err)
	}
	sw3, ok := svc3.Sweep(id)
	if !ok {
		t.Fatalf("sweep %s not served after the second restart", id)
	}
	for i, sc := range sw3.Status().Scenarios {
		if want := final.Scenarios[i]; sc.State != want.State || sc.Attempts != 0 || sc.Error != want.Error {
			t.Fatalf("scenario %d after the second restart: %+v, want %+v", i, sc, want)
		}
	}
}

// scenarioNames lists a status's per-scenario display names.
func scenarioNames(st SweepStatus) []string {
	names := make([]string, len(st.Scenarios))
	for i, sc := range st.Scenarios {
		names[i] = sc.Name
	}
	return names
}

// blockScenario installs a fault injector that holds every attempt of
// the scenario with the given hash until release is closed or the
// attempt is cancelled — the scenario a fabricated kill leaves unfinished.
func blockScenario(svc *Service, hash string, release <-chan struct{}) {
	svc.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			if f.ScenarioHash != hash {
				return nil
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return ctx.Err()
		},
	})
}

// TestRecoverKeepsScenarioNames: a sweep's scenario names, including the
// workload fallback of an unnamed scenario, are identical before and
// after a restart, for a finished sweep (served from the journal header
// without decoding the payload) and for a resumed one.
func TestRecoverKeepsScenarioNames(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	named := func(seed int64, name string) core.Scenario {
		sc := synthScenario(seed, 900)
		sc.Name = name
		return sc
	}
	finished, err := svc1.Submit(config.Frontier(),
		[]core.Scenario{named(611, "alpha"), named(612, ""), named(613, "gamma")}, SweepOptions{Name: "names"})
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]string{finished.ID(): scenarioNames(waitSweep(t, finished))}
	if got := strings.Join(before[finished.ID()], ","); got != "alpha,synthetic,gamma" {
		t.Fatalf("live names = %q", got)
	}

	stuck := named(623, "")
	stuckHash, err := HashScenario(stuck)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blockScenario(svc1, stuckHash, release)
	killed, err := svc1.Submit(config.Frontier(),
		[]core.Scenario{named(621, "delta"), stuck}, SweepOptions{Name: "names-killed"})
	if err != nil {
		t.Fatal(err)
	}
	before[killed.ID()] = scenarioNames(killed.Status())
	killed.DetachJournal()
	svc1.CancelAll()
	close(release)

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 1 || stats.Adopted != 1 {
		t.Fatalf("recover stats %+v, want 1 finished + 1 adopted", stats)
	}
	for id, want := range before {
		sw, ok := svc2.Sweep(id)
		if !ok {
			t.Fatalf("sweep %s not recovered", id)
		}
		if got := scenarioNames(waitSweep(t, sw)); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("sweep %s names %q after restart, want %q", id, got, want)
		}
	}
}

// TestRecoverSetsWallTimeGauge: exadigit_sweep_recover_seconds reads 0
// until a recovery pass has run, then that pass's wall time.
func TestRecoverSetsWallTimeGauge(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	sw, err := svc1.Submit(config.Frontier(), []core.Scenario{synthScenario(631, 900)}, SweepOptions{Name: "gauge"})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	svc1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	defer svc2.Close()
	const gauge = "exadigit_sweep_recover_seconds"
	if v := seriesValue(t, scrapeExposition(t, svc2.reg), gauge); v != 0 {
		t.Fatalf("%s = %v before any recovery, want 0", gauge, v)
	}
	start := time.Now()
	if stats, err := svc2.Recover(); err != nil || stats.Finished != 1 {
		t.Fatalf("recover: %+v, %v", stats, err)
	}
	wall := time.Since(start).Seconds()
	if v := seriesValue(t, scrapeExposition(t, svc2.reg), gauge); v <= 0 || v > wall {
		t.Fatalf("%s = %v after a %v s recovery", gauge, v, wall)
	}
}

// copyParentJournals installs the committed journals written by a build
// from before the header/payload split into a fresh store directory.
func copyParentJournals(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "parent-journals", "*.journal"))
	if err != nil || len(files) != 2 {
		t.Fatalf("parent journal fixture: %v, %d files", err, len(files))
	}
	sweeps := filepath.Join(dir, "sweeps")
	if err := os.MkdirAll(sweeps, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sweeps, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverParentFormatJournals: journals from a build that kept spec
// and scenarios inline in the manifest (and wrote no names) still
// recover. The finished sweep — custom names and one unnamed scenario —
// re-registers with its names, states and key. The incomplete one —
// killed with scenario 0 failed, 1 done but its result not in this
// store, 2 unfinished — resumes: the failure is restored and 1 and 2
// recompute. Once it finishes, its journal (parent header, records
// appended by this build) recovers as finished.
//
// The fixture's hashes are this build's: a change to spec or scenario
// hashing makes recovery recompute the failed scenario instead, and
// this test then fails on the terminal count.
func TestRecoverParentFormatJournals(t *testing.T) {
	const finishedID, incompleteID = "sw-18df5631a8508fc1-71e2867b", "sw-18df5631a8922485-1484b418"
	dir := t.TempDir()
	copyParentJournals(t, dir)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(chaosOptions(st))
	stats, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 1 || stats.Adopted != 1 || stats.Terminal != 1 || stats.Requeued != 2 {
		t.Fatalf("recover stats %+v, want 1 finished, 1 adopted, 1 terminal, 2 requeued", stats)
	}

	fin, ok := svc.Sweep(finishedID)
	if !ok {
		t.Fatalf("finished parent sweep %s not served", finishedID)
	}
	fs := fin.Status()
	if !fs.Finished || !fs.Recovered || fs.Done != 3 || fs.Key != "parent-finished" {
		t.Fatalf("finished parent sweep status %+v", fs)
	}
	if got := strings.Join(scenarioNames(fs), ","); got != "baseline-fcfs,synthetic,hot-day" {
		t.Fatalf("finished parent sweep names %q", got)
	}

	inc, ok := svc.Sweep(incompleteID)
	if !ok {
		t.Fatalf("incomplete parent sweep %s not adopted", incompleteID)
	}
	is := waitSweep(t, inc)
	if is.Done+is.Cached != 2 || is.Failed != 1 || is.Key != "parent-incomplete" {
		t.Fatalf("resumed parent sweep status %+v", is)
	}
	if !strings.Contains(is.Scenarios[0].Error, "injected permanent failure") {
		t.Fatalf("restored failure lost: %+v", is.Scenarios[0])
	}
	if got := strings.Join(scenarioNames(is), ","); got != "doomed,synthetic,stuck" {
		t.Fatalf("resumed parent sweep names %q", got)
	}
	if p := st.Stats().Puts; p != 2 {
		t.Fatalf("resume computed %d scenarios, want 2", p)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err = New(chaosOptions(st2)).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 2 || stats.Adopted != 0 {
		t.Fatalf("second restart stats %+v, want 2 finished", stats)
	}
}

// corruptPayload garbles the payload line of a sweep's journal.
func corruptPayload(t *testing.T, dir, id string) {
	t.Helper()
	path := filepath.Join(dir, "sweeps", id+".journal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if len(lines) < 2 || !bytes.HasPrefix(lines[1], []byte(`{"type":"payload",`)) {
		t.Fatalf("journal %s has no payload line", id)
	}
	lines[1] = []byte("{\"type\":\"payload\",\"payload\":{\"spec\":{\"na\n")
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverBadPayload: a payload line that does not decode fails the
// journal closed, and only where it is read. The incomplete sweep is
// not resumed — logged, journal left in place — while the finished
// sweep, whose payload recovery never reads, re-registers intact.
func TestRecoverBadPayload(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	finished, err := svc1.Submit(config.Frontier(),
		[]core.Scenario{synthScenario(631, 900), synthScenario(632, 900)}, SweepOptions{Name: "bad-payload-done"})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, finished)
	stuck := synthScenario(642, 900)
	stuckHash, err := HashScenario(stuck)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blockScenario(svc1, stuckHash, release)
	killed, err := svc1.Submit(config.Frontier(),
		[]core.Scenario{synthScenario(641, 900), stuck}, SweepOptions{Name: "bad-payload-killed"})
	if err != nil {
		t.Fatal(err)
	}
	killed.DetachJournal()
	svc1.CancelAll()
	close(release)
	corruptPayload(t, dir, finished.ID())
	corruptPayload(t, dir, killed.ID())

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	var mu sync.Mutex
	var logs []string
	svc2.SetLogf(func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Finished != 1 || stats.Adopted != 0 {
		t.Fatalf("recover stats %+v, want the finished sweep only", stats)
	}
	if fs, ok := svc2.Sweep(finished.ID()); !ok || fs.Status().Done != 2 {
		t.Fatalf("finished sweep with a bad payload not re-registered intact (found %v)", ok)
	}
	if _, ok := svc2.Sweep(killed.ID()); ok {
		t.Fatal("sweep with a bad payload resumed")
	}
	if _, err := os.Stat(filepath.Join(dir, "sweeps", killed.ID()+".journal")); err != nil {
		t.Fatalf("rejected journal not left in place: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], killed.ID()) || !strings.Contains(logs[0], "payload") {
		t.Fatalf("logs = %q, want one payload rejection for %s", logs, killed.ID())
	}
}

// recoverShapes are the sweep registries the restart benchmarks
// recover: 256 sweeps of 8 scenarios (the default MaxSweeps retains
// exactly that many) and 64 sweeps of 64.
var recoverShapes = []struct{ sweeps, scenarios int }{{256, 8}, {64, 64}}

// BenchmarkRecover times a restart over a full sweep registry:
// store.Open + New + Recover over finished sweeps journaled by the
// submit path, in each of recoverShapes.
func BenchmarkRecover(b *testing.B) {
	for _, c := range recoverShapes {
		b.Run(fmt.Sprintf("sweeps=%d,scenarios=%d", c.sweeps, c.scenarios), func(b *testing.B) {
			benchmarkRecover(b, c.sweeps, c.scenarios)
		})
	}
}

func benchmarkRecover(b *testing.B, sweeps, perSweep int) {
	dir := journalFinishedSweeps(b, sweeps, perSweep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Options{Workers: 2, Store: st})
		stats, err := svc.Recover()
		if err != nil || stats.Finished != sweeps {
			b.Fatalf("recover: %+v, %v", stats, err)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}

// BenchmarkRecoverThenRead times a restart followed by a request for
// every recovered sweep's status and then its results, in each of
// recoverShapes: the traffic on which leaving a finished sweep's
// journal records unread at recovery saves no decode, only moves it to
// the sweep's first request. It reports recover_ms, the restart alone;
// first_status_ms, every sweep's first Status together, and
// first_status_us_p50 and _max, one sweep's; and live_KiB, the heap the
// recovered service holds before any request.
func BenchmarkRecoverThenRead(b *testing.B) {
	for _, c := range recoverShapes {
		b.Run(fmt.Sprintf("sweeps=%d,scenarios=%d", c.sweeps, c.scenarios), func(b *testing.B) {
			benchmarkRecoverThenRead(b, c.sweeps, c.scenarios)
		})
	}
}

func benchmarkRecoverThenRead(b *testing.B, sweeps, perSweep int) {
	dir := journalFinishedSweeps(b, sweeps, perSweep)
	var recoverDur, statusDur time.Duration
	var live int64
	var firsts []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		base := liveHeap()
		b.StartTimer()
		start := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Options{Workers: 2, Store: st})
		stats, err := svc.Recover()
		if err != nil || stats.Finished != sweeps {
			b.Fatalf("recover: %+v, %v", stats, err)
		}
		recoverDur += time.Since(start)
		b.StopTimer()
		live += liveHeap() - base
		b.StartTimer()
		for _, sum := range svc.List() {
			sw, _ := svc.Sweep(sum.ID)
			t0 := time.Now()
			status := sw.Status()
			firsts = append(firsts, time.Since(t0))
			statusDur += firsts[len(firsts)-1]
			if len(status.Scenarios) != perSweep || status.Done+status.Cached != perSweep {
				b.Fatalf("recovered sweep %s: %+v", sum.ID, status)
			}
			if res := sw.Results(); len(res) != perSweep || res[0] == nil || res[perSweep-1] == nil {
				b.Fatalf("recovered sweep %s: results not served", sum.ID)
			}
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
	slices.Sort(firsts)
	b.ReportMetric(float64(recoverDur.Microseconds())/1e3/float64(b.N), "recover_ms")
	b.ReportMetric(float64(statusDur.Microseconds())/1e3/float64(b.N), "first_status_ms")
	b.ReportMetric(float64(firsts[len(firsts)/2].Nanoseconds())/1e3, "first_status_us_p50")
	b.ReportMetric(float64(firsts[len(firsts)-1].Nanoseconds())/1e3, "first_status_us_max")
	b.ReportMetric(float64(live)/1024/float64(b.N), "live_KiB")
}

// liveHeap is the heap in use after a collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// journalFinishedSweeps runs sweeps sweeps of perSweep scenarios to the
// end against a new store and returns its directory.
func journalFinishedSweeps(b *testing.B, sweeps, perSweep int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st})
	defer svc.Close()
	scenarios := make([]core.Scenario, perSweep)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(500+i), 900)
	}
	for i := 0; i < sweeps; i++ {
		sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{Name: fmt.Sprintf("bench-%d", i)})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = sw.Wait(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// appendFragment leaves a torn fragment at the end of a sweep's
// journal, as a kill mid-append does.
func appendFragment(t *testing.T, dir, id string) {
	t.Helper()
	appendRawJournal(t, dir, id, `{"type":"scenario","scenario":{"ind`)
}

// appendRawJournal appends text to a sweep's journal.
func appendRawJournal(t *testing.T, dir, id, text string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "sweeps", id+".journal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornTailFinishesOnce: a sweep killed with a torn fragment
// at its journal's end resumes, finishes, and at the next restart is
// adopted finished. Appended onto the fragment, the first resumed
// record would fuse with it into an undecodable line, the end line
// would go unread, and every restart would resume the sweep again.
func TestRecoverTornTailFinishesOnce(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	stuck := synthScenario(672, 900)
	stuckHash, err := HashScenario(stuck)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blockScenario(svc1, stuckHash, release)
	killed, err := svc1.Submit(config.Frontier(), []core.Scenario{synthScenario(671, 900), stuck}, SweepOptions{Name: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	waitJournalAppends(t, st1, 1)
	killed.DetachJournal()
	svc1.CancelAll()
	close(release)
	appendFragment(t, dir, killed.ID())

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	if stats, err := svc2.Recover(); err != nil || stats.Adopted != 1 {
		t.Fatalf("first restart: stats %+v, err %v; want the torn sweep adopted", stats, err)
	}
	resumed, _ := svc2.Sweep(killed.ID())
	if fs := waitSweep(t, resumed); fs.Done+fs.Cached != 2 {
		t.Fatalf("resumed torn sweep %+v, want 2 done", fs)
	}

	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc3 := New(chaosOptions(st3))
	stats, err := svc3.Recover()
	if err != nil || stats.Finished != 1 || stats.Adopted != 0 {
		t.Fatalf("second restart: stats %+v, err %v; want Finished 1, Adopted 0", stats, err)
	}
	again, _ := svc3.Sweep(killed.ID())
	if st := again.Status(); st.Done+st.Cached != 2 || !st.Finished {
		t.Fatalf("torn sweep after the second restart: %+v", st)
	}
}

// TestRecoverFusedJournalFinishesWhole: a journal an older build fused
// — resuming a sweep killed with a torn tail, it appended the resumed
// record onto the fragment and then an end line without a tally — is
// read up to the fused line, so the sweep resumes once more. Its
// journal is cut back to the lines the scan reads, so once the sweep
// finishes, the next restart adopts it finished with its records
// unread, and its summary is the same before they are read as after,
// with no tally mismatch logged.
func TestRecoverFusedJournalFinishesWhole(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	stuck := synthScenario(692, 900)
	stuckHash, err := HashScenario(stuck)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	blockScenario(svc1, stuckHash, release)
	killed, err := svc1.Submit(config.Frontier(), []core.Scenario{synthScenario(691, 900), stuck}, SweepOptions{Name: "fused"})
	if err != nil {
		t.Fatal(err)
	}
	waitJournalAppends(t, st1, 1)
	killed.DetachJournal()
	svc1.CancelAll()
	close(release)
	appendFragment(t, dir, killed.ID())
	appendRawJournal(t, dir, killed.ID(),
		`{"type":"scenario","scenario":{"index":1,"hash":"`+stuckHash+`","state":"done","attempts":1}}`+"\n"+
			`{"type":"end","disposition":"complete"}`+"\n")

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	if stats, err := svc2.Recover(); err != nil || stats.Adopted != 1 {
		t.Fatalf("first restart: stats %+v, err %v; want the fused sweep adopted", stats, err)
	}
	resumed, _ := svc2.Sweep(killed.ID())
	if fs := waitSweep(t, resumed); fs.Done+fs.Cached != 2 {
		t.Fatalf("resumed fused sweep %+v, want 2 done", fs)
	}

	r := recoverStore(t, dir)
	sw, _ := r.svc.Sweep(killed.ID())
	if !unread(sw) {
		t.Fatal("finished sweep adopted with its records read")
	}
	list := r.svc.List()
	st := sw.Status()
	if st.Done+st.Cached != 2 || st.Cancelled != 0 || !st.Finished {
		t.Fatalf("fused sweep after the second restart: %+v", st)
	}
	st.Scenarios = nil
	if len(list) != 1 || !reflect.DeepEqual(list[0], st) {
		t.Fatalf("summary before the records were read %+v, after %+v", list, st)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.log) != 0 {
		t.Fatalf("logged %q", r.log)
	}
}

// journalKinds runs, against a store in dir, one finished sweep of each
// kind a lazily adopted journal can hold and returns their ids by kind:
// finished (one scenario failed), cancelled, torn (killed with a torn
// tail, then resumed to the end by a second service), pre-tally (its
// end line's tally stripped, as a build before the tally wrote it) and
// mismatch (a tally that fits the header but not the records).
func journalKinds(t *testing.T, dir string) map[string]string {
	t.Helper()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	failing, stuck := synthScenario(683, 900), synthScenario(689, 900)
	failHash, err := HashScenario(failing)
	if err != nil {
		t.Fatal(err)
	}
	stuckHash, err := HashScenario(stuck)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	svc1.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			switch f.ScenarioHash {
			case failHash:
				return errors.New("chaos: injected permanent failure")
			case stuckHash:
				select {
				case <-release:
				case <-ctx.Done():
				}
				return ctx.Err()
			}
			return nil
		},
	})
	ids := make(map[string]string)
	submit := func(kind string, scs ...core.Scenario) *Sweep {
		sw, err := svc1.Submit(config.Frontier(), scs, SweepOptions{Name: kind, Key: kind + "-key"})
		if err != nil {
			t.Fatal(err)
		}
		ids[kind] = sw.ID()
		return sw
	}
	waitSweep(t, submit("finished", synthScenario(681, 900), synthScenario(682, 900), failing))
	waitSweep(t, submit("pre-tally", synthScenario(684, 900), failing))
	waitSweep(t, submit("mismatch", synthScenario(685, 900), synthScenario(686, 900)))
	appends := st1.Stats().JournalAppends
	cancelled := submit("cancelled", synthScenario(687, 900), stuck)
	waitJournalAppends(t, st1, appends+1)
	cancelled.Cancel()
	waitSweep(t, cancelled)
	appends = st1.Stats().JournalAppends
	killed := submit("torn", synthScenario(688, 900), stuck)
	waitJournalAppends(t, st1, appends+1)
	killed.DetachJournal()
	svc1.CancelAll()
	close(release)
	appendFragment(t, dir, ids["torn"])

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(chaosOptions(st2))
	if stats, err := svc2.Recover(); err != nil || stats.Adopted != 1 || stats.Finished != 4 {
		t.Fatalf("resuming the torn sweep: stats %+v, err %v", stats, err)
	}
	resumed, _ := svc2.Sweep(ids["torn"])
	waitSweep(t, resumed)
	editTally(t, dir, ids["pre-tally"], "")
	editTally(t, dir, ids["mismatch"], `{"done":0,"cached":0,"failed":1}`)
	return ids
}

var tallyField = regexp.MustCompile(`,"tally":\{[^}]*\}`)

// editTally replaces the tally on the end line of a sweep's journal
// with tally ("" strips it); the end line must carry one.
func editTally(t *testing.T, dir, id, tally string) {
	t.Helper()
	path := filepath.Join(dir, "sweeps", id+".journal")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tallyField.Match(b) {
		t.Fatalf("journal %s has no tally", id)
	}
	if tally != "" {
		tally = `,"tally":` + tally
	}
	if err := os.WriteFile(path, tallyField.ReplaceAllLiteral(b, []byte(tally)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyStore copies the store in src, journals and entries, to a new
// directory.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// recovered is a service recovered over the store in dir, with what
// it logged of its sweeps (its request log left out).
type recovered struct {
	svc *Service
	mu  sync.Mutex
	log []string
}

func recoverStore(t *testing.T, dir string) *recovered {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &recovered{svc: New(chaosOptions(st))}
	r.svc.SetLogf(func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "service:") {
			r.mu.Lock()
			r.log = append(r.log, line)
			r.mu.Unlock()
		}
	})
	if stats, err := r.svc.Recover(); err != nil || stats.Adopted != 0 {
		t.Fatalf("recover: stats %+v, err %v; want every sweep finished", stats, err)
	}
	return r
}

// get answers a GET on the service's handler.
func (r *recovered) get(t *testing.T, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// unread reports whether the sweep's journal records are still unread.
func unread(sw *Sweep) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.unread != nil
}

// TestLazyAdoptionServesAsEager: a sweep adopted with its journal's
// records unread serves the same status, results and stream as the
// same sweep adopted from the journal without its tally, whose records
// recovery decodes — over finished, cancelled, torn-tail, pre-tally and
// tally-mismatch journals, whichever of the three is asked first. A
// tally the records disagree with is logged, and the records win.
func TestLazyAdoptionServesAsEager(t *testing.T) {
	dir := t.TempDir()
	ids := journalKinds(t, dir)
	eagerDir := copyStore(t, dir)
	for _, id := range ids {
		if id != ids["pre-tally"] {
			editTally(t, eagerDir, id, "")
		}
	}
	eager := recoverStore(t, eagerDir)
	for kind, id := range ids {
		if sw, _ := eager.svc.Sweep(id); unread(sw) {
			t.Fatalf("%s: sweep adopted without a tally left its records unread", kind)
		}
	}
	paths := func(id string) []string {
		return []string{"/api/sweeps/" + id, "/api/sweeps/" + id + "/results", "/api/sweeps/" + id + "/stream"}
	}
	for first := range paths("") {
		lazy := recoverStore(t, copyStore(t, dir))
		for kind, id := range ids {
			sw, _ := lazy.svc.Sweep(id)
			if got := unread(sw); got != (kind != "pre-tally") {
				t.Fatalf("%s: records unread %v after recovery", kind, got)
			}
			ps := paths(id)
			for _, k := range append([]int{first}, 0, 1, 2) {
				if got, want := lazy.get(t, ps[k]), eager.get(t, ps[k]); got != want {
					t.Fatalf("%s, %s asked first: GET %s serves\n%s\nadopted eagerly it serves\n%s", kind, ps[first], ps[k], got, want)
				}
			}
			if unread(sw) {
				t.Fatalf("%s: records still unread after serving the sweep", kind)
			}
		}
		lazy.mu.Lock()
		if len(lazy.log) != 1 || !strings.Contains(lazy.log[0], ids["mismatch"]) || !strings.Contains(lazy.log[0], "tally") {
			t.Fatalf("log %q, want one tally mismatch for %s", lazy.log, ids["mismatch"])
		}
		lazy.mu.Unlock()
	}
	eager.mu.Lock()
	defer eager.mu.Unlock()
	if len(eager.log) != 0 {
		t.Fatalf("eager adoption logged %q", eager.log)
	}
}

// TestListLeavesJournalsUnread: List over recovered sweeps decodes no
// journal records, and each summary equals the sweep's Status without
// its scenarios (the mismatched tally is put right first: a tally the
// records disagree with is served until they are read). A sweep keeps
// its unread records without the journal's payload, and builds no
// per-scenario state until they are read.
func TestListLeavesJournalsUnread(t *testing.T) {
	dir := t.TempDir()
	ids := journalKinds(t, dir)
	editTally(t, dir, ids["mismatch"], `{"done":2,"cached":0,"failed":0}`)
	r := recoverStore(t, dir)
	list := r.svc.List()
	if len(list) != len(ids) {
		t.Fatalf("List returned %d sweeps, want %d", len(list), len(ids))
	}
	for _, sum := range list {
		sw, _ := r.svc.Sweep(sum.ID)
		if unread(sw) != (sum.ID != ids["pre-tally"]) {
			t.Fatalf("sweep %s (%s): List read its journal records", sum.ID, sum.Name)
		}
		if sw.unread != nil {
			if _, _, err := sw.unread.Payload(); err == nil {
				t.Fatalf("sweep %s (%s) keeps its journal's payload", sum.ID, sum.Name)
			}
			if sw.statuses != nil || sw.results != nil {
				t.Fatalf("sweep %s (%s) built per-scenario state with its journal unread", sum.ID, sum.Name)
			}
		}
		st := sw.Status()
		st.Scenarios = nil
		if !reflect.DeepEqual(sum, st) {
			t.Fatalf("sweep %s: List gives %+v, Status %+v", sum.ID, sum, st)
		}
	}
}

// TestLazyAdoptionConcurrentReaders: readers racing to be a lazily
// adopted sweep's first demand — status, results, list — read its
// journal records once, and every status they get is the same.
func TestLazyAdoptionConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	ids := journalKinds(t, dir)
	r := recoverStore(t, dir)
	sw, _ := r.svc.Sweep(ids["finished"])
	const readers = 8
	statuses := make([]SweepStatus, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				_ = sw.Results()
			case 1:
				_ = r.svc.List()
			}
			statuses[i] = sw.Status()
		}()
	}
	wg.Wait()
	for i, st := range statuses {
		if !reflect.DeepEqual(st, statuses[0]) {
			t.Fatalf("reader %d got %+v, reader 0 %+v", i, st, statuses[0])
		}
	}
	if st := statuses[0]; st.Done != 2 || st.Failed != 1 || len(st.Scenarios) != 3 {
		t.Fatalf("status %+v, want 2 done and 1 failed", st)
	}
}
