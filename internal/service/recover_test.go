package service

// Recovery over the journal's header/payload layout: scenario names
// served from the header alone, journals written before the split (the
// committed testdata/parent-journals fixture) recovering finished and
// resuming incomplete, a bad payload rejecting only the resume that
// needs it, the recovery wall-time gauge, and the restart-cost
// benchmark.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// BenchmarkRecover times a restart over a full sweep registry:
// store.Open + New + Recover over 256 finished 8-scenario sweeps
// journaled by the submit path (the default MaxSweeps retains exactly
// that many).
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Options{Workers: 2, Store: st})
	scenarios := make([]core.Scenario, 8)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(500+i), 900)
	}
	for i := 0; i < 256; i++ {
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
	svc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		svc := New(Options{Workers: 2, Store: st})
		stats, err := svc.Recover()
		if err != nil || stats.Finished != 256 {
			b.Fatalf("recover: %+v, %v", stats, err)
		}
		b.StopTimer()
		svc.Close()
		b.StartTimer()
	}
}
