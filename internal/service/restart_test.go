package service

import (
	"context"
	"reflect"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/store"
	"exadigit/internal/telemetry"
)

// TestKillRestartServesFromDisk is the durability acceptance test: a
// sweep is run against a store-backed service, the service is "killed"
// (abandoned), and a fresh Service over a fresh Open of the same
// directory re-serves every completed scenario from disk — with zero
// partition power-model rebuilds (the disk tier is checked before any
// Twin is constructed) and bit-identical reports.
func TestKillRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(Options{Workers: 4, Store: st1})
	const n = 8
	scenarios := make([]core.Scenario, n)
	for i := range scenarios {
		scenarios[i] = synthScenario(int64(7000+i), 1800)
	}
	spec := config.Frontier()
	sw1, err := svc1.Submit(spec, scenarios, SweepOptions{Name: "before-kill"})
	if err != nil {
		t.Fatal(err)
	}
	first := waitSweep(t, sw1)
	if first.Done != n {
		t.Fatalf("seed sweep: %+v", first)
	}
	wantReports := sw1.Results()

	// "Kill" svc1 (drop it) and restart on the same directory: the index
	// is rebuilt from disk, the in-memory cache starts cold.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != n {
		t.Fatalf("restarted store indexed %d entries, want %d", st2.Len(), n)
	}
	svc2 := New(Options{Workers: 4, Store: st2})

	buildsBefore := config.ModelBuilds()
	sw2, err := svc2.Submit(spec, scenarios, SweepOptions{Name: "after-restart"})
	if err != nil {
		t.Fatal(err)
	}
	second := waitSweep(t, sw2)
	if second.Cached != n {
		t.Fatalf("restarted service recomputed: %+v", second)
	}
	if got := config.ModelBuilds() - buildsBefore; got != 0 {
		t.Fatalf("disk-warm sweep rebuilt %d power models, want 0", got)
	}
	if m := st2.Stats(); m.Hits != n {
		t.Fatalf("store hits = %d, want %d (metrics %+v)", m.Hits, n, m)
	}
	got := sw2.Results()
	for i := range got {
		if got[i] == nil || got[i].Report == nil {
			t.Fatalf("scenario %d: no disk-served result", i)
		}
		if !reflect.DeepEqual(got[i].Report, wantReports[i].Report) {
			t.Fatalf("scenario %d: disk-served report differs\n got %+v\nwant %+v",
				i, got[i].Report, wantReports[i].Report)
		}
		if got[i].WallSec != wantReports[i].WallSec {
			t.Fatalf("scenario %d: wall time not preserved", i)
		}
	}
	// A second restart sweep is served from memory (no extra disk reads).
	sw3, err := svc2.Submit(spec, scenarios, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw3)
	if m := st2.Stats(); m.Hits != n {
		t.Fatalf("memory tier bypassed: store hits rose to %d", m.Hits)
	}
}

// TestCancelReleasesSweepResources pins the cancel-release fix: a
// cancelled sweep promptly drops its references to the scenario slice
// (which can pin a multi-gigabyte replay dataset) and the compiled spec,
// instead of pinning both until the registry prunes it at process-exit
// scale. Status and results stay recallable.
func TestCancelReleasesSweepResources(t *testing.T) {
	svc := New(Options{Workers: 1})
	// A replay scenario whose dataset stands in for the big pinned input.
	ds := &telemetry.Dataset{
		Epoch:       "pin-check",
		SeriesDtSec: 15,
		Jobs: []telemetry.JobRecord{
			{JobID: 1, NodeCount: 64, WallTime: 86400, CPUPowerW: []float64{200, 210}},
		},
	}
	scenarios := []core.Scenario{
		{Name: "replay-day", Workload: core.WorkloadReplay, HorizonSec: 86400,
			TickSec: 15, Dataset: ds, NoExport: true},
		synthScenario(7101, 86400),
		synthScenario(7102, 86400),
	}
	sw, err := svc.Submit(config.Frontier(), scenarios, SweepOptions{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sw.Wait(ctx); err != nil {
		t.Fatalf("cancelled sweep did not finish promptly: %v", err)
	}
	sw.mu.Lock()
	scensReleased := sw.scenarios == nil
	compiledReleased := sw.compiled == nil
	sw.mu.Unlock()
	if !scensReleased {
		t.Error("cancelled sweep still pins its scenario slice (and replay dataset)")
	}
	if !compiledReleased {
		t.Error("cancelled sweep still pins its compiled spec")
	}
	// The sweep stays observable after release.
	st := sw.Status()
	if st.Total != len(scenarios) || !st.Finished {
		t.Fatalf("released sweep lost its status: %+v", st)
	}
	if got := len(sw.Results()); got != len(scenarios) {
		t.Fatalf("released sweep lost its results slice: %d", got)
	}
	if hashes := sw.ScenarioHashes(); len(hashes) != len(scenarios) {
		t.Fatalf("released sweep lost its hashes: %d", len(hashes))
	}
	if pending := svc.pending.Load(); pending != 0 {
		t.Fatalf("cancelled sweep leaked %d queue reservations", pending)
	}
}
