package raps

import (
	"math"
	"testing"

	"exadigit/internal/job"
	"exadigit/internal/power"
)

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-12)
	return d / m
}

func runEngines(t *testing.T, cfgTmpl Config, mkJobs func() []*job.Job, horizon float64) (dense, event *Simulation) {
	t.Helper()
	run := func(engine Engine) *Simulation {
		cfg := cfgTmpl
		cfg.Engine = engine
		sim, err := New(cfg, power.NewFrontierModel(), mkJobs())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(horizon); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	return run(EngineDense), run(EngineEvent)
}

func assertReportsClose(t *testing.T, want, got *Report, tol float64) {
	t.Helper()
	if want.JobsCompleted != got.JobsCompleted {
		t.Fatalf("jobs completed: dense %d vs event %d", want.JobsCompleted, got.JobsCompleted)
	}
	check := func(name string, a, b float64) {
		t.Helper()
		if relDiff(a, b) > tol {
			t.Errorf("%s: dense %v vs event %v (rel %v)", name, a, b, relDiff(a, b))
		}
	}
	check("EnergyMWh", want.EnergyMWh, got.EnergyMWh)
	check("AvgPowerMW", want.AvgPowerMW, got.AvgPowerMW)
	check("MaxPowerMW", want.MaxPowerMW, got.MaxPowerMW)
	check("MinPowerMW", want.MinPowerMW, got.MinPowerMW)
	check("AvgLossMW", want.AvgLossMW, got.AvgLossMW)
	check("MaxLossMW", want.MaxLossMW, got.MaxLossMW)
	check("LossPercent", want.LossPercent, got.LossPercent)
	check("EtaSystem", want.EtaSystem, got.EtaSystem)
	check("CO2Tons", want.CO2Tons, got.CO2Tons)
	check("CostUSD", want.CostUSD, got.CostUSD)
	check("AvgUtilization", want.AvgUtilization, got.AvgUtilization)
	check("AvgPUE", want.AvgPUE, got.AvgPUE)
}

func assertHistoriesClose(t *testing.T, want, got []Sample, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("history length: dense %d vs event %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.TimeSec != g.TimeSec {
			t.Fatalf("sample %d time: %v vs %v", i, w.TimeSec, g.TimeSec)
		}
		if w.JobsRunning != g.JobsRunning || w.JobsPending != g.JobsPending {
			t.Fatalf("sample %d jobs: dense %d/%d vs event %d/%d",
				i, w.JobsRunning, w.JobsPending, g.JobsRunning, g.JobsPending)
		}
		for _, f := range []struct {
			name string
			a, b float64
		}{
			{"PowerW", w.PowerW, g.PowerW},
			{"LossW", w.LossW, g.LossW},
			{"Utilization", w.Utilization, g.Utilization},
			{"EtaSystem", w.EtaSystem, g.EtaSystem},
			{"EtaCooling", w.EtaCooling, g.EtaCooling},
			{"PUE", w.PUE, g.PUE},
			{"HTWReturnC", w.HTWReturnC, g.HTWReturnC},
		} {
			if relDiff(f.a, f.b) > tol {
				t.Fatalf("sample %d (t=%v) %s: dense %v vs event %v", i, w.TimeSec, f.name, f.a, f.b)
			}
		}
		if len(w.CDUHeatW) != len(g.CDUHeatW) {
			t.Fatalf("sample %d CDU heat length %d vs %d", i, len(w.CDUHeatW), len(g.CDUHeatW))
		}
		for c := range w.CDUHeatW {
			if relDiff(w.CDUHeatW[c], g.CDUHeatW[c]) > tol {
				t.Fatalf("sample %d CDU %d heat: %v vs %v", i, c, w.CDUHeatW[c], g.CDUHeatW[c])
			}
		}
	}
}

// TestEventEngineMatchesDense is the headline equivalence property: a
// seeded synthetic day (arrivals, completions, trace jitter, queueing)
// driven through both the dense reference Compute path and the
// event-driven incremental path must agree on energy, losses, breakdown
// aggregates, and per-CDU heat to 1e-9 relative (ISSUE 1 acceptance).
func TestEventEngineMatchesDense(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 1234
	mkJobs := func() []*job.Job { return job.NewGenerator(gen).GenerateHorizon(86400) }
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.RecordCDUHeat = true
	dense, event := runEngines(t, cfg, mkJobs, 86400)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)

	// Per-job energy attribution agrees too (batched gap integration vs
	// per-tick accumulation differ only in rounding).
	de := dense.JobEnergyReport()
	ee := event.JobEnergyReport()
	if len(de) != len(ee) {
		t.Fatalf("job energy entries: %d vs %d", len(de), len(ee))
	}
	for i := range de {
		if de[i].JobID != ee[i].JobID || relDiff(de[i].NodeEnergyMWh, ee[i].NodeEnergyMWh) > 1e-9 {
			t.Fatalf("job energy %d: %+v vs %+v", i, de[i], ee[i])
		}
	}
}

// TestEventEngineMatchesDenseSubQuantumTick covers 1 s ticks, where most
// ticks sit inside a trace quantum and the skip logic must stop exactly
// on arrival/completion/quantum boundaries.
func TestEventEngineMatchesDenseSubQuantumTick(t *testing.T) {
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 77
	gen.ArrivalMeanSec = 600 // keep the 1 s-tick dense reference affordable
	mkJobs := func() []*job.Job { return job.NewGenerator(gen).GenerateHorizon(2 * 3600) }
	cfg := DefaultConfig()
	cfg.TickSec = 1
	dense, event := runEngines(t, cfg, mkJobs, 2*3600)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
}

// TestEventEngineMatchesDenseCooled pins equivalence with the cooling
// FMU coupled: boundary ticks are events, gaps between them are skipped,
// and the plant must see the identical heat/wet-bulb/power sequence.
func TestEventEngineMatchesDenseCooled(t *testing.T) {
	mkJobs := func() []*job.Job {
		j := job.New(1, "load", 8000, 2400, 300)
		j.CPUTrace = job.FlatTrace(0.8, 2400)
		j.GPUTrace = job.FlatTrace(0.75, 2400)
		return []*job.Job{j}
	}
	cfg := DefaultConfig()
	cfg.TickSec = 1
	cfg.EnableCooling = true
	cfg.WetBulbC = func(t float64) float64 { return 18 + 4*math.Sin(t/3600) }
	dense, event := runEngines(t, cfg, mkJobs, 3600)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
}

// TestEventEngineMatchesDenseReplayPinned covers replay-pinned starts
// (ReplayStart), which the skip logic must treat as events.
func TestEventEngineMatchesDenseReplayPinned(t *testing.T) {
	mkJobs := func() []*job.Job {
		a := job.New(1, "pinned-a", 4000, 3600, 0)
		a.ReplayStart = 1800
		a.CPUTrace = job.FlatTrace(0.6, 3600)
		a.GPUTrace = job.FlatTrace(0.9, 3600)
		b := job.New(2, "pinned-b", 2000, 1200, 0)
		b.ReplayStart = 7200
		b.CPUTrace = job.FlatTrace(0.4, 1200)
		b.GPUTrace = job.FlatTrace(0.5, 1200)
		return []*job.Job{a, b}
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15
	dense, event := runEngines(t, cfg, mkJobs, 6*3600)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
}

// TestEventEngineMatchesDenseStuckPinnedJob: a pinned replay job whose
// ReplayStart passes while its nodes are still busy. Past pinned starts
// are excluded from the event horizon (only the completion that frees
// nodes can start them), so gap skipping must stay active — and the
// deferred start must still land on exactly the dense engine's tick.
func TestEventEngineMatchesDenseStuckPinnedJob(t *testing.T) {
	mkJobs := func() []*job.Job {
		hog := job.New(1, "hog", 9000, 3600, 0)
		hog.CPUTrace = job.FlatTrace(0.7, 3600)
		hog.GPUTrace = job.FlatTrace(0.7, 3600)
		pinned := job.New(2, "pinned", 5000, 1800, 0)
		pinned.ReplayStart = 600 // passes while the hog holds the machine
		pinned.CPUTrace = job.FlatTrace(0.5, 1800)
		pinned.GPUTrace = job.FlatTrace(0.6, 1800)
		return []*job.Job{hog, pinned}
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15
	dense, event := runEngines(t, cfg, mkJobs, 2*3600)
	if got := event.ReportNow().JobsCompleted; got != 2 {
		t.Fatalf("event engine completed %d jobs, want 2", got)
	}
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
}

// TestEventSkipIdleRun: an empty machine is one long event-free gap; the
// skip path must still produce the full history series and exact-energy
// accumulators.
func TestEventSkipIdleRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickSec = 1
	dense, event := runEngines(t, cfg, func() []*job.Job { return nil }, 3600)
	assertReportsClose(t, dense.ReportNow(), event.ReportNow(), 1e-9)
	assertHistoriesClose(t, dense.History(), event.History(), 1e-9)
	if len(event.History()) != 240 {
		t.Fatalf("idle hour at 15 s sampling: %d samples, want 240", len(event.History()))
	}
}
