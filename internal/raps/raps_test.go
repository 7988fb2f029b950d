package raps

import (
	"math"
	"testing"

	"exadigit/internal/job"
	"exadigit/internal/power"
)

func frontierModel() *power.Model { return power.NewFrontierModel() }

func TestIdleSystemMatchesTableIII(t *testing.T) {
	sim, err := New(DefaultConfig(), frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.AvgPowerMW-7.24)/7.24 > 0.01 {
		t.Errorf("idle power = %v MW, want ≈7.24 (Table III)", rep.AvgPowerMW)
	}
	if rep.JobsCompleted != 0 || rep.AvgUtilization != 0 {
		t.Errorf("idle run completed %d jobs, util %v", rep.JobsCompleted, rep.AvgUtilization)
	}
}

func TestHPLRunMatchesTableIII(t *testing.T) {
	// One HPL job across 9216 nodes; measure core-phase power.
	hpl := job.NewHPL(1, 0, 7200)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), []*job.Job{hpl})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(3600); err != nil {
		t.Fatal(err)
	}
	// Mid-run sample is in the HPL core phase.
	hist := sim.History()
	var core float64
	for _, smp := range hist {
		if smp.TimeSec > 1800 && smp.TimeSec < 1900 {
			core = smp.PowerW / 1e6
		}
	}
	if math.Abs(core-22.3)/22.3 > 0.01 {
		t.Errorf("HPL core power = %v MW, want ≈22.3 (Table III)", core)
	}
}

func TestPeakPowerMatchesTableIII(t *testing.T) {
	peak := job.New(1, "peak", 9472, 3600, 0)
	if err := peak.ApplyFingerprint(job.FPMax); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), []*job.Job{peak})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(1800)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MaxPowerMW-28.2)/28.2 > 0.01 {
		t.Errorf("peak power = %v MW, want ≈28.2 (Table III)", rep.MaxPowerMW)
	}
}

func TestJobLifecycleAndThroughput(t *testing.T) {
	var jobs []*job.Job
	for i := 0; i < 10; i++ {
		j := job.New(i+1, "j", 100, 600, float64(i*60))
		j.CPUTrace = job.FlatTrace(0.5, 600)
		j.GPUTrace = job.FlatTrace(0.5, 600)
		jobs = append(jobs, j)
	}
	cfg := DefaultConfig()
	cfg.TickSec = 5
	sim, err := New(cfg, frontierModel(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(2 * 3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 10 {
		t.Errorf("completed %d jobs, want 10", rep.JobsCompleted)
	}
	if rep.ThroughputPerHr != 5 {
		t.Errorf("throughput = %v/hr, want 5", rep.ThroughputPerHr)
	}
	if rep.AvgNodesPerJob != 100 {
		t.Errorf("avg nodes = %v", rep.AvgNodesPerJob)
	}
	if math.Abs(rep.AvgRuntimeMin-10) > 0.1 {
		t.Errorf("avg runtime = %v min, want 10", rep.AvgRuntimeMin)
	}
	if math.Abs(rep.AvgArrivalSec-60) > 1 {
		t.Errorf("avg arrival = %v s, want 60", rep.AvgArrivalSec)
	}
}

func TestEnergyAccounting(t *testing.T) {
	sim, err := New(DefaultConfig(), frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(3600)
	if err != nil {
		t.Fatal(err)
	}
	// One hour at constant power: energy = power × 1 h.
	if math.Abs(rep.EnergyMWh-rep.AvgPowerMW) > 1e-6 {
		t.Errorf("energy %v MWh != avg power %v MW over 1 h", rep.EnergyMWh, rep.AvgPowerMW)
	}
	// Cost: energy × $/MWh.
	if math.Abs(rep.CostUSD-rep.EnergyMWh*91.5) > 1e-6 {
		t.Errorf("cost = %v", rep.CostUSD)
	}
	// CO₂ per Eq. 6 with EI=852.3 lb/MWh.
	wantCO2 := rep.EnergyMWh * 852.3 / 2204.6 / rep.EtaSystem
	if math.Abs(rep.CO2Tons-wantCO2) > 1e-9 {
		t.Errorf("CO2 = %v, want %v", rep.CO2Tons, wantCO2)
	}
}

func TestEtaSystemInPublishedRange(t *testing.T) {
	// A busy system should land near the paper's η_system ≈ 93.3 %.
	j := job.New(1, "busy", 7000, 3600, 0)
	j.CPUTrace = job.FlatTrace(0.9, 3600)
	j.GPUTrace = job.FlatTrace(0.85, 3600)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(1800)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EtaSystem < 0.92 || rep.EtaSystem > 0.95 {
		t.Errorf("η_system = %v", rep.EtaSystem)
	}
	if rep.LossPercent < 5 || rep.LossPercent > 8.5 {
		t.Errorf("loss %% = %v, want ≈6.7 (Table IV)", rep.LossPercent)
	}
}

func TestHistorySampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TickSec = 1
	sim, err := New(cfg, frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(150); err != nil {
		t.Fatal(err)
	}
	hist := sim.History()
	if len(hist) != 10 {
		t.Fatalf("history samples = %d, want 10 over 150 s at 15 s", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if math.Abs(hist[i].TimeSec-hist[i-1].TimeSec-15) > 1e-9 {
			t.Errorf("sample gap %v", hist[i].TimeSec-hist[i-1].TimeSec)
		}
	}
	// Cooling efficiency ≈ 0.945 minus pump overhead share.
	if hist[0].EtaCooling < 0.90 || hist[0].EtaCooling > 0.95 {
		t.Errorf("η_cooling = %v", hist[0].EtaCooling)
	}
}

func TestCooledRunProducesPUE(t *testing.T) {
	j := job.New(1, "load", 8000, 1200, 0)
	j.CPUTrace = job.FlatTrace(0.8, 1200)
	j.GPUTrace = job.FlatTrace(0.8, 1200)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.EnableCooling = true
	sim, err := New(cfg, frontierModel(), []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(1800)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AvgPUE < 1.01 || rep.AvgPUE > 1.12 {
		t.Errorf("PUE = %v, want ≈1.03-1.06", rep.AvgPUE)
	}
	if sim.CoolingPlant() == nil {
		t.Fatal("cooled run should expose the plant")
	}
	// Primary return temperature recorded in history (Fig. 8 series).
	hist := sim.History()
	last := hist[len(hist)-1]
	if last.HTWReturnC < 25 || last.HTWReturnC > 55 {
		t.Errorf("HTW return = %v °C", last.HTWReturnC)
	}
}

func TestUncooledRunHasNoPlant(t *testing.T) {
	sim, err := New(DefaultConfig(), frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sim.CoolingPlant() != nil {
		t.Error("uncooled run should have no plant")
	}
}

func TestTelemetryExportAndReplayRoundTrip(t *testing.T) {
	// Run synthetic jobs, export telemetry, replay it, compare power.
	gen := job.NewGenerator(job.GeneratorConfig{
		ArrivalMeanSec: 300, NodesMean: 500, NodesStd: 400, MaxNodes: 9472,
		WallMeanSec: 900, WallStdSec: 200, WallMinSec: 300, WallMaxSec: 1800,
		CPUUtilMean: 0.5, CPUUtilStd: 0.2, GPUUtilMean: 0.7, GPUUtilStd: 0.2,
		UtilJitter: 0.02, SingleNodeFraction: 0.3, Seed: 11,
	})
	jobs := gen.GenerateHorizon(2 * 3600)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := sim.Run(4 * 3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.JobsCompleted < 10 {
		t.Fatalf("only %d jobs completed", rep1.JobsCompleted)
	}
	ds := sim.ExportTelemetry("test-day")
	if len(ds.Jobs) != rep1.JobsCompleted || len(ds.Series) == 0 {
		t.Fatalf("export: %d jobs, %d samples", len(ds.Jobs), len(ds.Series))
	}

	// Replay: pinned starts reproduce the same power trajectory.
	replayJobs := JobsFromDataset(ds, frontierModel().Spec)
	sim2, err := New(cfg, frontierModel(), replayJobs)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := sim2.Run(4 * 3600)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.JobsCompleted != rep1.JobsCompleted {
		t.Errorf("replay completed %d vs original %d", rep2.JobsCompleted, rep1.JobsCompleted)
	}
	if math.Abs(rep2.AvgPowerMW-rep1.AvgPowerMW)/rep1.AvgPowerMW > 0.01 {
		t.Errorf("replay power %v vs original %v MW", rep2.AvgPowerMW, rep1.AvgPowerMW)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{TickSec: 0}, frontierModel(), nil); err == nil {
		t.Error("zero tick should fail")
	}
	if _, err := New(Config{TickSec: 1, Policy: "bogus"}, frontierModel(), nil); err == nil {
		t.Error("unknown policy should fail")
	}
	bad := frontierModel()
	bad.Topo.NumCDUs = 0
	if _, err := New(DefaultConfig(), bad, nil); err == nil {
		t.Error("invalid topology should fail")
	}
}

func TestReportBeforeRun(t *testing.T) {
	sim, err := New(DefaultConfig(), frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.ReportNow()
	if rep.SimSeconds != 0 || rep.JobsCompleted != 0 {
		t.Error("fresh report should be empty")
	}
}

func TestWetBulbFunctionIsUsed(t *testing.T) {
	called := false
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.EnableCooling = true
	cfg.WetBulbC = func(t float64) float64 {
		called = true
		return 18
	}
	sim, err := New(cfg, frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(60); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("wet-bulb provider never consulted")
	}
}

func BenchmarkTickUncooled(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TickSec = 1
	j := job.New(1, "load", 9000, 1e9, 0)
	j.CPUTrace = job.FlatTrace(0.6, 3600)
	j.GPUTrace = job.FlatTrace(0.7, 3600)
	sim, err := New(cfg, power.NewFrontierModel(), []*job.Job{j})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTickCooled15s(b *testing.B) {
	cfg := DefaultConfig()
	cfg.TickSec = 15
	cfg.EnableCooling = true
	j := job.New(1, "load", 9000, 1e9, 0)
	j.CPUTrace = job.FlatTrace(0.6, 3600)
	j.GPUTrace = job.FlatTrace(0.7, 3600)
	sim, err := New(cfg, power.NewFrontierModel(), []*job.Job{j})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestJobEnergyAttribution(t *testing.T) {
	// Two jobs of very different size: attribution must reflect the
	// node-seconds × power each consumed.
	big := job.New(1, "big", 4000, 1200, 0)
	big.CPUTrace = job.FlatTrace(0.8, 1200)
	big.GPUTrace = job.FlatTrace(0.8, 1200)
	small := job.New(2, "small", 100, 1200, 0)
	small.CPUTrace = job.FlatTrace(0.8, 1200)
	small.GPUTrace = job.FlatTrace(0.8, 1200)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), []*job.Job{big, small})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(1800)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JobsCompleted != 2 {
		t.Fatalf("completed %d", rep.JobsCompleted)
	}
	top := sim.TopConsumers(2)
	if len(top) != 2 || top[0].JobID != 1 {
		t.Fatalf("top consumers = %+v", top)
	}
	// 40× the nodes at identical utilization → 40× the node energy.
	ratio := top[0].NodeEnergyMWh / top[1].NodeEnergyMWh
	if math.Abs(ratio-40) > 0.5 {
		t.Errorf("energy ratio = %v, want 40", ratio)
	}
	// Facility share exceeds node share (losses + switches + pumps).
	for _, je := range top {
		if je.FacilityEnergyMWh <= je.NodeEnergyMWh {
			t.Errorf("job %d facility %v ≤ node %v", je.JobID, je.FacilityEnergyMWh, je.NodeEnergyMWh)
		}
		if je.CO2Tons <= 0 || je.CostUSD <= 0 {
			t.Errorf("job %d missing carbon/cost attribution", je.JobID)
		}
	}
	// Attributed facility energy never exceeds the run's total.
	sum := top[0].FacilityEnergyMWh + top[1].FacilityEnergyMWh
	if sum > rep.EnergyMWh {
		t.Errorf("attributed %v MWh > total %v MWh", sum, rep.EnergyMWh)
	}
}

func TestJobEnergyIncludesRunningJobs(t *testing.T) {
	j := job.New(1, "running", 1000, 1e6, 0)
	j.CPUTrace = job.FlatTrace(0.5, 3600)
	j.GPUTrace = job.FlatTrace(0.5, 3600)
	cfg := DefaultConfig()
	cfg.TickSec = 15
	sim, err := New(cfg, frontierModel(), []*job.Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(600); err != nil {
		t.Fatal(err)
	}
	rep := sim.JobEnergyReport()
	if len(rep) != 1 || rep[0].NodeEnergyMWh <= 0 {
		t.Fatalf("running job not attributed: %+v", rep)
	}
	if got := sim.TopConsumers(10); len(got) != 1 {
		t.Errorf("TopConsumers clamps to available jobs: %d", len(got))
	}
}

func TestConstantEIFallback(t *testing.T) {
	// The energy-weighted EI accumulator reproduces the Eq. 6
	// constant-EI formula exactly (already asserted in
	// TestEnergyAccounting; this pins the weighted-average path to the
	// same result).
	sim, err := New(DefaultConfig(), frontierModel(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(600)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.EnergyMWh * 852.3 / 2204.6 / rep.EtaSystem
	if math.Abs(rep.CO2Tons-want) > 1e-9 {
		t.Errorf("CO2 = %v, want %v", rep.CO2Tons, want)
	}
}
