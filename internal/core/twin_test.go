package core

import (
	"math"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/job"
)

func TestIdleScenarioMatchesTableIII(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{Workload: WorkloadIdle, HorizonSec: 120, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Report.AvgPowerMW-7.24)/7.24 > 0.01 {
		t.Errorf("idle = %v MW", res.Report.AvgPowerMW)
	}
}

func TestPeakScenarioMatchesTableIII(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 120, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Report.MaxPowerMW-28.2)/28.2 > 0.01 {
		t.Errorf("peak = %v MW", res.Report.MaxPowerMW)
	}
}

func TestSyntheticScenarioProducesJobsAndTelemetry(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 120
	gen.WallMeanSec = 600
	gen.WallStdSec = 120
	gen.WallMinSec = 120
	gen.WallMaxSec = 1200
	res, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, Generator: gen,
		HorizonSec: 2 * 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.JobsCompleted < 10 {
		t.Errorf("completed %d jobs", res.Report.JobsCompleted)
	}
	// The export covers every job that started: completed plus still
	// running at the horizon.
	if len(res.Dataset.Jobs) < res.Report.JobsCompleted {
		t.Errorf("telemetry jobs %d < completed %d", len(res.Dataset.Jobs), res.Report.JobsCompleted)
	}
	if len(res.History) == 0 || len(res.Dataset.Series) == 0 {
		t.Error("history/series missing")
	}
}

func TestReplayScenarioRoundTrip(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.ArrivalMeanSec = 200
	gen.WallMeanSec = 600
	gen.WallStdSec = 100
	gen.WallMinSec = 120
	gen.WallMaxSec = 1200
	orig, err := tw.Run(Scenario{
		Workload: WorkloadSynthetic, Generator: gen,
		HorizonSec: 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := tw.Run(Scenario{
		Workload: WorkloadReplay, Dataset: orig.Dataset,
		HorizonSec: 3600, TickSec: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(replay.Report.AvgPowerMW-orig.Report.AvgPowerMW)/orig.Report.AvgPowerMW > 0.02 {
		t.Errorf("replay %v MW vs original %v MW", replay.Report.AvgPowerMW, orig.Report.AvgPowerMW)
	}
}

func TestReplayWithoutDatasetFails(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadReplay, HorizonSec: 60}); err == nil {
		t.Error("replay without dataset must fail")
	}
}

func TestScenarioValidation(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{Workload: WorkloadIdle}); err == nil {
		t.Error("zero horizon must fail")
	}
	if _, err := tw.Run(Scenario{Workload: "quantum", HorizonSec: 60}); err == nil {
		t.Error("unknown workload must fail")
	}
	if _, err := NewFromSpec(config.SystemSpec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}

func TestDC380ModeReducesPower(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	base, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 60, TickSec: 15})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := tw.Run(Scenario{Workload: WorkloadPeak, HorizonSec: 60, TickSec: 15, PowerMode: "dc380"})
	if err != nil {
		t.Fatal(err)
	}
	if dc.Report.AvgPowerMW >= base.Report.AvgPowerMW {
		t.Errorf("dc380 %v MW should beat baseline %v MW", dc.Report.AvgPowerMW, base.Report.AvgPowerMW)
	}
	if dc.Report.EtaSystem < 0.97 {
		t.Errorf("dc380 η = %v, want ≈0.973", dc.Report.EtaSystem)
	}
}

func TestVizSourceIntegration(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	// Before any run: empty but safe.
	if tw.Status().PowerMW != 0 || tw.Series() != nil || tw.CoolingOutputs() != nil {
		t.Error("fresh twin should report empty viz data")
	}
	if _, err := tw.Run(Scenario{
		Workload: WorkloadHPL, HorizonSec: 600, TickSec: 15,
		Cooling: true, BenchmarkWallSec: 1200,
	}); err != nil {
		t.Fatal(err)
	}
	st := tw.Status()
	if st.PowerMW < 15 || st.PowerMW > 25 {
		t.Errorf("status power = %v MW", st.PowerMW)
	}
	if st.PUE < 1.01 || st.PUE > 1.15 {
		t.Errorf("status PUE = %v", st.PUE)
	}
	series := tw.Series()
	if len(series) == 0 {
		t.Fatal("series empty")
	}
	cool := tw.CoolingOutputs()
	if len(cool) != 317 {
		t.Fatalf("cooling outputs = %d, want 317", len(cool))
	}
	if _, ok := cool["pue"]; !ok {
		t.Error("pue channel missing")
	}
}

// TestScenarioValidate pins the one scenario check every run path
// shares: RunContext and the sweep service's submit both refuse what
// Validate refuses, so a NaN or infinite horizon can no longer finish
// "successfully" with an empty report.
func TestScenarioValidate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		sc   Scenario
		ok   bool
	}{
		{"minimal", Scenario{HorizonSec: 60}, true},
		{"dense engine", Scenario{HorizonSec: 60, TickSec: 15, Engine: "dense"}, true},
		{"event engine", Scenario{HorizonSec: 60, Engine: "event"}, true},
		{"zero horizon", Scenario{}, false},
		{"negative horizon", Scenario{HorizonSec: -1}, false},
		{"NaN horizon", Scenario{HorizonSec: nan}, false},
		{"infinite horizon", Scenario{HorizonSec: inf}, false},
		{"one century", Scenario{HorizonSec: maxHorizonSec}, true},
		{"past a century", Scenario{HorizonSec: 1e15, TickSec: 1e14}, false},
		{"negative tick", Scenario{HorizonSec: 60, TickSec: -15}, false},
		{"NaN tick", Scenario{HorizonSec: 60, TickSec: nan}, false},
		{"infinite tick", Scenario{HorizonSec: 60, TickSec: inf}, false},
		{"unknown engine", Scenario{HorizonSec: 60, Engine: "sparse"}, false},
	} {
		if err := tc.sc.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}

	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{
		{Workload: WorkloadIdle, HorizonSec: nan},
		{Workload: WorkloadIdle, HorizonSec: inf},
		{Workload: WorkloadIdle, HorizonSec: 60, TickSec: inf},
	} {
		if res, err := tw.Run(sc); err == nil {
			t.Errorf("Run(horizon %v, tick %v) = %+v, want an error", sc.HorizonSec, sc.TickSec, res.Report)
		}
	}
}

func TestWeatherDrivenScenario(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadIdle, HorizonSec: 300, TickSec: 15,
		Cooling: true, WeatherSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AvgPUE <= 1.0 {
		t.Errorf("PUE = %v", res.Report.AvgPUE)
	}
}
