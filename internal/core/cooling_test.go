package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/fmu"
	"exadigit/internal/job"
	"exadigit/internal/power"
	"exadigit/internal/raps"
)

// TestSpecDrivenFrontierCoolingGolden pins the refactor's bit-identity
// guarantee: the default Frontier spec, routed through the spec-driven
// pipeline (CoolingSpec → preset → CompiledSpec.CoolingDesign), produces
// exactly the cooled-day telemetry the pre-refactor hand-calibrated path
// produced (raps over fmu.NewDesign(cooling.Frontier()) directly).
func TestSpecDrivenFrontierCoolingGolden(t *testing.T) {
	const horizon = 2 * 3600
	const wetBulb = 18.0

	// Spec-driven path: the Frontier system spec is the source of truth.
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	res, err := tw.Run(Scenario{
		Workload: WorkloadHPL, BenchmarkWallSec: 3 * 3600,
		HorizonSec: horizon, TickSec: 15,
		Cooling: true, WetBulbC: wetBulb,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pre-refactor path: hand-calibrated plant compiled directly,
	// bypassing config.SystemSpec.Cooling entirely.
	design, err := fmu.NewDesign(cooling.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	rcfg := raps.DefaultConfig()
	rcfg.TickSec = 15
	rcfg.EnableCooling = true
	rcfg.CoolingDesign = design
	rcfg.WetBulbC = func(float64) float64 { return wetBulb }
	sim, err := raps.New(rcfg, power.NewFrontierModel(), []*job.Job{job.NewHPL(1, 0, 3*3600)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(horizon); err != nil {
		t.Fatal(err)
	}

	ref := sim.History()
	got := res.History
	if len(got) == 0 || len(got) != len(ref) {
		t.Fatalf("history lengths differ: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		if got[i].PowerW != ref[i].PowerW || got[i].PUE != ref[i].PUE ||
			got[i].HTWSupplyC != ref[i].HTWSupplyC || got[i].HTWReturnC != ref[i].HTWReturnC ||
			got[i].SecSupplyMaxC != ref[i].SecSupplyMaxC || got[i].LossW != ref[i].LossW {
			t.Fatalf("sample %d diverged:\nspec-driven %+v\nhand-built  %+v", i, got[i], ref[i])
		}
	}
}

// TestCoolingDesignFollowsSpec pins that CompiledSpec.CoolingDesign
// compiles the spec's own cooling section: clearing the preset switches
// the default Frontier spec to an AutoCSM-synthesized plant, which is a
// different (but valid) design.
func TestCoolingDesignFollowsSpec(t *testing.T) {
	preset := config.Frontier()
	cs1, err := Compile(preset)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := cs1.CoolingDesign()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d1.Config(), cooling.Frontier(); got != want {
		t.Fatal("preset spec must resolve to the hand-calibrated plant verbatim")
	}

	auto := config.Frontier()
	auto.Cooling.Preset = ""
	cs2, err := Compile(auto)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := cs2.CoolingDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Config() == cooling.Frontier() {
		t.Fatal("AutoCSM path unexpectedly reproduced the hand-calibrated plant bit-for-bit")
	}
	if d2.Config().NumCDUs != 25 {
		t.Fatalf("AutoCSM plant CDUs = %d", d2.Config().NumCDUs)
	}
}

// TestScenarioCoolingOverride runs the same workload against three
// plants through per-scenario overrides and requires visibly distinct
// plant behavior.
func TestScenarioCoolingOverride(t *testing.T) {
	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	auto := config.Frontier().Cooling
	auto.Preset = ""
	undersized := auto
	undersized.NumTowers = 4
	undersized.TowerFlowGPM = 7500
	undersized.PrimaryFlowGPM = 6000

	base := Scenario{
		Workload: WorkloadHPL, BenchmarkWallSec: 2 * 3600,
		HorizonSec: 1800, TickSec: 15, Cooling: true, WetBulbC: 19,
	}
	variants := []*config.CoolingSpec{nil, &auto, &undersized}
	pues := make([]float64, len(variants))
	for i, v := range variants {
		sc := base
		sc.CoolingSpec = v
		res, err := cs.Twin().Run(sc)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		pues[i] = res.Report.AvgPUE
		if pues[i] <= 1.0 {
			t.Fatalf("variant %d: PUE = %v", i, pues[i])
		}
	}
	for i := 0; i < len(pues); i++ {
		for k := i + 1; k < len(pues); k++ {
			if pues[i] == pues[k] {
				t.Errorf("variants %d and %d cooled identically (PUE %v) — override not applied", i, k, pues[i])
			}
		}
	}
}

// TestCoolingOverrideTooFewCDUs pins the boundary error: a plant with
// fewer CDU loops than the topology couples is rejected at design
// compilation with a clear message, not a missing-FMU-variable failure.
func TestCoolingOverrideTooFewCDUs(t *testing.T) {
	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	small := config.Frontier().Cooling
	small.Preset = ""
	small.NumCDUs = 10
	_, err = cs.CoolingDesignFor(small)
	if err == nil || !strings.Contains(err.Error(), "CDU loops") {
		t.Fatalf("want CDU-count feasibility error, got %v", err)
	}
}

// TestCoolingOutputsFollowSpec pins the viz satellite: dashboard channel
// names come from the compiled design of the plant that actually ran —
// a Setonix-like spec exposes its own 7 AutoCSM-sized CDU loops, not
// Frontier's 25 hardcoded names.
func TestCoolingOutputsFollowSpec(t *testing.T) {
	tw, err := NewFromSpec(config.SetonixLike())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Run(Scenario{
		Workload: WorkloadPeak, HorizonSec: 300, TickSec: 15,
		Cooling: true, WetBulbC: 18,
	}); err != nil {
		t.Fatal(err)
	}
	out := tw.CoolingOutputs()
	if out == nil {
		t.Fatal("cooled run exposed no outputs")
	}
	if _, ok := out["cdu[7].pump_power_w"]; !ok {
		t.Error("7th CDU channel missing — names not from the compiled design")
	}
	if _, ok := out["cdu[8].pump_power_w"]; ok {
		t.Error("phantom 8th CDU channel — names still Frontier-shaped")
	}
	if _, ok := out["pue"]; !ok {
		t.Error("pue channel missing")
	}
	want := cooling.OutputNames(tw.Simulation().CoolingPlant().Config())
	if len(out) != len(want) {
		t.Errorf("channels = %d, want %d", len(out), len(want))
	}
}

// TestVizReadsDuringRunAreRaceFree exercises the dashboard pattern —
// /api/cooling and /api/status polling while a library caller drives a
// new run on the same Twin — so `go test -race` (make test-race) guards
// the shared run-artifact snapshot.
func TestVizReadsDuringRunAreRaceFree(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	// Seed a cooled run so readers have a plant to label.
	if _, err := tw.Run(Scenario{
		Workload: WorkloadIdle, HorizonSec: 120, TickSec: 15, Cooling: true, WetBulbC: 20,
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tw.CoolingOutputs()
				tw.Status()
				tw.Series()
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := tw.Run(Scenario{
			Workload: WorkloadIdle, HorizonSec: 120, TickSec: 15, Cooling: true, WetBulbC: 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRunContextAbortsMidDay pins the context-aware abort: cancelling
// mid-run stops a cooled day at the next tick boundary instead of
// letting the horizon play out.
func TestRunContextAbortsMidDay(t *testing.T) {
	tw, err := NewFrontier()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the simulation get going, then pull the plug.
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = tw.RunContext(ctx, Scenario{
		Workload: WorkloadSynthetic, HorizonSec: 14 * 24 * 3600, TickSec: 1,
		Cooling: true, WetBulbC: 20,
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("abort took %v — cancellation did not reach the tick loop", wall)
	}
	sim := tw.Simulation()
	if sim == nil || sim.Now() >= 14*24*3600 {
		t.Fatal("simulation ran to completion despite cancel")
	}
}

// TestAdaptiveSolverMatchesFixedAcrossPlants is the accuracy property
// behind the quiescent-plant fast path: for several plant designs — the
// hand-calibrated Frontier preset, its AutoCSM synthesis, and a re-sized
// AutoCSM variant — the same cooled day under the adaptive solver stays
// within the configured tolerance of the fixed-step reference on energy
// (exactly: cooling does not feed back into power), average PUE, and the
// recorded loop temperatures.
func TestAdaptiveSolverMatchesFixedAcrossPlants(t *testing.T) {
	preset := config.Frontier().Cooling
	auto := preset
	auto.Preset = ""
	resized := auto
	resized.NumTowers = 4
	resized.TowerFlowGPM = 7500
	resized.PrimaryFlowGPM = 6000

	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec config.CoolingSpec
	}{
		{"frontier-preset", preset},
		{"autocsm-frontier", auto},
		{"autocsm-resized", resized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(solver string) *Result {
				spec := tc.spec
				spec.Solver = solver
				gen := job.DefaultGeneratorConfig()
				gen.Seed = 77
				res, err := cs.Twin().Run(Scenario{
					Workload: WorkloadSynthetic, Generator: gen,
					HorizonSec: 3600, TickSec: 15, WetBulbC: 19,
					CoolingSpec: &spec, NoExport: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fixed := run("rk4")
			adaptive := run("adaptive")
			if fixed.Report.EnergyMWh != adaptive.Report.EnergyMWh {
				t.Errorf("energy diverged: %v vs %v MWh",
					fixed.Report.EnergyMWh, adaptive.Report.EnergyMWh)
			}
			if d := math.Abs(fixed.Report.AvgPUE - adaptive.Report.AvgPUE); d > 0.005 {
				t.Errorf("PUE divergence %v > 0.005 (fixed %v, adaptive %v)",
					d, fixed.Report.AvgPUE, adaptive.Report.AvgPUE)
			}
			if len(fixed.History) != len(adaptive.History) {
				t.Fatalf("history lengths differ: %d vs %d", len(fixed.History), len(adaptive.History))
			}
			for i := range fixed.History {
				f, a := fixed.History[i], adaptive.History[i]
				if math.Abs(f.HTWSupplyC-a.HTWSupplyC) > 0.75 ||
					math.Abs(f.HTWReturnC-a.HTWReturnC) > 0.75 ||
					math.Abs(f.SecSupplyMaxC-a.SecSupplyMaxC) > 0.75 {
					t.Fatalf("sample %d loop temperatures diverged:\nfixed    %+v\nadaptive %+v", i, f, a)
				}
			}
		})
	}
}

// BenchmarkCooledRun times one 6 h synthetic Frontier run at a 15 s tick
// under each plant of bench/'s cooled-sweep workload: the Frontier preset
// under fixed-step RK4, the same preset under the adaptive solver, and an
// AutoCSM plant generated from Frontier's design quantities under the
// adaptive solver. NoExport, NoHistory and a fixed wet bulb leave the twin
// run alone, without the HTTP service around it, so the plant layer can be
// profiled in-package:
//
//	go test ./internal/core/ -run '^$' -bench CooledRun/rk4 -cpuprofile cpu.out
func BenchmarkCooledRun(b *testing.B) {
	tw, err := NewFrontier()
	if err != nil {
		b.Fatal(err)
	}
	adaptive := config.Frontier().Cooling
	adaptive.Solver = cooling.SolverAdaptive
	auto := adaptive
	auto.Preset = ""
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 3
	for _, pl := range []struct {
		name string
		spec *config.CoolingSpec
	}{{"rk4", nil}, {"adaptive", &adaptive}, {"autocsm", &auto}} {
		b.Run(pl.name, func(b *testing.B) {
			sc := Scenario{
				Workload: WorkloadSynthetic, Generator: gen,
				HorizonSec: 6 * 3600, TickSec: 15,
				Cooling: true, CoolingSpec: pl.spec, WetBulbC: 18,
				NoExport: true, NoHistory: true,
			}
			// The first run compiles the plant design, which the twin
			// then serves from its cache; keep it out of the timing.
			if _, err := tw.Run(sc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := tw.Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Report.AvgPUE, "pue")
			}
		})
	}
}
