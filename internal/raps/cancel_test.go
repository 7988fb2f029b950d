package raps

import (
	"context"
	"errors"
	"testing"

	"exadigit/internal/job"
	"exadigit/internal/power"
)

// TestRunContextStopsWithinOneTick pins the abort granularity in
// simulation time: a cancel issued at simulated time T (from inside the
// OnSample hook, which fires every 15 s tick here) stops a cooled run
// within one tick boundary of T — not at the end of the horizon.
func TestRunContextStopsWithinOneTick(t *testing.T) {
	const tick = 15.0
	const cancelAt = 3600.0

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cfg := DefaultConfig()
	cfg.TickSec = tick
	cfg.EnableCooling = true // cooling boundaries cap analytic gaps at one tick here
	cfg.OnSample = func(smp Sample) {
		if smp.TimeSec >= cancelAt {
			cancel()
		}
	}
	sim, err := New(cfg, power.NewFrontierModel(), []*job.Job{job.NewHPL(1, 0, 24*3600)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunContext(ctx, 24*3600)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The sample hook fires during the tick that reaches cancelAt; the
	// loop observes the cancel before the next tick. Two ticks of slack
	// covers the sampling tick itself.
	if now := sim.Now(); now < cancelAt || now > cancelAt+2*tick {
		t.Fatalf("aborted at t=%v, want within one tick of %v", now, cancelAt)
	}
	// Partial accumulators stay inspectable after an abort.
	if rep := sim.ReportNow(); rep.SimSeconds != sim.Now() || rep.AvgPowerMW <= 0 {
		t.Fatalf("partial report = %+v", rep)
	}
}

// TestRunContextNilAndBackground pins that Run and RunContext with a
// live context behave identically.
func TestRunContextNilAndBackground(t *testing.T) {
	mk := func() *Simulation {
		cfg := DefaultConfig()
		cfg.TickSec = 15
		sim, err := New(cfg, power.NewFrontierModel(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	r1, err := mk().Run(900)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk().RunContext(context.Background(), 900)
	if err != nil {
		t.Fatal(err)
	}
	if r1.EnergyMWh != r2.EnergyMWh || r1.AvgPowerMW != r2.AvgPowerMW {
		t.Fatalf("Run and RunContext diverged: %+v vs %+v", r1, r2)
	}
}
