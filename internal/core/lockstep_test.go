package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/job"
)

// TestLockstepMatchesSolo is the lockstep property: over random seeds,
// all three policies and every power mode, on Frontier and a
// two-partition spec, each member of a lockstep run of two or three
// mode siblings reports exactly what its own solo run reports (compared
// as JSON, which tells every float bit that matters, -0 included).
func TestLockstepMatchesSolo(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	modes := []string{"ac-baseline", "smart-rectifier", "dc380"}
	policies := []string{"fcfs", "sjf", "easy"}
	rng := rand.New(rand.NewSource(11))
	for _, spec := range []config.SystemSpec{config.Frontier(), config.SetonixLike()} {
		cs, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < trials; trial++ {
			gen := job.DefaultGeneratorConfig()
			gen.Seed = rng.Int63n(1 << 30)
			base := Scenario{
				Workload: WorkloadSynthetic, HorizonSec: 6 * 3600, TickSec: 15,
				Policy: policies[trial%len(policies)], Generator: gen,
				NoExport: true, NoHistory: true,
			}
			k := 2 + trial%2
			perm := rng.Perm(len(modes))
			scs := make([]Scenario, k)
			for i := range scs {
				scs[i] = base
				scs[i].Name = spec.Name + "-" + modes[perm[i]]
				scs[i].PowerMode = modes[perm[i]]
			}
			got, err := cs.Twin().RunLockstep(context.Background(), scs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range scs {
				want, err := cs.Twin().Run(scs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got[i].Scenario.Name != scs[i].Name {
					t.Fatalf("member %d carries scenario %q, want %q", i, got[i].Scenario.Name, scs[i].Name)
				}
				if w, g := reportJSON(t, want), reportJSON(t, got[i]); w != g {
					t.Fatalf("%s seed %d %s: lockstep member %d of %d differs from its solo run:\nsolo     %s\nlockstep %s",
						spec.Name, gen.Seed, scs[i].Policy, i, k, w, g)
				}
			}
			if got[0].Report.EnergyMWh == got[1].Report.EnergyMWh {
				t.Fatalf("modes %s and %s report the same energy", scs[0].PowerMode, scs[1].PowerMode)
			}
		}
	}
}

func reportJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLockstepRefusesNonSiblings: scenarios that differ in more than
// power mode and name, or that are not lockstep candidates at all, do
// not run together.
func TestLockstepRefusesNonSiblings(t *testing.T) {
	cs, err := Compile(config.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{Workload: WorkloadIdle, HorizonSec: 600, TickSec: 15, NoExport: true, NoHistory: true}
	other := base
	other.PowerMode = "dc380"
	other.Policy = "sjf"
	cooled := base
	cooled.Cooling = true
	history := base
	history.NoHistory = false
	for name, sc := range map[string]Scenario{"policy": other, "cooled": cooled, "history": history} {
		if _, err := cs.Twin().RunLockstep(context.Background(), []Scenario{base, sc}); err == nil {
			t.Errorf("%s: lockstep run accepted a non-sibling", name)
		}
	}
	if ModeSiblings(&history, &history) {
		t.Error("a scenario keeping its history is a lockstep candidate")
	}
}

// BenchmarkWhatifDay times one uncooled synthetic Frontier day at a 15 s
// tick with NoExport and NoHistory: bench/'s whatif-sweep scenarios
// without the HTTP service around them. solo is one ac-baseline day;
// lockstep=2 runs smart-rectifier and dc380 as one group (the pair a
// what-if sweep dispatches after its first scenario), and lockstep=3 all
// three modes. Compare lockstep=K with K solo days; profile in-package:
//
//	go test ./internal/core/ -run '^$' -bench WhatifDay/lockstep=3 -cpuprofile cpu.out
func BenchmarkWhatifDay(b *testing.B) {
	tw, err := NewFrontier()
	if err != nil {
		b.Fatal(err)
	}
	gen := job.DefaultGeneratorConfig()
	gen.Seed = 3
	base := Scenario{
		Workload: WorkloadSynthetic, Generator: gen,
		HorizonSec: 86400, TickSec: 15,
		NoExport: true, NoHistory: true,
	}
	for _, group := range []struct {
		name  string
		modes []string
	}{
		{"solo", []string{"ac-baseline"}},
		{"lockstep=2", []string{"smart-rectifier", "dc380"}},
		{"lockstep=3", []string{"ac-baseline", "smart-rectifier", "dc380"}},
	} {
		scs := make([]Scenario, len(group.modes))
		for i, mode := range group.modes {
			scs[i] = base
			scs[i].Name, scs[i].PowerMode = mode, mode
		}
		b.Run(group.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tw.RunLockstep(context.Background(), scs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
