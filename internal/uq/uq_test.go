package uq

import (
	"math"
	"testing"

	"exadigit/internal/job"
	"exadigit/internal/power"
)

func idleEnsemble(t *testing.T, members int, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{
		Members: members, Seed: seed, HorizonSec: 300, TickSec: 15,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEnsembleIntervalsBracketNominal(t *testing.T) {
	res := idleEnsemble(t, 24, 1)
	if res.Members != 24 || len(res.MemberReports) != 24 {
		t.Fatalf("members = %d", res.Members)
	}
	// Nominal idle power 7.24 MW must sit inside the 5-95 band.
	if res.PowerMW.P05 > 7.24 || res.PowerMW.P95 < 7.24 {
		t.Errorf("idle band [%v, %v] misses nominal 7.24", res.PowerMW.P05, res.PowerMW.P95)
	}
	// The band is tight: datasheet tolerances are a few percent.
	width := res.PowerMW.P95 - res.PowerMW.P05
	if width <= 0 || width > 0.4 {
		t.Errorf("band width = %v MW", width)
	}
	if res.PowerMW.P05 > res.PowerMW.Mean || res.PowerMW.Mean > res.PowerMW.P95 {
		t.Error("mean outside its own band")
	}
	if res.EtaSystem.Std <= 0 {
		t.Error("efficiency should show spread under eta perturbations")
	}
}

func TestEnsembleReproducible(t *testing.T) {
	a := idleEnsemble(t, 8, 7)
	b := idleEnsemble(t, 8, 7)
	if a.PowerMW.Mean != b.PowerMW.Mean || a.PowerMW.Std != b.PowerMW.Std {
		t.Error("same seed must reproduce the ensemble")
	}
	c := idleEnsemble(t, 8, 8)
	if a.PowerMW.Mean == c.PowerMW.Mean {
		t.Error("different seeds should differ")
	}
}

func TestEnsembleWithWorkload(t *testing.T) {
	mk := func() []*job.Job {
		j := job.New(1, "load", 8000, 600, 0)
		j.CPUTrace = job.FlatTrace(0.8, 600)
		j.GPUTrace = job.FlatTrace(0.8, 600)
		return []*job.Job{j}
	}
	res, err := Run(Config{Members: 8, Seed: 3, HorizonSec: 300, TickSec: 15}, mk)
	if err != nil {
		t.Fatal(err)
	}
	// Loaded system: ≈20+ MW with a wider absolute band than idle.
	if res.PowerMW.Mean < 18 {
		t.Errorf("loaded ensemble mean = %v MW", res.PowerMW.Mean)
	}
	for _, r := range res.MemberReports {
		if r.AvgPowerMW <= 0 {
			t.Fatal("member produced no power")
		}
	}
	// CO2 spread follows energy and efficiency spread.
	if res.CO2Tons.Std <= 0 {
		t.Error("CO2 should show spread")
	}
}

func TestSinglePerturbationIsolation(t *testing.T) {
	// Only the SIVOC efficiency perturbed: power moves inversely with it.
	perts := []Perturbation{{
		Name: "sivoc_eta", Rel: 0.01,
		Apply: func(m *power.Model, f float64) { m.Chain.EtaSIVOC = m.Chain.EtaSIVOC * f },
	}}
	res, err := Run(Config{
		Members: 16, Seed: 5, HorizonSec: 120, TickSec: 15, Perturbations: perts,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PowerMW.Std <= 0 {
		t.Error("perturbing SIVOC must spread power")
	}
	// Members with lower efficiency draw more power: spread is ≈±0.5 %
	// of the conversion-chain share.
	if res.PowerMW.P95-res.PowerMW.P05 > 0.2 {
		t.Errorf("±1%% SIVOC spread too wide: %v MW", res.PowerMW.P95-res.PowerMW.P05)
	}
}

func TestDefaultPerturbationsApplyCleanly(t *testing.T) {
	perts := DefaultPerturbations()
	if len(perts) < 6 {
		t.Fatalf("only %d perturbations", len(perts))
	}
	m := power.NewFrontierModel()
	for _, p := range perts {
		if p.Name == "" || p.Rel <= 0 || p.Rel > 0.2 {
			t.Errorf("perturbation %+v malformed", p.Name)
		}
		p.Apply(m, 1.0) // identity factor must not corrupt the model
	}
	var sp power.SystemPower
	m.ComputeUniform(0, 0, 9472, &sp)
	if math.Abs(sp.TotalW/1e6-7.24) > 0.05 {
		t.Errorf("identity perturbations changed the model: %v MW", sp.TotalW/1e6)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("zero horizon should fail")
	}
}

func TestIntervalQuantiles(t *testing.T) {
	res := idleEnsemble(t, 2, 11)
	// Degenerate small ensembles still produce ordered quantiles.
	if res.PowerMW.P05 > res.PowerMW.P95 {
		t.Error("quantiles out of order")
	}
}

// TestEnsembleIntervalsPinned pins seeded ensemble intervals bit for bit
// (a loaded 8-member and an idle 5-member ensemble): the interval
// statistics come from stats.Summarize over the sorted member values,
// and any change to their arithmetic or summation order shows here.
func TestEnsembleIntervalsPinned(t *testing.T) {
	load := func() []*job.Job {
		j := job.New(1, "load", 8000, 600, 0)
		j.CPUTrace = job.FlatTrace(0.8, 600)
		j.GPUTrace = job.FlatTrace(0.8, 600)
		return []*job.Job{j}
	}
	for _, tc := range []struct {
		cfg  Config
		jobs func() []*job.Job
		want [5][4]uint64 // power, energy, loss, eta, CO2: mean, std, p05, p95
	}{
		{Config{Members: 8, Seed: 3, HorizonSec: 300, TickSec: 15}, load, [5][4]uint64{
			{0x403548d98efd4c64, 0x3fc5bea69132b536, 0x40350bd72941f58b, 0x403586ebdea5ee15},
			{0x3ffc612213fc65dc, 0x3f8cfe336c439c11, 0x3ffc0fc98c57f210, 0x3ffcb3e528dd3d72},
			{0x3ff3dd6bdba08d44, 0x3fc5d839c99d7cb9, 0x3feffd17df4cb550, 0x3ff7b04760c4b872},
			{0x3fee0f9a50ee07df, 0x3f800dac96155dbd, 0x3fedb66ba2bc414a, 0x3fee6b444c232424},
			{0x3fe75c91f529a30a, 0x3f88620d6bea881c, 0x3fe6d3525bd05fc3, 0x3fe7e6f4d6da728e},
		}},
		{Config{Members: 5, Seed: 11, HorizonSec: 300, TickSec: 15}, nil, [5][4]uint64{
			{0x401cea4a1666bc96, 0x3f93cd79e472cc39, 0x401cd9315b5e0ba8, 0x401d0800799524be},
			{0x3fe346dc0eef2865, 0x3f5a674d30990f98, 0x3fe33b763ce95d1c, 0x3fe35aaafbb8c329},
			{0x3fdef97194cd30d2, 0x3f9d3de060a27ddf, 0x3fdc3da46e44a442, 0x3fe061abb0da7a3a},
			{0x3fed962835b31833, 0x3f71b307c24c3f9e, 0x3fed74cafa594163, 0x3fedcb89e0f94b38},
			{0x3fd01f005bd4be65, 0x3f598b7027f887c2, 0x3fcffcbf9aa87cca, 0x3fd03f817616a399},
		}},
	} {
		res, err := Run(tc.cfg, tc.jobs)
		if err != nil {
			t.Fatal(err)
		}
		for k, iv := range []Interval{res.PowerMW, res.EnergyMWh, res.LossMW, res.EtaSystem, res.CO2Tons} {
			got := [4]uint64{math.Float64bits(iv.Mean), math.Float64bits(iv.Std),
				math.Float64bits(iv.P05), math.Float64bits(iv.P95)}
			if got != tc.want[k] {
				t.Errorf("%d members, seed %d, interval %d: %#x, want %#x", tc.cfg.Members, tc.cfg.Seed, k, got, tc.want[k])
			}
		}
	}
}
