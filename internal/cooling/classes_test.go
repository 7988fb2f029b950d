package cooling_test

import (
	"math/rand"
	"strconv"
	"testing"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/cooling"
)

// loadPattern yields the per-CDU heat loads of one step.
type loadPattern struct {
	name string
	// heat fills h for step s; rng is the pattern's own stream.
	heat func(h []float64, s int, rng *rand.Rand)
	// splitAt, when > 0, fouls splitCDU's secondary loop at that step.
	splitAt, splitCDU int
}

// groupedHeat draws 1–5 distinct load levels (idle among them) and
// assigns each CDU one of them, so CDUs share loads bit for bit.
func groupedHeat(h []float64, rng *rand.Rand) {
	levels := make([]float64, 1+rng.Intn(5))
	for i := range levels {
		if rng.Intn(4) > 0 {
			levels[i] = 50e3 + 950e3*rng.Float64()
		}
	}
	for i := range h {
		h[i] = levels[rng.Intn(len(levels))]
	}
}

var loadPatterns = []loadPattern{
	{name: "groups", heat: func(h []float64, s int, rng *rand.Rand) {
		if s%20 == 0 {
			groupedHeat(h, rng)
		}
	}},
	{name: "distinct", heat: func(h []float64, s int, rng *rand.Rand) {
		if s%20 == 0 {
			for i := range h {
				h[i] = 50e3 + 950e3*rng.Float64()
			}
		}
	}},
	// One uniform load throughout; fouling one member mid-run splits its
	// class apart.
	{name: "split", heat: func(h []float64, s int, rng *rand.Rand) {
		if s == 0 {
			for i := range h {
				h[i] = 600e3
			}
		}
	}, splitAt: 100, splitCDU: 3},
}

// TestCDUClassSharingIsExact checks that computing one CDU per class and
// copying it to the others changes no bit of the solution: a plant with
// sharing and the same plant with every CDU in its own class agree on
// state, outputs, heat flows, aux power, PUE and solver accounting after
// every step, on the Frontier preset and an AutoCSM-generated plant,
// under both solvers.
func TestCDUClassSharingIsExact(t *testing.T) {
	generated, err := autocsm.Generate(config.Frontier().Cooling)
	if err != nil {
		t.Fatal(err)
	}
	plants := []struct {
		name string
		cfg  cooling.Config
	}{{"frontier", cooling.Frontier()}, {"autocsm", generated}}
	const steps = 240
	for _, pl := range plants {
		for _, solver := range []string{cooling.SolverRK4, cooling.SolverAdaptive} {
			for pi, pat := range loadPatterns {
				t.Run(pl.name+"/"+solver+"/"+pat.name, func(t *testing.T) {
					cfg := pl.cfg
					cfg.Solver = solver
					shared, err := cooling.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref, _ := cooling.New(cfg)
					cooling.NoClassSharing(ref)
					rng := rand.New(rand.NewSource(int64(17 + pi)))
					heat := make([]float64, cfg.NumCDUs)
					wb := 18.0
					for s := 0; s < steps; s++ {
						pat.heat(heat, s, rng)
						if s%10 == 0 {
							wb = 10 + 14*rng.Float64()
						}
						if pat.splitAt > 0 && s == pat.splitAt {
							for _, p := range []*cooling.Plant{shared, ref} {
								if err := p.InjectSecondaryFouling(pat.splitCDU, 1.8); err != nil {
									t.Fatal(err)
								}
							}
						}
						in := cooling.Inputs{CDUHeatW: heat, WetBulbC: wb, ITPowerW: 17e6}
						if err := shared.Step(15, in); err != nil {
							t.Fatal(err)
						}
						if err := ref.Step(15, in); err != nil {
							t.Fatal(err)
						}
						if d := plantDiff(shared, ref); d != "" {
							t.Fatalf("step %d: shared plant differs from unshared: %s", s, d)
						}
					}
					checkClassCounts(t, pat, shared, ref, cfg.NumCDUs)
				})
			}
		}
	}
}

// checkClassCounts verifies the CDU class accounting: the reference solves
// every CDU, the shared plant splits the same total, and each pattern
// shares as its loads allow.
func checkClassCounts(t *testing.T, pat loadPattern, shared, ref *cooling.Plant, nCDU int) {
	t.Helper()
	st, rt := shared.SolverStats(), ref.SolverStats()
	if rt.CDUShared != 0 || rt.CDUSolved != rt.ControlSteps*nCDU {
		t.Errorf("unshared plant: solved %d shared %d over %d control steps", rt.CDUSolved, rt.CDUShared, rt.ControlSteps)
	}
	if st.CDUSolved+st.CDUShared != rt.CDUSolved {
		t.Errorf("shared plant counts %d+%d CDUs, want %d", st.CDUSolved, st.CDUShared, rt.CDUSolved)
	}
	switch pat.name {
	case "distinct":
		if st.CDUShared != 0 {
			t.Errorf("distinct loads shared %d CDU solves", st.CDUShared)
		}
	default:
		if st.CDUShared == 0 {
			t.Error("duplicate loads shared no CDU solves")
		}
	}
	if pat.splitAt > 0 {
		// The fouled member left its class: its loop now runs another flow.
		o := shared.Snapshot()
		if o.CDUs[pat.splitCDU].SecondaryFlowM3s == o.CDUs[0].SecondaryFlowM3s {
			t.Error("fouled CDU still matches its former class")
		}
	}
}

// plantDiff names the first observable that differs bit for bit between
// a and b, or returns "".
func plantDiff(a, b *cooling.Plant) string {
	if d := cooling.BitsFirstDiff(cooling.PackedState(a), cooling.PackedState(b)); d >= 0 {
		return "state[" + strconv.Itoa(d) + "]"
	}
	if d := cooling.BitsFirstDiff(a.Snapshot().Vector(), b.Snapshot().Vector()); d >= 0 {
		return "output[" + strconv.Itoa(d) + "]"
	}
	ah, ae, at := a.HeatFlows()
	bh, be, bt := b.HeatFlows()
	if cooling.BitsFirstDiff([]float64{ah, ae, at}, []float64{bh, be, bt}) >= 0 {
		return "heat flows"
	}
	if cooling.BitsFirstDiff([]float64{a.AuxPowerW(), a.PUE()}, []float64{b.AuxPowerW(), b.PUE()}) >= 0 {
		return "aux power or PUE"
	}
	sa, sb := a.SolverStats(), b.SolverStats()
	sa.CDUSolved, sa.CDUShared, sb.CDUSolved, sb.CDUShared = 0, 0, 0, 0
	if sa != sb {
		return "solver stats"
	}
	return ""
}
