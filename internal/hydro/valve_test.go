package hydro_test

import (
	"math"
	"math/rand"
	"testing"

	"exadigit/internal/autocsm"
	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/hydro"
)

// TestValveResistanceMatchesPow pins Valve.Resistance bit for bit to the
// equal-percentage law evaluated with math.Pow, on the Frontier plant's
// CDU valve and on one from an AutoCSM-generated plant: at the ends, the
// quarters and the middle of the travel, at random positions and at a NaN
// position. A valve whose rangeability changed after NewValve must still
// agree, and so must extreme rangeabilities.
func TestValveResistanceMatchesPow(t *testing.T) {
	spec := config.Frontier().Cooling
	spec.Preset = ""
	generated, err := autocsm.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	frontier := cooling.Frontier()
	valves := map[string]*hydro.Valve{
		"frontier": hydro.NewValve(frontier.PrimValveDPPa, frontier.PrimBranchQ, frontier.PrimValveRange),
		"autocsm":  hydro.NewValve(generated.PrimValveDPPa, generated.PrimBranchQ, generated.PrimValveRange),
	}
	retuned := hydro.NewValve(frontier.PrimValveDPPa, frontier.PrimBranchQ, frontier.PrimValveRange)
	retuned.Rangeability = 33.3
	valves["retuned"] = retuned
	// Rangeabilities whose square lies just inside and past the normal
	// float64 range.
	valves["wide"] = hydro.NewValve(frontier.PrimValveDPPa, frontier.PrimBranchQ, 1e150)
	valves["wider"] = hydro.NewValve(frontier.PrimValveDPPa, frontier.PrimBranchQ, 1e200)

	positions := []float64{0, 0.25, 0.5, 0.75, 1, math.NaN()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1e6; i++ {
		positions = append(positions, rng.Float64())
	}
	for name, v := range valves {
		for _, pos := range positions {
			v.SetPosition(pos)
			want := v.KOpen * math.Pow(math.Max(v.Rangeability, 1), 2*(1-v.Position()))
			if v.KMax > 0 && want > v.KMax {
				want = v.KMax
			}
			if got := v.Resistance().K; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s valve at %v: K = %v, want %v", name, pos, got, want)
			}
		}
	}
}
