package optimize

import (
	"encoding/json"
	"math"
	"testing"

	"exadigit/internal/config"
)

// FuzzStudySpec fuzzes the study-spec boundary POST /api/optimize
// decodes: arbitrary bytes decode to a StudySpec, build a driver, draw
// the first population and apply every candidate to the base scenario.
// Nothing may panic; an accepted study is bounded (population ≤ 4096,
// generations ≤ 1000); and every candidate coordinate is finite and
// inside its knob's [Min, Max]. The seed corpus lives under
// testdata/fuzz.
func FuzzStudySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec StudySpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		d, err := NewDriver(spec, synthBase(), config.CoolingSpec{}, newSynthEval(), Hooks{}, nil)
		if err != nil {
			return
		}
		if d.spec.Population > maxPopulation || d.spec.Generations > maxGenerations {
			t.Fatalf("accepted an unbounded study: population %d, generations %d",
				d.spec.Population, d.spec.Generations)
		}
		knobs := d.space.Knobs()
		for _, vec := range d.samplePopulation() {
			for i, v := range vec {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < knobs[i].Min || v > knobs[i].Max {
					t.Fatalf("knob %+v: candidate coordinate %v outside its range", knobs[i], v)
				}
			}
			if _, err := d.space.Apply(d.base, d.basePlant, vec); err != nil {
				t.Fatalf("candidate %v does not apply: %v", vec, err)
			}
		}
	})
}
