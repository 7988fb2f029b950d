package cooling

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzRegisterPresetsFromJSON feeds arbitrary bytes to the loader behind
// the operator's -presets file. It must never panic. A refused document
// registers nothing; an accepted one registers exactly its entries, each
// resolving by name to its decoded plant, which Validate accepts and
// which builds and takes one 15 s step to finite outputs — plants wider
// than 64 CDU loops or 256 tower cells are skipped to keep an execution
// cheap. Every input's registrations are removed before the next, so the
// global registry does not leak across inputs.
func FuzzRegisterPresetsFromJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := PresetNames()
		names, err := RegisterPresetsFromJSON(data)
		defer func() {
			for _, name := range names {
				UnregisterPreset(name)
			}
			if after := PresetNames(); !slices.Equal(after, before) {
				t.Fatalf("registry %v after the input was removed, want %v", after, before)
			}
		}()
		if err != nil {
			return
		}
		var doc map[string]Config
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("accepted document does not decode: %v", err)
		}
		if len(names) != len(doc) {
			t.Fatalf("registered %v from %d entries", names, len(doc))
		}
		for _, name := range names {
			cfg, ok := RegisteredPreset(name)
			if !ok || !reflect.DeepEqual(cfg, doc[name]) {
				t.Fatalf("preset %q resolves to %+v, want %+v", name, cfg, doc[name])
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("registered preset %q fails Validate: %v", name, err)
			}
			if cfg.NumCDUs > 64 || cfg.TotalCells() > 256 {
				continue
			}
			plant, err := New(cfg)
			if err != nil {
				t.Fatalf("registered preset %q does not build: %v", name, err)
			}
			heat := make([]float64, cfg.NumCDUs)
			for i := range heat {
				heat[i] = 640e3
			}
			if err := plant.Step(15, Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: 640e3 * float64(cfg.NumCDUs) / 0.945}); err != nil {
				t.Fatalf("registered preset %q refuses a step: %v", name, err)
			}
			for i, v := range plant.Snapshot().Vector() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("preset %q: output %d (%s) is %v after one step", name, i, OutputNames(cfg)[i], v)
				}
			}
		}
	})
}
