package cooling

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cleanupRegistry removes test entries so preset state does not leak
// across tests in the package.
func cleanupRegistry(t *testing.T, names ...string) {
	t.Cleanup(func() {
		registeredMu.Lock()
		for _, n := range names {
			delete(registered, n)
		}
		registeredMu.Unlock()
	})
}

// TestPresetJSONRoundTripFrontier is the registry's fidelity guarantee:
// the hand-calibrated Frontier plant survives a JSON round trip through
// the registry bit-for-bit, so deployments can ship calibrated plants as
// data without a rebuild.
func TestPresetJSONRoundTripFrontier(t *testing.T) {
	data, err := json.Marshal(map[string]Config{"frontier-json": Frontier()})
	if err != nil {
		t.Fatal(err)
	}
	names, err := RegisterPresetsFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	cleanupRegistry(t, "frontier-json")
	if len(names) != 1 || names[0] != "frontier-json" {
		t.Fatalf("registered names = %v", names)
	}
	got, ok := Preset("frontier-json")
	if !ok {
		t.Fatal("registered preset not resolvable")
	}
	if got != Frontier() {
		t.Fatalf("JSON round trip changed the plant:\ngot  %+v\nwant %+v", got, Frontier())
	}
}

// TestRegisteredPresetShadowsBuiltin pins the resolution order the spec
// pipeline relies on: a registered plant wins over a built-in of the
// same name, so a deployment can recalibrate "frontier" as data.
func TestRegisteredPresetShadowsBuiltin(t *testing.T) {
	cfg := Frontier()
	cfg.CTSupplySetC = 23.5
	if err := RegisterPreset("frontier", cfg); err != nil {
		t.Fatal(err)
	}
	cleanupRegistry(t, "frontier")
	got, ok := Preset("frontier")
	if !ok {
		t.Fatal("preset vanished")
	}
	if got.CTSupplySetC != 23.5 {
		t.Fatalf("registered preset did not shadow the built-in: CTSupplySetC = %v", got.CTSupplySetC)
	}
}

// TestRegisterPresetsFromFileAndValidation covers the file loader and
// the all-or-nothing validation: one invalid plant aborts the load with
// nothing registered.
func TestRegisterPresetsFromFileAndValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "presets.json")
	data, err := json.Marshal(map[string]Config{"site-a": Frontier()})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := RegisterPresetsFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cleanupRegistry(t, "site-a")
	if len(names) != 1 || names[0] != "site-a" {
		t.Fatalf("names = %v", names)
	}

	bad := Frontier()
	bad.NumCDUs = 0
	data, err = json.Marshal(map[string]Config{"ok": Frontier(), "broken": bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RegisterPresetsFromJSON(data); err == nil {
		t.Fatal("invalid preset accepted")
	}
	if _, ok := Preset("ok"); ok {
		t.Fatal("partial load registered the valid half of an invalid document")
	}
}

// TestValidateRefusesDegenerateTerms pins the refusal of a plant whose
// loops or exchangers have a zero term: the unit-count plant with only an
// HTW shutoff head, which stepped to NaN pressures before, and Frontier
// with each such term zeroed in turn, refused naming the field.
func TestValidateRefusesDegenerateTerms(t *testing.T) {
	const unit = `{"NumCDUs":1,"NumFanChannels":1,"NumTowers":1,"CellsPerTower":1,"NumHTWPs":1,"NumCTWPs":1,"NumEHX":1,` +
		`"SecVolumeKg":1,"HTWVolumeKg":1,"CTWVolumeKg":1,"ControlDtS":1,"HTWPump":{"H0":1}}`
	if _, err := RegisterPresetsFromJSON([]byte(`{"unit":` + unit + `}`)); err == nil || !strings.Contains(err.Error(), "SecPump.H0") {
		t.Fatalf("unit plant: err %v, want a refusal naming SecPump.H0", err)
	}
	for field, zero := range map[string]func(*Config){
		"SecPump.H0":        func(c *Config) { c.SecPump.H0 = 0 },
		"SecLoopK":          func(c *Config) { c.SecLoopK = 0 },
		"CDUHex.UANominal":  func(c *Config) { c.CDUHex.UANominal = 0 },
		"CDUHex.MdotHotN":   func(c *Config) { c.CDUHex.MdotHotN = 0 },
		"CDUHex.MdotColdN":  func(c *Config) { c.CDUHex.MdotColdN = 0 },
		"PrimValveDPPa":     func(c *Config) { c.PrimValveDPPa = 0 },
		"PrimBranchQ":       func(c *Config) { c.PrimBranchQ = -1 },
		"HTWPump.H0":        func(c *Config) { c.HTWPump.H0 = 0 },
		"HTWLoopK":          func(c *Config) { c.HTWLoopK = 0 },
		"EHX.UANominal":     func(c *Config) { c.EHX.UANominal = 0 },
		"EHX.MdotHotN":      func(c *Config) { c.EHX.MdotHotN = 0 },
		"EHX.MdotColdN":     func(c *Config) { c.EHX.MdotColdN = 0 },
		"CTWPump.H0":        func(c *Config) { c.CTWPump.H0 = 0 },
		"CTWLoopK":          func(c *Config) { c.CTWLoopK = 0 },
		"Tower.EpsNominal":  func(c *Config) { c.Tower.EpsNominal = 0 },
		"Tower.MdotNominal": func(c *Config) { c.Tower.MdotNominal = 0 },
	} {
		cfg := Frontier()
		zero(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Frontier with %s zeroed: err %v, want a refusal naming it", field, err)
		}
	}
	if err := Frontier().Validate(); err != nil {
		t.Fatal(err)
	}
}
