package autocsm

import (
	"encoding/json"
	"math"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
)

// FuzzCoolingSpec decodes arbitrary bytes as the JSON cooling spec a
// scenario carries over HTTP and runs the plant path a cooled scenario
// takes: CoolingSpec.Validate, Compile, cooling.Config.Validate, the
// plant build and one 15 s step at the spec's design heat (640 kW per
// CDU for a preset) and a 20 °C wet bulb. It must never panic, and a
// spec the path accepts must step to finite outputs. Plants wider than
// 64 CDU loops or 256 tower cells are skipped to keep an execution
// cheap; unit counts are bounded by Validate, not by the fuzzer. The
// seed corpus under testdata/fuzz holds one spec per refusal class, the
// two finite-but-extreme design quantities that once sized an infinite
// plant value, and accepted preset and generated plants. A refusal's
// message goes back to the client in a 400, so it must stay under
// maxRefusalBytes whatever values the spec holds.
func FuzzCoolingSpec(f *testing.F) {
	const maxRefusalBytes = 512
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec config.CoolingSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			if n := len(err.Error()); n > maxRefusalBytes {
				t.Fatalf("Validate refusal of %d bytes: %.120s…", n, err)
			}
			return
		}
		cfg, err := Compile(spec)
		if err != nil {
			if n := len(err.Error()); n > maxRefusalBytes {
				t.Fatalf("Compile refusal of %d bytes: %.120s…", n, err)
			}
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Compile returned a plant Validate refuses: %v", err)
		}
		if cfg.NumCDUs > 64 || cfg.TotalCells() > 256 {
			return
		}
		plant, err := cooling.New(cfg)
		if err != nil {
			return
		}
		perCDU := 640e3
		if spec.Preset == "" {
			perCDU = spec.DesignHeatMW * 1e6 / float64(cfg.NumCDUs)
		}
		heat := make([]float64, cfg.NumCDUs)
		for i := range heat {
			heat[i] = perCDU
		}
		in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: perCDU * float64(cfg.NumCDUs) / 0.945}
		if err := plant.Step(15, in); err != nil {
			return
		}
		for i, v := range plant.Snapshot().Vector() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("output %d (%s) is %v after one step", i, cooling.OutputNames(cfg)[i], v)
			}
		}
	})
}
