package config

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"exadigit/internal/cooling"
	"exadigit/internal/power"
)

// buildModels assembles every partition's power model.
func buildModels(t *testing.T, s *SystemSpec) []*power.Model {
	t.Helper()
	models := make([]*power.Model, len(s.Partitions))
	for i := range s.Partitions {
		m, err := s.Partitions[i].BuildModel()
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	return models
}

func TestFrontierSpecValidatesAndMatchesBuiltIn(t *testing.T) {
	s := Frontier()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	models := buildModels(t, &s)
	if len(models) != 1 {
		t.Fatalf("%d models", len(models))
	}
	// The config-built model must agree with the hand-built one, field
	// for field (spec, conversion chain, topology, cooling efficiency).
	ref := power.NewFrontierModel()
	if !reflect.DeepEqual(*models[0], *ref) {
		t.Errorf("config model %+v differs from built-in %+v", *models[0], *ref)
	}
	var got, want power.SystemPower
	models[0].ComputeUniform(1, 1, 9472, &got)
	ref.ComputeUniform(1, 1, 9472, &want)
	if math.Abs(got.TotalW-want.TotalW) > 1 {
		t.Errorf("config model %v W vs built-in %v W", got.TotalW, want.TotalW)
	}
	models[0].ComputeUniform(0, 0, 9472, &got)
	ref.ComputeUniform(0, 0, 9472, &want)
	if math.Abs(got.TotalW-want.TotalW) > 1 {
		t.Errorf("idle: config %v vs built-in %v", got.TotalW, want.TotalW)
	}
}

func TestSetonixLikeMultiPartition(t *testing.T) {
	s := SetonixLike()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	models := buildModels(t, &s)
	if len(models) != 2 {
		t.Fatalf("%d partitions, want 2", len(models))
	}
	// CPU partition has no GPUs; its peak node power is CPU-dominated.
	var cpuSP, gpuSP power.SystemPower
	models[0].ComputeUniform(1, 1, models[0].Topo.NodesTotal, &cpuSP)
	models[1].ComputeUniform(1, 1, models[1].Topo.NodesTotal, &gpuSP)
	if cpuSP.Breakdown.GPU != 0 {
		t.Errorf("CPU partition reports GPU power %v", cpuSP.Breakdown.GPU)
	}
	if gpuSP.Breakdown.GPU <= 0 {
		t.Error("GPU partition should draw GPU power")
	}
	// Total system power is the sum over partitions — per-node GPU
	// partition power dominates.
	perNodeCPU := cpuSP.TotalW / float64(models[0].Topo.NodesTotal)
	perNodeGPU := gpuSP.TotalW / float64(models[1].Topo.NodesTotal)
	if perNodeGPU <= perNodeCPU {
		t.Errorf("GPU nodes should draw more: %v vs %v", perNodeGPU, perNodeCPU)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frontier.json")
	orig := Frontier()
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "frontier" || len(loaded.Partitions) != 1 {
		t.Errorf("loaded = %+v", loaded)
	}
	if loaded.Partitions[0].NodesTotal != 9472 {
		t.Errorf("nodes = %d", loaded.Partitions[0].NodesTotal)
	}
	if loaded.Cooling.NumCDUs != 25 {
		t.Errorf("cooling CDUs = %d", loaded.Cooling.NumCDUs)
	}
	if loaded.Partitions[0].Power.Mode != "ac-baseline" {
		t.Errorf("mode = %q", loaded.Partitions[0].Power.Mode)
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := map[string]func(*SystemSpec){
		"no name":        func(s *SystemSpec) { s.Name = "" },
		"no partitions":  func(s *SystemSpec) { s.Partitions = nil },
		"unnamed part":   func(s *SystemSpec) { s.Partitions[0].Name = "" },
		"bad topology":   func(s *SystemSpec) { s.Partitions[0].ChassisPerRack = 3 },
		"bad sivoc":      func(s *SystemSpec) { s.Partitions[0].Power.SivocEta = 1.5 },
		"bad mode":       func(s *SystemSpec) { s.Partitions[0].Power.Mode = "nuclear" },
		"bad coolingeff": func(s *SystemSpec) { s.Partitions[0].Power.CoolingEfficiency = 0 },
		// The cooling cases clear the preset: a preset spec resolves to
		// its hand-calibrated plant and skips the AutoCSM design checks.
		"no cdus":       func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.NumCDUs = 0 },
		"no heat":       func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.DesignHeatMW = 0 },
		"temp order":    func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.SecSupplyC = s.Cooling.CTSupplyC },
		"wetbulb order": func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.CTSupplyC = s.Cooling.DesignWetBulbC - 1 },
		"no flow":       func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.PrimaryFlowGPM = 0 },
		"no tower flow": func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.TowerFlowGPM = -1 },
		"no towers":     func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.NumTowers = 0 },
		"no pumps":      func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.NumHTWPs = 0 },
		// Past the unit cap: 2000 CDU loops, or a tower × cell product
		// that overflows int (it used to crash the plant's first step).
		"cdus past cap": func(s *SystemSpec) { s.Cooling.Preset = ""; s.Cooling.NumCDUs = 2000 },
		"cell overflow": func(s *SystemSpec) {
			s.Cooling.Preset = ""
			s.Cooling.NumTowers, s.Cooling.CellsPerTower = 3037000500, 3037000500
		},
		"bad preset": func(s *SystemSpec) { s.Cooling.Preset = "chiller-9000" },
	}
	for name, mutate := range cases {
		s := Frontier()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := Parse([]byte(`{"name":"x"}`)); err == nil {
		t.Error("incomplete spec should fail validation")
	}
}

// TestValidateBoundsSystemSpec: an inline spec's sizes are bounded and
// its component powers checked, each refusal a FieldError naming the
// field, while both built-in specs still validate.
func TestValidateBoundsSystemSpec(t *testing.T) {
	for _, s := range []SystemSpec{Frontier(), SetonixLike()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	cases := map[string]struct {
		mutate func(*SystemSpec)
		field  string
	}{
		"a billion nodes": {func(s *SystemSpec) {
			p := &s.Partitions[0]
			p.NodesTotal, p.NumCDUs = 1_000_000_000, 1_000_000_000/(128*3)+1
		}, "partitions[0].nodes_total"},
		// Each partition is within the bound, their sum is not.
		"nodes summed over partitions": {func(s *SystemSpec) {
			p := s.Partitions[0]
			p.NodesTotal, p.NumCDUs = 4700*128, 1567
			p.Name = "second"
			s.Partitions[0].NodesTotal, s.Partitions[0].NumCDUs = 4700*128, 1567
			s.Partitions = append(s.Partitions, p)
		}, "partitions[1].nodes_total"},
		"cdu × rack product": {func(s *SystemSpec) { s.Partitions[0].RacksPerCDU = 301 }, "partitions[0].racks_per_cdu"},
		// The product would wrap int and read as small.
		"cdu × rack overflow": {func(s *SystemSpec) {
			s.Partitions[0].NumCDUs, s.Partitions[0].RacksPerCDU = 1<<32, 1<<32
		}, "partitions[0].racks_per_cdu"},
		"partition count": {func(s *SystemSpec) {
			for len(s.Partitions) <= maxPartitions {
				s.Partitions = append(s.Partitions, s.Partitions[0])
			}
		}, "partitions"},
		"negative idle power": {func(s *SystemSpec) { s.Partitions[0].CPUIdleW = -1e308 }, "partitions[0].cpu_idle_w"},
		"NaN ram power":       {func(s *SystemSpec) { s.Partitions[0].RAMW = math.NaN() }, "partitions[0].ram_w"},
		"infinite gpu power":  {func(s *SystemSpec) { s.Partitions[0].GPUMaxW = math.Inf(1) }, "partitions[0].gpu_max_w"},
		"idle above max":      {func(s *SystemSpec) { s.Partitions[0].GPUIdleW = 600 }, "partitions[0].gpu_idle_w"},
		"1e308 W GPU":         {func(s *SystemSpec) { s.Partitions[0].GPUMaxW = 1e308 }, "partitions[0].gpu_max_w"},
		"1e308 W CDU pump":    {func(s *SystemSpec) { s.Partitions[0].CDUPumpW = 1e308 }, "partitions[0].cdu_pump_w"},
		"negative GPU count":  {func(s *SystemSpec) { s.Partitions[0].GPUsPerNode = -1 }, "partitions[0].gpus_per_node"},
		"no rectifiers":       {func(s *SystemSpec) { s.Partitions[0].Power.RectPerChassis = 0 }, "partitions[0].power.rect_per_chassis"},
		"zero optimum load":   {func(s *SystemSpec) { s.Partitions[0].Power.RectPOptW = 0 }, "partitions[0].power.rect_p_opt_w"},
		"curve negative at rating": {func(s *SystemSpec) {
			s.Partitions[0].Power.RectHighDroop = 10
		}, "partitions[0].power.rect_high_droop"},
		// 14 kW GPUs fit the per-part ceiling, but a full chassis then
		// loads each rectifier where its efficiency curve is negative.
		"overloaded chassis": {func(s *SystemSpec) { s.Partitions[0].GPUMaxW = 14000 }, "partitions[0].power.rect_per_chassis"},
	}
	for name, tc := range cases {
		s := Frontier()
		tc.mutate(&s)
		var fe *FieldError
		if err := s.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: Validate() = %v, want a FieldError on %s", name, err, tc.field)
		}
	}
}

// TestValidateAcceptsCoDesignGPUs pins that the chassis-load check
// refuses only a curve that is not positive at full load: B200 (1,000 W)
// and GB300 (1,400 W) GPUs load Frontier's rectifiers past their 15 kW
// rating at peak and still convert at an efficiency of 0.75 or more. A
// dc380 partition bypasses the rectifiers, so 14 kW GPUs validate there;
// building its model in a rectifier mode refuses them.
func TestValidateAcceptsCoDesignGPUs(t *testing.T) {
	for _, w := range []float64{1000, 1400} {
		s := Frontier()
		s.Partitions[0].GPUMaxW = w
		if err := s.Validate(); err != nil {
			t.Errorf("%v W GPUs: Validate() = %v", w, err)
		}
		if _, err := s.Partitions[0].BuildModel(); err != nil {
			t.Errorf("%v W GPUs: BuildModel() = %v", w, err)
		}
	}
	s := Frontier()
	s.Partitions[0].GPUMaxW = 14000
	s.Partitions[0].Power.Mode = "dc380"
	if err := s.Validate(); err != nil {
		t.Errorf("dc380 with 14 kW GPUs: Validate() = %v", err)
	}
	if _, err := s.Partitions[0].BuildModel(); err != nil {
		t.Errorf("dc380 with 14 kW GPUs: BuildModel() = %v", err)
	}
	s.Partitions[0].Power.Mode = "smart-rectifier"
	if _, err := s.Partitions[0].BuildModel(); err == nil {
		t.Error("smart-rectifier with 14 kW GPUs: BuildModel() accepted a negative efficiency")
	}
}

func TestModeMapping(t *testing.T) {
	s := Frontier()
	s.Partitions[0].Power.Mode = "dc380"
	m, err := s.Partitions[0].BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Mode != power.DC380 {
		t.Errorf("mode = %v", m.Chain.Mode)
	}
	s.Partitions[0].Power.Mode = "smart-rectifier"
	m, err = s.Partitions[0].BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Mode != power.SmartRectifier {
		t.Errorf("mode = %v", m.Chain.Mode)
	}
	// Empty mode defaults to the baseline.
	s.Partitions[0].Power.Mode = ""
	m, err = s.Partitions[0].BuildModel()
	if err != nil {
		t.Fatal(err)
	}
	if m.Chain.Mode != power.ACBaseline {
		t.Errorf("default mode = %v", m.Chain.Mode)
	}
}

// TestHashFoldsRegisteredPresetContent pins the cache-invalidation
// contract of the runtime preset registry: registering (or replacing) a
// plant under a name a spec references changes the spec's hash, the
// cooling spec's hash, and therefore every cache keyed on them —
// re-registration cannot silently serve stale compiled designs or
// cached results. Built-in preset names keep their pre-registry hashes.
func TestHashFoldsRegisteredPresetContent(t *testing.T) {
	spec := Frontier()
	spec.Cooling.Preset = "hash-probe"

	h0, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ch0, err := spec.Cooling.Hash()
	if err != nil {
		t.Fatal(err)
	}

	cfgA := cooling.Frontier()
	if err := cooling.RegisterPreset("hash-probe", cfgA); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cooling.UnregisterPreset("hash-probe") })
	h1, _ := spec.Hash()
	ch1, _ := spec.Cooling.Hash()
	if h1 == h0 || ch1 == ch0 {
		t.Fatal("registering a preset did not change the hashes of specs naming it")
	}

	cfgB := cfgA
	cfgB.CTSupplySetC = 23.5
	if err := cooling.RegisterPreset("hash-probe", cfgB); err != nil {
		t.Fatal(err)
	}
	h2, _ := spec.Hash()
	ch2, _ := spec.Cooling.Hash()
	if h2 == h1 || ch2 == ch1 {
		t.Fatal("re-registering a preset did not change the hashes — caches would serve the stale plant")
	}

	// A built-in preset (not in the registry) hashes by name alone, so
	// the default Frontier spec's hash is stable across this test.
	fr := Frontier()
	fh1, _ := fr.Hash()
	fh2, _ := fr.Hash()
	if fh1 != fh2 {
		t.Fatal("built-in preset hash unstable")
	}
}
