package autocsm

import (
	"math"
	"strings"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/cooling"
	"exadigit/internal/thermal"
	"exadigit/internal/units"
)

func TestNTUInversionRoundTrip(t *testing.T) {
	for _, cr := range []float64{0, 0.3, 0.6, 0.9, 1.0} {
		for _, ntu := range []float64{0.5, 1, 2, 4} {
			eps := thermal.Effectiveness(ntu, cr)
			back, err := ntuFromEffectiveness(eps, cr)
			if err != nil {
				t.Fatalf("cr=%v ntu=%v: %v", cr, ntu, err)
			}
			if math.Abs(back-ntu) > 1e-9 {
				t.Errorf("cr=%v: NTU %v → ε %v → %v", cr, ntu, eps, back)
			}
		}
	}
	if _, err := ntuFromEffectiveness(1.2, 0.5); err == nil {
		t.Error("ε > 1 should fail")
	}
	if _, err := ntuFromEffectiveness(0, 0.5); err == nil {
		t.Error("ε = 0 should fail")
	}
}

func TestGenerateFrontierSpecProducesWorkingPlant(t *testing.T) {
	cfg, err := Generate(config.Frontier().Cooling)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	plant, err := cooling.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run the generated plant at its design heat load; it must settle
	// with the energy balanced, just like the hand-built model.
	heat := make([]float64, cfg.NumCDUs)
	for i := range heat {
		heat[i] = 16e6 / float64(cfg.NumCDUs)
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: 16.9e6}
	if err := plant.SettleToSteadyState(in, 4*3600); err != nil {
		t.Fatal(err)
	}
	rej := plant.TowerRejectionW()
	if math.Abs(rej-16e6)/16e6 > 0.08 {
		t.Errorf("generated plant rejects %v MW of 16 MW", rej/1e6)
	}
	o := plant.Snapshot()
	if math.Abs(o.CDUs[0].SecSupplyTempC-32) > 3 {
		t.Errorf("secondary supply = %v", o.CDUs[0].SecSupplyTempC)
	}
	pue := plant.PUE()
	if pue < 1.01 || pue > 1.12 {
		t.Errorf("PUE = %v", pue)
	}
}

func TestGenerateSetonixSpec(t *testing.T) {
	spec := config.SetonixLike().Cooling
	cfg, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumCDUs != 7 || cfg.NumTowers != 2 {
		t.Errorf("counts: %d CDUs, %d towers", cfg.NumCDUs, cfg.NumTowers)
	}
	plant, err := cooling.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heat := make([]float64, cfg.NumCDUs)
	for i := range heat {
		heat[i] = 3e6 / float64(cfg.NumCDUs)
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: 21, ITPowerW: 3.2e6}
	if err := plant.SettleToSteadyState(in, 4*3600); err != nil {
		t.Fatal(err)
	}
	if rej := plant.TowerRejectionW(); math.Abs(rej-3e6)/3e6 > 0.10 {
		t.Errorf("setonix-like plant rejects %v MW of 3 MW", rej/1e6)
	}
}

func TestGeneratedFlowsNearSpec(t *testing.T) {
	spec := config.Frontier().Cooling
	cfg, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	plant, err := cooling.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heat := make([]float64, cfg.NumCDUs)
	for i := range heat {
		heat[i] = spec.DesignHeatMW * 1e6 / float64(cfg.NumCDUs)
	}
	in := cooling.Inputs{CDUHeatW: heat, WetBulbC: spec.DesignWetBulbC, ITPowerW: spec.DesignHeatMW * 1e6 / 0.945}
	if err := plant.SettleToSteadyState(in, 4*3600); err != nil {
		t.Fatal(err)
	}
	o := plant.Snapshot()
	htwGPM := o.HTWFlowM3s * units.M3sToGPM
	if htwGPM < spec.PrimaryFlowGPM*0.5 || htwGPM > spec.PrimaryFlowGPM*1.6 {
		t.Errorf("primary flow %v gpm vs spec %v", htwGPM, spec.PrimaryFlowGPM)
	}
	ctwGPM := o.CTWFlowM3s * units.M3sToGPM
	if ctwGPM < spec.TowerFlowGPM*0.5 || ctwGPM > spec.TowerFlowGPM*1.6 {
		t.Errorf("tower flow %v gpm vs spec %v", ctwGPM, spec.TowerFlowGPM)
	}
}

func TestGenerateRejectsInfeasibleSpecs(t *testing.T) {
	base := config.Frontier().Cooling
	cases := map[string]func(*config.CoolingSpec){
		"zero cdus":       func(s *config.CoolingSpec) { s.NumCDUs = 0 },
		"zero heat":       func(s *config.CoolingSpec) { s.DesignHeatMW = 0 },
		"temp order":      func(s *config.CoolingSpec) { s.SecSupplyC = s.CTSupplyC - 1 },
		"wetbulb order":   func(s *config.CoolingSpec) { s.CTSupplyC = s.DesignWetBulbC },
		"zero flow":       func(s *config.CoolingSpec) { s.PrimaryFlowGPM = 0 },
		"zero pumps":      func(s *config.CoolingSpec) { s.NumHTWPs = 0 },
		"starved primary": func(s *config.CoolingSpec) { s.PrimaryFlowGPM = 800 },
		"starved towers":  func(s *config.CoolingSpec) { s.TowerFlowGPM = 1500 },
		// A tower loop that turns its volume over in 0.5 s, which the
		// fixed-step solver cannot integrate.
		"flooded towers": func(s *config.CoolingSpec) { s.TowerFlowGPM = 9500 * 200 },
	}
	for name, mutate := range cases {
		spec := base
		mutate(&spec)
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestEmitModelica(t *testing.T) {
	cfg, err := Generate(config.Frontier().Cooling)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := EmitModelica(&sb, "FrontierCooling", cfg); err != nil {
		t.Fatal(err)
	}
	src := sb.String()
	for _, want := range []string{
		"model FrontierCooling",
		"end FrontierCooling;",
		"parameter Integer nCDUs = 25",
		"CounterflowHX cduHex",
		"CoolingTowerCell cell",
		"Controls.PID cduValvePID",
		"RealInput Q_cdu[nCDUs]",
		"RealInput T_wetbulb",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("emitted Modelica missing %q", want)
		}
	}
}
