package cooling

import (
	"math"
	"testing"

	"exadigit/internal/units"
)

// typicalInputs returns a 17 MW-ish operating point: the Table IV average
// power (16.9 MW) × 0.945 cooling efficiency spread over 25 CDUs.
func typicalInputs() Inputs {
	heat := make([]float64, 25)
	for i := range heat {
		heat[i] = 16.0e6 / 25
	}
	return Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: 16.9e6}
}

func settledPlant(t *testing.T, in Inputs) *Plant {
	t.Helper()
	p, err := New(Frontier())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SettleToSteadyState(in, 4*3600); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := Frontier().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Frontier()
	bad.NumCDUs = 0
	if bad.Validate() == nil {
		t.Error("zero CDUs should fail")
	}
	bad = Frontier()
	bad.NumFanChannels = 99
	if bad.Validate() == nil {
		t.Error("more fan channels than cells should fail")
	}
	bad = Frontier()
	bad.ControlDtS = 0
	if bad.Validate() == nil {
		t.Error("zero control period should fail")
	}
	bad = Frontier()
	bad.HTWVolumeKg = -1
	if bad.Validate() == nil {
		t.Error("negative volume should fail")
	}
	if _, err := New(bad); err == nil {
		t.Error("New must reject invalid config")
	}
}

func TestStepInputValidation(t *testing.T) {
	p, err := New(Frontier())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Step(15, Inputs{CDUHeatW: make([]float64, 3)}); err == nil {
		t.Error("wrong CDU count should fail")
	}
	heat := make([]float64, 25)
	heat[3] = -5
	if err := p.Step(15, Inputs{CDUHeatW: heat}); err == nil {
		t.Error("negative heat should fail")
	}
	heat[3] = math.NaN()
	if err := p.Step(15, Inputs{CDUHeatW: heat}); err == nil {
		t.Error("NaN heat should fail")
	}
	heat[3] = math.Inf(1)
	if err := p.Step(15, Inputs{CDUHeatW: heat}); err == nil {
		t.Error("+Inf heat should fail")
	}
	heat[3] = 0
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := p.Step(15, Inputs{CDUHeatW: heat, WetBulbC: v}); err == nil {
			t.Errorf("wet bulb %v should fail", v)
		}
		if err := p.Step(15, Inputs{CDUHeatW: heat, WetBulbC: 20, ITPowerW: v}); err == nil {
			t.Errorf("IT power %v should fail", v)
		}
	}
	// Rejected steps touch nothing: the plant still stands where New left
	// it, and a valid step from there yields a finite plant.
	if p.Time() != 0 || p.SolverStats() != (SolverStats{}) {
		t.Errorf("rejected steps advanced the plant: t=%v stats=%+v", p.Time(), p.SolverStats())
	}
	fresh, _ := New(Frontier())
	if d := bitsFirstDiff(p.Snapshot().Vector(), fresh.Snapshot().Vector()); d >= 0 {
		t.Errorf("rejected steps changed output %d", d)
	}
	if err := p.Step(15, typicalInputs()); err != nil {
		t.Fatal(err)
	}
	for i, x := range p.Snapshot().Vector() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("output %d is %v after a valid step", i, x)
		}
	}
}

// bitsFirstDiff returns the first index where a and b differ bit for bit,
// or -1.
func bitsFirstDiff(a, b []float64) int {
	for i := range a {
		if i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	in := typicalInputs()
	p := settledPlant(t, in)
	heatIn := p.TotalHeatInW()
	rejected := p.TowerRejectionW()
	if math.Abs(rejected-heatIn)/heatIn > 0.05 {
		t.Errorf("towers reject %v MW of %v MW injected (>5%% imbalance)",
			rejected/1e6, heatIn/1e6)
	}
}

func TestSteadyStateTemperaturesSane(t *testing.T) {
	in := typicalInputs()
	p := settledPlant(t, in)
	o := p.Snapshot()
	// Secondary supply should be held near the 32 °C setpoint.
	for i, c := range o.CDUs {
		if math.Abs(c.SecSupplyTempC-32) > 2.5 {
			t.Errorf("CDU %d secondary supply %v °C, setpoint 32", i, c.SecSupplyTempC)
		}
		if c.SecReturnTempC <= c.SecSupplyTempC {
			t.Errorf("CDU %d return %v must exceed supply %v", i, c.SecReturnTempC, c.SecSupplyTempC)
		}
		if c.PrimaryReturnTempC <= c.PrimarySupplyTempC {
			t.Errorf("CDU %d primary return %v must exceed supply %v",
				i, c.PrimaryReturnTempC, c.PrimarySupplyTempC)
		}
	}
	// Temperature ordering across loops: wet bulb < CTW supply <
	// HTW supply < HTW return.
	if !(in.WetBulbC < p.ctwSupply.T && p.ctwSupply.T < p.htwSupply.T && p.htwSupply.T < p.htwReturn.T) {
		t.Errorf("loop temperature ordering violated: wb=%v ctw=%v htws=%v htwr=%v",
			in.WetBulbC, p.ctwSupply.T, p.htwSupply.T, p.htwReturn.T)
	}
}

func TestSteadyStateFlowsMatchPaperRanges(t *testing.T) {
	in := typicalInputs()
	p := settledPlant(t, in)
	o := p.Snapshot()
	htwGPM := o.HTWFlowM3s * units.M3sToGPM
	ctwGPM := o.CTWFlowM3s * units.M3sToGPM
	// §III-C1: HTWPs ≈5000-6000 gpm, CTWPs ≈9000-10000 gpm. Allow slack
	// since staging varies with load.
	if htwGPM < 3500 || htwGPM > 7500 {
		t.Errorf("HTW flow = %v gpm, want ≈5000-6000", htwGPM)
	}
	if ctwGPM < 6000 || ctwGPM > 12000 {
		t.Errorf("CTW flow = %v gpm, want ≈9000-10000", ctwGPM)
	}
}

func TestPUETypicalRange(t *testing.T) {
	in := typicalInputs()
	p := settledPlant(t, in)
	pue := p.PUE()
	if pue < 1.01 || pue > 1.10 {
		t.Errorf("PUE = %v, want ≈1.03-1.06 for a liquid-cooled plant", pue)
	}
	// CDU pump power should be ≈8.7 kW each (Table I).
	o := p.Snapshot()
	for i, c := range o.CDUs {
		if c.PumpPowerW < 5e3 || c.PumpPowerW > 12e3 {
			t.Errorf("CDU %d pump power %v W, want ≈8.7 kW", i, c.PumpPowerW)
		}
	}
}

func TestPUEWithoutITPower(t *testing.T) {
	p, err := New(Frontier())
	if err != nil {
		t.Fatal(err)
	}
	in := typicalInputs()
	in.ITPowerW = 0
	if err := p.Step(15, in); err != nil {
		t.Fatal(err)
	}
	if p.PUE() != 0 {
		t.Error("PUE without IT power should be 0")
	}
}

func TestLoadStepTransientResponse(t *testing.T) {
	// Fig. 8 behaviour: a power surge raises the primary return
	// temperature over minutes, then the plant re-stabilizes.
	in := typicalInputs()
	p := settledPlant(t, in)
	beforeReturn := p.htwReturn.T

	// HPL-like surge: +60 % heat.
	surge := typicalInputs()
	for i := range surge.CDUHeatW {
		surge.CDUHeatW[i] *= 1.6
	}
	if err := p.Step(300, surge); err != nil {
		t.Fatal(err)
	}
	after5min := p.htwReturn.T
	if after5min <= beforeReturn+0.3 {
		t.Errorf("return temp should rise after surge: %v → %v", beforeReturn, after5min)
	}
	// Continue: system must remain bounded (controllers hold).
	if err := p.Step(3600, surge); err != nil {
		t.Fatal(err)
	}
	if p.htwReturn.T > 70 || p.htwSupply.T > 60 {
		t.Errorf("plant ran away: supply %v return %v", p.htwSupply.T, p.htwReturn.T)
	}
	// Heat balance restored at the new level.
	if math.Abs(p.TowerRejectionW()-p.TotalHeatInW())/p.TotalHeatInW() > 0.08 {
		t.Errorf("post-surge imbalance: rej %v in %v", p.TowerRejectionW(), p.TotalHeatInW())
	}
}

func TestWetBulbSensitivity(t *testing.T) {
	// Warmer outdoor air must raise the CTW supply temperature (the
	// weather-correlation use case of §III-A).
	cool := typicalInputs()
	cool.WetBulbC = 5
	pCool := settledPlant(t, cool)

	warm := typicalInputs()
	warm.WetBulbC = 26
	pWarm := settledPlant(t, warm)

	if pWarm.ctwSupply.T <= pCool.ctwSupply.T {
		t.Errorf("CTW supply should track wet bulb: %v (warm) vs %v (cool)",
			pWarm.ctwSupply.T, pCool.ctwSupply.T)
	}
	// Fans must work harder in warm weather.
	if pWarm.fanSpeed <= pCool.fanSpeed {
		t.Errorf("fan speed should rise with wet bulb: %v vs %v",
			pWarm.fanSpeed, pCool.fanSpeed)
	}
}

func TestStagingRespondsToLoad(t *testing.T) {
	// A lightly loaded plant should stage down equipment relative to a
	// heavily loaded one.
	light := typicalInputs()
	for i := range light.CDUHeatW {
		light.CDUHeatW[i] = 3e6 / 25
	}
	light.ITPowerW = 3.2e6
	pLight := settledPlant(t, light)

	heavy := typicalInputs()
	for i := range heavy.CDUHeatW {
		heavy.CDUHeatW[i] = 26e6 / 25
	}
	heavy.ITPowerW = 27.5e6
	pHeavy := settledPlant(t, heavy)

	oL, oH := pLight.Snapshot(), pHeavy.Snapshot()
	if oL.NumCellsStaged > oH.NumCellsStaged {
		t.Errorf("light load staged %d cells > heavy load %d", oL.NumCellsStaged, oH.NumCellsStaged)
	}
	if oL.NumEHXStaged > oH.NumEHXStaged {
		t.Errorf("light load staged %d EHX > heavy %d", oL.NumEHXStaged, oH.NumEHXStaged)
	}
	// Heavy load must reject more heat and draw more aux power.
	if pHeavy.AuxPowerW() <= pLight.AuxPowerW() {
		t.Errorf("aux power should grow with load: %v vs %v",
			pHeavy.AuxPowerW(), pLight.AuxPowerW())
	}
}

func TestSnapshotVector317(t *testing.T) {
	p, err := New(Frontier())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Step(15, typicalInputs()); err != nil {
		t.Fatal(err)
	}
	v := p.Snapshot().Vector()
	if len(v) != NumOutputs {
		t.Fatalf("vector length = %d, want %d (§III-C4)", len(v), NumOutputs)
	}
	names := OutputNames(Frontier())
	if len(names) != NumOutputs {
		t.Fatalf("names length = %d, want %d", len(names), NumOutputs)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate output name %q", n)
		}
		seen[n] = true
	}
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("output %d (%s) is not finite: %v", i, names[i], x)
		}
	}
}

func TestOutputVectorOrderingSpotChecks(t *testing.T) {
	in := typicalInputs()
	p := settledPlant(t, in)
	o := p.Snapshot()
	v := o.Vector()
	names := OutputNames(Frontier())
	idx := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		t.Fatalf("name %q missing", name)
		return -1
	}
	if v[idx("pue")] != o.PUE {
		t.Error("pue misplaced")
	}
	if v[idx("cdu[1].pump_power_w")] != o.CDUs[0].PumpPowerW {
		t.Error("cdu[1].pump_power_w misplaced")
	}
	if v[idx("cdu[25].secondary_return_pressure_pa")] != o.CDUs[24].SecReturnPa {
		t.Error("cdu[25] pressure misplaced")
	}
	if v[idx("primary.num_htwp_staged")] != float64(o.NumHTWPStaged) {
		t.Error("htwp staged misplaced")
	}
	if v[idx("facility.htw_flow_m3s")] != o.HTWFlowM3s {
		t.Error("facility flow misplaced")
	}
	if v[idx("ct.fan[1].power_w")] != o.FanPowerW[0] {
		t.Error("fan power misplaced")
	}
}

func TestStationEnumeration(t *testing.T) {
	// Fig. 5 enumerates 15 stations; all must have distinct names.
	seen := map[string]bool{}
	for s := StationCTBasin; s <= StationCDURackReturn; s++ {
		name := s.String()
		if seen[name] {
			t.Errorf("duplicate station name %q", name)
		}
		seen[name] = true
	}
	if len(seen) != 15 {
		t.Errorf("%d stations, want 15", len(seen))
	}
	if Station(99).String() == "" {
		t.Error("unknown station should have a fallback name")
	}
}

func TestZeroLoadPlantStable(t *testing.T) {
	p, err := New(Frontier())
	if err != nil {
		t.Fatal(err)
	}
	in := Inputs{CDUHeatW: make([]float64, 25), WetBulbC: 15}
	if err := p.Step(1800, in); err != nil {
		t.Fatal(err)
	}
	// With no heat, loop temperatures must drift toward the wet bulb but
	// never below it.
	if p.ctwSupply.T < in.WetBulbC-0.5 {
		t.Errorf("CTW supply %v fell below wet bulb %v", p.ctwSupply.T, in.WetBulbC)
	}
	v := p.Snapshot().Vector()
	for i, x := range v {
		if math.IsNaN(x) {
			t.Fatalf("output %d NaN at zero load", i)
		}
	}
}

func TestHeatDistributionAsymmetry(t *testing.T) {
	// One hot CDU among idle ones: its valve should open wider and its
	// primary flow exceed the others'.
	in := typicalInputs()
	for i := range in.CDUHeatW {
		in.CDUHeatW[i] = 100e3
	}
	in.CDUHeatW[7] = 1.2e6
	p := settledPlant(t, in)
	o := p.Snapshot()
	hot := o.CDUs[7].PrimaryFlowM3s
	cold := o.CDUs[3].PrimaryFlowM3s
	if hot <= cold {
		t.Errorf("hot CDU primary flow %v should exceed idle CDU %v", hot, cold)
	}
	if o.CDUs[7].SecReturnTempC <= o.CDUs[3].SecReturnTempC {
		t.Error("hot CDU should run a hotter secondary return")
	}
}

// BenchmarkPlantStep15s times one 15 s plant step under each solver,
// with loads alternating ±2 % step to step (enough drift that the
// adaptive solver integrates every step instead of holding). "shared"
// gives all 25 CDUs the same load, so they form one CDU class; "distinct"
// gives each CDU its own, so nothing is shared and the class bookkeeping
// is pure overhead.
func BenchmarkPlantStep15s(b *testing.B) {
	for _, solver := range []string{SolverRK4, SolverAdaptive} {
		for _, loads := range []string{"shared", "distinct"} {
			b.Run(solver+"/"+loads, func(b *testing.B) {
				cfg := Frontier()
				cfg.Solver = solver
				p, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var in [2]Inputs
				for k := range in {
					in[k] = typicalInputs()
					for i := range in[k].CDUHeatW {
						scale := 1 + 0.02*float64(2*k-1)
						if loads == "distinct" {
							scale *= 0.8 + 0.4*float64(i)/24
						}
						in[k].CDUHeatW[i] *= scale
					}
				}
				for i := 0; i < 40; i++ { // leave the warm-start transient
					if err := p.Step(15, in[i%2]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Step(15, in[i%2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
