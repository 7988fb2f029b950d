package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exadigit/internal/units"
)

func TestVolumeEquilibrium(t *testing.T) {
	v := &Volume{Mass: 100, T: 20}
	// Steady inlet at 30 °C, no heat: derivative pushes toward 30.
	if d := v.DTdt(5, 30, 0, units.WaterSpecificHeat(v.T)); d <= 0 {
		t.Errorf("dT/dt = %v, want positive toward inlet temp", d)
	}
	v.T = 30
	if d := v.DTdt(5, 30, 0, units.WaterSpecificHeat(v.T)); math.Abs(d) > 1e-12 {
		t.Errorf("at equilibrium dT/dt = %v, want 0", d)
	}
	// Heat input raises temperature even at equilibrium flow.
	if d := v.DTdt(5, 30, 50e3, units.WaterSpecificHeat(v.T)); d <= 0 {
		t.Errorf("heated volume dT/dt = %v, want positive", d)
	}
}

func TestVolumeZeroMass(t *testing.T) {
	v := &Volume{Mass: 0, T: 20}
	if d := v.DTdt(5, 30, 1000, units.WaterSpecificHeat(v.T)); d != 0 {
		t.Errorf("zero-mass volume should be inert, got %v", d)
	}
}

func TestVolumeFirstOrderResponse(t *testing.T) {
	// Analytic: T(t) = Tin + (T0-Tin)·exp(-ṁ t/m). One time constant.
	v := &Volume{Mass: 50, T: 20}
	mdot := 5.0
	dt := 0.01
	steps := int(50.0 / mdot / dt) // t = m/ṁ = 10 s
	for i := 0; i < steps; i++ {
		v.T += dt * v.DTdt(mdot, 40, 0, units.WaterSpecificHeat(v.T))
	}
	want := 40 + (20-40)*math.Exp(-1)
	if math.Abs(v.T-want) > 0.05 {
		t.Errorf("T after 1τ = %v, want %v", v.T, want)
	}
}

func TestEffectivenessBounds(t *testing.T) {
	f := func(ntuRaw, crRaw float64) bool {
		ntu := math.Mod(math.Abs(ntuRaw), 50)
		cr := math.Mod(math.Abs(crRaw), 1.0)
		e := Effectiveness(ntu, cr)
		return e >= 0 && e <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Effectiveness(0, 0.5) != 0 {
		t.Error("zero NTU must have zero effectiveness")
	}
	// Balanced limit: ε = NTU/(1+NTU).
	if got := Effectiveness(2, 1); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("balanced ε = %v, want 2/3", got)
	}
	// cr → 0 limit: ε = 1 − exp(−NTU).
	if got := Effectiveness(2, 0); math.Abs(got-(1-math.Exp(-2))) > 1e-9 {
		t.Errorf("cr=0 ε = %v", got)
	}
	// Monotone in NTU.
	if Effectiveness(3, 0.8) <= Effectiveness(1, 0.8) {
		t.Error("ε should grow with NTU")
	}
}

func TestHXEnergyConservation(t *testing.T) {
	hx := HeatExchanger{UANominal: 200e3, MdotHotN: 30, MdotColdN: 40}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		tHot := 30 + 20*rng.Float64()
		tCold := 10 + 15*rng.Float64()
		if tHot <= tCold {
			continue
		}
		mh := 5 + 40*rng.Float64()
		mc := 5 + 40*rng.Float64()
		q, tho, tco := hx.Transfer(tHot, mh, tCold, mc)
		if q < 0 {
			t.Fatalf("negative heat flow %v", q)
		}
		// Outlets between inlets.
		if tho > tHot+1e-9 || tho < tCold-1e-9 {
			t.Fatalf("hot outlet %v outside [%v,%v]", tho, tCold, tHot)
		}
		if tco < tCold-1e-9 || tco > tHot+1e-9 {
			t.Fatalf("cold outlet %v outside [%v,%v]", tco, tCold, tHot)
		}
		// Energy balance: heat lost by hot equals heat gained by cold
		// equals q (within cp evaluation tolerance).
		// Transfer itself guarantees this by construction; check the
		// second law instead: no temperature crossing in counterflow
		// beyond effectiveness 1.
		if tco > tHot || tho < tCold {
			t.Fatalf("second-law violation: tho=%v tco=%v", tho, tco)
		}
	}
}

func TestHXZeroFlowAndInvertedGradient(t *testing.T) {
	hx := HeatExchanger{UANominal: 200e3, MdotHotN: 30, MdotColdN: 40}
	q, tho, tco := hx.Transfer(40, 0, 20, 10)
	if q != 0 || tho != 40 || tco != 20 {
		t.Error("zero hot flow must transfer nothing")
	}
	q, _, _ = hx.Transfer(20, 10, 40, 10) // cold hotter than hot: no transfer
	if q != 0 {
		t.Errorf("inverted gradient transferred %v", q)
	}
}

func TestHXMoreFlowMoreHeat(t *testing.T) {
	hx := HeatExchanger{UANominal: 300e3, MdotHotN: 30, MdotColdN: 40}
	q1, _, _ := hx.Transfer(40, 10, 20, 40)
	q2, _, _ := hx.Transfer(40, 20, 20, 40)
	if q2 <= q1 {
		t.Errorf("doubling hot flow should raise duty: %v vs %v", q1, q2)
	}
}

func TestHXUAScaling(t *testing.T) {
	hx := HeatExchanger{UANominal: 100e3, MdotHotN: 30, MdotColdN: 30}
	if got := hx.UA(30, 30); math.Abs(got-100e3) > 1 {
		t.Errorf("UA at design = %v", got)
	}
	if hx.UA(15, 15) >= 100e3 {
		t.Error("UA must fall below design at reduced flow")
	}
	if hx.UA(0, 30) != 0 {
		t.Error("UA with zero flow must be zero")
	}
}

func TestCoolingTowerApproach(t *testing.T) {
	ct := CoolingTower{EpsNominal: 0.7, MdotNominal: 120, FanExp: 0.4, LoadExp: 0.35, FanPowerMax: 30e3}
	tOut := ct.Outlet(35, 20, 1.0, 120)
	if tOut <= 20 || tOut >= 35 {
		t.Errorf("outlet %v must be between wet-bulb and inlet", tOut)
	}
	// Approach shrinks with faster fans.
	slow := ct.Outlet(35, 20, 0.3, 120)
	fast := ct.Outlet(35, 20, 1.0, 120)
	if fast >= slow {
		t.Errorf("faster fan should cool more: %v vs %v", fast, slow)
	}
	// More water load worsens the approach.
	light := ct.Outlet(35, 20, 1.0, 60)
	heavy := ct.Outlet(35, 20, 1.0, 240)
	if light >= heavy {
		t.Errorf("heavier loading should cool less: light=%v heavy=%v", light, heavy)
	}
}

func TestCoolingTowerCannotBeatWetBulb(t *testing.T) {
	ct := CoolingTower{EpsNominal: 0.95, MdotNominal: 120, FanExp: 0.4, LoadExp: 0.35}
	f := func(tInRaw, wbRaw, fanRaw, mRaw float64) bool {
		tIn := 15 + math.Mod(math.Abs(tInRaw), 30)
		wb := math.Mod(math.Abs(wbRaw), 28)
		fan := math.Mod(math.Abs(fanRaw), 1)
		m := 20 + math.Mod(math.Abs(mRaw), 200)
		out := ct.Outlet(tIn, wb, fan, m)
		if tIn <= wb {
			return out == tIn
		}
		return out >= wb-1e-9 && out <= tIn+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoolingTowerHeatAndFanPower(t *testing.T) {
	ct := CoolingTower{EpsNominal: 0.7, MdotNominal: 120, FanExp: 0.4, LoadExp: 0.35, FanPowerMax: 30e3}
	// Heat rejected by the cell: ṁ·c·(T_in − T_out).
	q := 120 * units.WaterSpecificHeat(35) * (35 - ct.Outlet(35, 20, 1.0, 120))
	if q <= 0 {
		t.Errorf("heat rejected = %v", q)
	}
	if ct.FanPower(0) != 0 {
		t.Error("stopped fan should draw nothing")
	}
	full := ct.FanPower(1)
	half := ct.FanPower(0.5)
	if math.Abs(full-30e3) > 1 {
		t.Errorf("full fan power = %v", full)
	}
	// Cube law dominates: half speed ≈ 1/8 power (+parasitic floor).
	if half > full/6 {
		t.Errorf("half-speed fan power %v too high vs %v", half, full)
	}
	if ct.FanPower(2) > ct.FanPowerMax*1.5 {
		t.Error("overspeed should clamp")
	}
}

func TestColdPlate(t *testing.T) {
	// MI250X-ish: 560 W at ~0.02 °C/W above coolant.
	p := ColdPlate{RConduction: 0.010, RConvNom: 0.012, QNominal: 1.2e-5}
	tDev := p.DeviceTemp(560, 32, 1.2e-5)
	want := 32 + 0.022*560
	if math.Abs(tDev-want) > 1e-9 {
		t.Errorf("device temp = %v, want %v", tDev, want)
	}
	// Reduced flow (biological-growth blockage use case) raises temp.
	blocked := p.DeviceTemp(560, 32, 0.3e-5)
	if blocked <= tDev {
		t.Errorf("blocked plate should run hotter: %v vs %v", blocked, tDev)
	}
	if p.DeviceTemp(560, 32, 0.05e-5) <= 95 {
		t.Error("severe blockage should throttle")
	}
	if p.DeviceTemp(560, 32, 1.2e-5) > 95 {
		t.Error("nominal conditions should not throttle")
	}
	if p.Rth(0) <= p.Rth(1e-5) {
		t.Error("stagnant flow must have much higher resistance")
	}
}

// TestPow08MatchesMathPow pins the specialised kernel to math.Pow(x, 0.8)
// bit for bit: on edge values, on 10 M random x spread log-uniformly over
// e^±10 (every flow ratio the plant produces lies well inside), and on
// random positive bit patterns, which reach subnormals and the overflow
// end of the range.
func TestPow08MatchesMathPow(t *testing.T) {
	check := func(x float64) bool {
		got, want := pow08(x), math.Pow(x, 0.8)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("pow08(%v) = %v, math.Pow = %v", x, got, want)
			return false
		}
		return true
	}
	edges := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 2, math.Nextafter(1, 0), math.Nextafter(1, 2),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -1, -0.5, 1e-300, 1e300,
	}
	for _, x := range edges {
		check(x)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10_000_000; i++ {
		if !check(math.Exp(20*rng.Float64() - 10)) {
			return
		}
	}
	for i := 0; i < 1_000_000; i++ {
		bits := rng.Uint64() &^ (1 << 63)
		if x := math.Float64frombits(bits); !math.IsNaN(x) && !check(x) {
			return
		}
	}
}
