package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFlowConversionsRoundTrip(t *testing.T) {
	f := func(gpm float64) bool {
		gpm = math.Mod(math.Abs(gpm), 20000)
		m3s := gpm * GPMToM3s
		return almostEqual(m3s*M3sToGPM, gpm, 1e-9*math.Max(1, gpm))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKnownFlowConversion(t *testing.T) {
	// 10000 gpm (cooling tower loop order of magnitude) ≈ 0.6309 m³/s.
	got := 10000 * GPMToM3s
	if !almostEqual(got, 0.63090, 1e-4) {
		t.Errorf("10000 gpm = %v m³/s, want ≈0.6309", got)
	}
}

func TestPressureConversions(t *testing.T) {
	if !almostEqual(100*PSIToPa, 689475.7293, 1e-3) {
		t.Errorf("100 psi = %v Pa", 100*PSIToPa)
	}
	if !almostEqual(689475.7293*PaToPSI, 100, 1e-6) {
		t.Errorf("round trip failed")
	}
}

func TestTemperatureConversions(t *testing.T) {
	if !almostEqual(CToK(25), 298.15, 1e-12) {
		t.Errorf("CToK(25) = %v", CToK(25))
	}
}

func TestWaterDensity(t *testing.T) {
	cases := []struct{ tC, want, tol float64 }{
		{4, 1000.0, 1.0},
		{20, 998.2, 1.5},
		{25, 997.0, 1.5},
		{40, 992.2, 2.0},
		{60, 983.2, 2.5},
	}
	for _, tc := range cases {
		got := WaterDensity(tc.tC)
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("WaterDensity(%v) = %v, want %v±%v", tc.tC, got, tc.want, tc.tol)
		}
	}
}

func TestWaterDensityMonotonicDecreasingAboveFour(t *testing.T) {
	prev := WaterDensity(5)
	for tC := 6.0; tC <= 80; tC++ {
		d := WaterDensity(tC)
		if d >= prev {
			t.Fatalf("density not decreasing at %v °C: %v >= %v", tC, d, prev)
		}
		prev = d
	}
}

func TestWaterSpecificHeat(t *testing.T) {
	cases := []struct{ tC, want, tol float64 }{
		{20, 4184, 8},
		{25, 4180, 8},
		{40, 4179, 10},
	}
	for _, tc := range cases {
		got := WaterSpecificHeat(tc.tC)
		if !almostEqual(got, tc.want, tc.tol) {
			t.Errorf("WaterSpecificHeat(%v) = %v, want %v±%v", tc.tC, got, tc.want, tc.tol)
		}
	}
}

func TestHeatExtractedRoundTrip(t *testing.T) {
	f := func(h, dT float64) bool {
		h = 1e3 + math.Mod(math.Abs(h), 1e6) // 1 kW .. 1 GW-ish
		dT = 1 + math.Mod(math.Abs(dT), 20)  // 1..21 °C
		q := FlowForHeat(h, dT, 30)
		// Eq. 7 forward: H = ρ·Q·ΔT·c.
		back := WaterDensity(30) * q * dT * WaterSpecificHeat(30)
		return almostEqual(back, h, 1e-6*h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowForHeatZeroDT(t *testing.T) {
	if got := FlowForHeat(1e6, 0, 30); got != 0 {
		t.Errorf("FlowForHeat with zero dT = %v, want 0", got)
	}
}

func TestHeatExtractedMagnitude(t *testing.T) {
	// A CDU carrying ~750 kW with a 10 °C rise needs roughly 18 L/s (~285 gpm).
	q := FlowForHeat(750e3, 10, 32)
	gpm := q * M3sToGPM
	if gpm < 250 || gpm > 330 {
		t.Errorf("CDU flow = %v gpm, want 250-330", gpm)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5}, {-5, 0, 10, 0}, {15, 0, 10, 10}, {0, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(10, 20, 0.5); got != 15 {
		t.Errorf("Lerp mid = %v", got)
	}
	if got := Lerp(10, 20, 2); got != 30 {
		t.Errorf("Lerp extrapolates: %v", got)
	}
}

func TestWToMW(t *testing.T) {
	if WToMW(28.2e6) != 28.2 {
		t.Errorf("WToMW failed")
	}
}

// scanSegment is the linear grid scan WaterProps replaced, kept here as
// its reference: the first segment i whose upper grid point is ≥ x, and
// the fraction t of x within it. ok is false outside the grid and for NaN.
func scanSegment(x float64) (i int, t float64, ok bool) {
	g := waterTempGrid[:]
	if x <= g[0] || x >= g[len(g)-1] {
		return 0, 0, false
	}
	for i := 1; i < len(g); i++ {
		if x <= g[i] {
			return i, (x - g[i-1]) / (g[i] - g[i-1]), true
		}
	}
	return 0, 0, false
}

// scanTable interpolates ys as the scan did: clamped outside the grid,
// and the last table value for NaN, where no comparison holds.
func scanTable(x float64, ys []float64) float64 {
	if x <= waterTempGrid[0] {
		return ys[0]
	}
	i, t, ok := scanSegment(x)
	if !ok {
		return ys[len(ys)-1]
	}
	return Lerp(ys[i-1], ys[i], t)
}

// TestWaterPropsMatchTable pins WaterProps, WaterDensity and
// WaterSpecificHeat bit for bit to the grid scan: on every grid point and
// one ulp either side, over random temperatures, and at ±Inf, −0 and NaN.
// Inside the grid it also pins the segment and fraction themselves. On a
// grid point g[i] segment i at t = 1 and segment i+1 at t = 0 give equal
// bits for today's tables, whose neighbouring entries differ exactly, but
// need not for others.
func TestWaterPropsMatchTable(t *testing.T) {
	xs := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN()}
	for _, g := range waterTempGrid {
		xs = append(xs, g, math.Nextafter(g, math.Inf(-1)), math.Nextafter(g, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1e6; i++ {
		xs = append(xs, -10+100*rng.Float64())
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, x := range xs {
		wantRho, wantCp := scanTable(x, waterDensityTable[:]), scanTable(x, waterCpTable[:])
		if wi, wt, ok := scanSegment(x); ok {
			if i, frac := waterSegment(x); i != wi || !same(frac, wt) {
				t.Fatalf("waterSegment(%v) = (%d, %v), want (%d, %v)", x, i, frac, wi, wt)
			}
		}
		rho, cp := WaterProps(x)
		if !same(rho, wantRho) || !same(cp, wantCp) {
			t.Fatalf("WaterProps(%v) = (%v, %v), want (%v, %v)", x, rho, cp, wantRho, wantCp)
		}
		if d := WaterDensity(x); !same(d, wantRho) {
			t.Fatalf("WaterDensity(%v) = %v, want %v", x, d, wantRho)
		}
		if c := WaterSpecificHeat(x); !same(c, wantCp) {
			t.Fatalf("WaterSpecificHeat(%v) = %v, want %v", x, c, wantCp)
		}
	}
}
