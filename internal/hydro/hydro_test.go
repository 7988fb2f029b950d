package hydro

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPumpCurveBasics(t *testing.T) {
	// Rated: 0.35 m³/s at 300 kPa, shutoff 450 kPa.
	p := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	if got := p.Head(0, 1); got != 450e3 {
		t.Errorf("shutoff head = %v", got)
	}
	if got := p.Head(0.35, 1); math.Abs(got-300e3) > 1 {
		t.Errorf("rated head = %v", got)
	}
	// Affinity: at half speed, head at zero flow is quarter.
	if got := p.Head(0, 0.5); math.Abs(got-112.5e3) > 1 {
		t.Errorf("affinity shutoff = %v", got)
	}
}

func TestPumpFlowHeadRoundTrip(t *testing.T) {
	p := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	f := func(qRaw, sRaw float64) bool {
		s := 0.3 + math.Mod(math.Abs(sRaw), 0.9)
		q := math.Mod(math.Abs(qRaw), p.QRated*s)
		h := p.Head(q, s)
		back := p.FlowAtHead(h, s)
		return math.Abs(back-q) < 1e-9*math.Max(1, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPumpFlowAtExcessiveHead(t *testing.T) {
	p := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	if got := p.FlowAtHead(500e3, 1); got != 0 {
		t.Errorf("flow above shutoff = %v, want 0", got)
	}
}

func TestPumpPower(t *testing.T) {
	p := NewPumpCurve(450e3, 0.35, 300e3, 0.75)
	p.PIdle = 500
	// Hydraulic power at the BEP: 300e3 * 0.35 = 105 kW; /0.75 = 140 kW.
	got := p.Power(0.35, 1)
	if math.Abs(got-(140e3+500)) > 1 {
		t.Errorf("power = %v, want 140500", got)
	}
	if p.Power(0.35, 0) != 0 {
		t.Error("stopped pump should draw nothing")
	}
	// Default efficiency path.
	pNoEta := PumpCurve{H0: 100e3, H2: 1e6, QRated: 0.1}
	if pNoEta.Power(0.05, 1) <= 0 {
		t.Error("power with default eta should be positive")
	}
}

func TestResistance(t *testing.T) {
	r := Resistance{K: 200e3 / (0.4 * 0.4)}
	if got := r.Drop(0.4); math.Abs(got-200e3) > 1e-6 {
		t.Errorf("rated drop = %v", got)
	}
	if got := r.Drop(-0.4); math.Abs(got+200e3) > 1e-6 {
		t.Errorf("reverse drop should be negative: %v", got)
	}
}

func TestSeriesParallelComposition(t *testing.T) {
	p := ParallelK([]float64{100, 100})
	// Two equal branches: total flow doubles at same dp → K/4.
	if math.Abs(p.K-25) > 1e-9 {
		t.Errorf("parallel K = %v, want 25", p.K)
	}
	empty := ParallelK(nil)
	if !math.IsInf(empty.K, 1) {
		t.Errorf("empty parallel should block flow")
	}
}

func TestValveCharacteristic(t *testing.T) {
	v := NewValve(50e3, 0.3, 50)
	v.SetPosition(1)
	kOpen := v.Resistance().K
	v.SetPosition(0.5)
	kHalf := v.Resistance().K
	v.SetPosition(0)
	kClosed := v.Resistance().K
	if !(kOpen < kHalf && kHalf < kClosed) {
		t.Errorf("resistance must grow as the valve closes: %v %v %v", kOpen, kHalf, kClosed)
	}
	// Equal percentage: half position multiplies K by R^1 = 50.
	if math.Abs(kHalf/kOpen-50) > 1e-6 {
		t.Errorf("kHalf/kOpen = %v, want 50", kHalf/kOpen)
	}
	// Leakage floor.
	if kClosed > v.KMax+1e-9 {
		t.Errorf("closed K %v should cap at KMax %v", kClosed, v.KMax)
	}
	v.SetPosition(2)
	if v.Position() != 1 {
		t.Errorf("position must clamp to 1, got %v", v.Position())
	}
	v.SetPosition(-1)
	if v.Position() != 0 {
		t.Errorf("position must clamp to 0, got %v", v.Position())
	}
}

func TestSolveLoopOperatingPoint(t *testing.T) {
	// One pump against a single resistance: closed form
	// H0 s² − H2 q² = K q² → q = s·sqrt(H0/(H2+K)).
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	r := Resistance{K: 2e6}
	bank := PumpBank{Curve: curve, N: 1, Speed: 1}
	q, h, err := SolveLoop(bank, func(q float64) float64 { return r.Drop(q) })
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(450e3 / (curve.H2 + 2e6))
	if math.Abs(q-want) > 1e-6 {
		t.Errorf("q = %v, want %v", q, want)
	}
	if math.Abs(h-r.Drop(q)) > 1 {
		t.Errorf("head mismatch: %v vs %v", h, r.Drop(q))
	}
}

func TestSolveLoopParallelPumpsIncreaseFlow(t *testing.T) {
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	r := Resistance{K: 2e6}
	drop := func(q float64) float64 { return r.Drop(q) }
	q1, _, err := SolveLoop(PumpBank{Curve: curve, N: 1, Speed: 1}, drop)
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := SolveLoop(PumpBank{Curve: curve, N: 2, Speed: 1}, drop)
	if err != nil {
		t.Fatal(err)
	}
	q4, _, err := SolveLoop(PumpBank{Curve: curve, N: 4, Speed: 1}, drop)
	if err != nil {
		t.Fatal(err)
	}
	if !(q2 > q1 && q4 > q2) {
		t.Errorf("staging pumps must increase flow: %v %v %v", q1, q2, q4)
	}
	if q2 >= 2*q1 {
		t.Errorf("parallel pumps on a shared loop gain sub-linearly: q1=%v q2=%v", q1, q2)
	}
}

func TestSolveLoopSpeedScaling(t *testing.T) {
	// Pure quadratic system: flow scales linearly with speed (affinity).
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	r := Resistance{K: 2e6}
	drop := func(q float64) float64 { return r.Drop(q) }
	qFull, _, _ := SolveLoop(PumpBank{Curve: curve, N: 1, Speed: 1.0}, drop)
	qHalf, _, _ := SolveLoop(PumpBank{Curve: curve, N: 1, Speed: 0.5}, drop)
	if math.Abs(qHalf-qFull/2) > 1e-9 {
		t.Errorf("affinity violated: %v vs %v/2", qHalf, qFull)
	}
}

func TestSolveLoopDegenerate(t *testing.T) {
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	q, _, err := SolveLoop(PumpBank{Curve: curve, N: 0, Speed: 1}, func(q float64) float64 { return q })
	if err != nil || q != 0 {
		t.Errorf("no pumps should give zero flow, got %v err %v", q, err)
	}
	// Static head above shutoff: dead-headed.
	q, h, err := SolveLoop(PumpBank{Curve: curve, N: 1, Speed: 0.2},
		func(q float64) float64 { return 1e6 + q*q })
	if err != nil {
		t.Fatal(err)
	}
	if q != 0 {
		t.Errorf("dead-headed pump should deliver zero flow, got %v", q)
	}
	if h <= 0 {
		t.Errorf("dead-head pressure should be shutoff head, got %v", h)
	}
}

func TestSplitParallelConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(25)
		ks := make([]float64, n)
		for i := range ks {
			ks[i] = 1e5 * (0.2 + rng.Float64())
		}
		qTot := 0.05 + rng.Float64()
		flows := make([]float64, n)
		dp := SplitParallelInto(qTot, ks, flows)
		var sum float64
		for i, q := range flows {
			sum += q
			// Each branch must see the same pressure drop.
			if math.Abs(ks[i]*q*q-dp) > 1e-6*dp {
				t.Fatalf("branch %d drop %v != header %v", i, ks[i]*q*q, dp)
			}
		}
		if math.Abs(sum-qTot) > 1e-9*qTot {
			t.Fatalf("mass not conserved: %v vs %v", sum, qTot)
		}
	}
}

func TestSplitParallelEdge(t *testing.T) {
	flows := []float64{9, 9}
	dp := SplitParallelInto(0, []float64{1, 2}, flows)
	if dp != 0 || flows[0] != 0 || flows[1] != 0 {
		t.Error("zero flow should split to zeros")
	}
	dp = SplitParallelInto(1, []float64{0, 0}, flows)
	if dp != 0 || flows[0] != 0.5 || flows[1] != 0.5 {
		t.Errorf("degenerate Ks should split evenly: %v", flows)
	}
	SplitParallelInto(1, []float64{0, 1e5}, flows)
	if flows[0] != 0 {
		t.Error("non-positive-K branch should take no flow when others exist")
	}
}

func TestPumpBankHelpers(t *testing.T) {
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	b := PumpBank{Curve: curve, N: 3, Speed: 1}
	h := 300e3
	if got := b.Flow(h); math.Abs(got-3*curve.FlowAtHead(h, 1)) > 1e-12 {
		t.Errorf("bank flow = %v", got)
	}
	if b.Power(h) <= 0 {
		t.Error("bank power should be positive")
	}
	off := PumpBank{Curve: curve, N: 0, Speed: 1}
	if off.Flow(h) != 0 || off.Power(h) != 0 {
		t.Error("empty bank should be inert")
	}
}

func BenchmarkSolveLoop(b *testing.B) {
	curve := NewPumpCurve(450e3, 0.35, 300e3, 0.78)
	bank := PumpBank{Curve: curve, N: 4, Speed: 0.85}
	r := Resistance{K: 5e5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveLoop(bank, func(q float64) float64 { return r.Drop(q) }); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolveQuadLoopMatchesSolveLoop(t *testing.T) {
	curve := NewPumpCurve(480e3, 0.097, 320e3, 0.80)
	for _, tc := range []struct {
		n     int
		speed float64
		k     float64
	}{
		{1, 0.9, 180e3 / (0.029 * 0.029)},
		{3, 0.85, 4.9e5},
		{4, 1.05, 5.6e5},
		{2, 0.4, 1e6},
	} {
		bank := PumpBank{Curve: curve, N: tc.n, Speed: tc.speed}
		qRef, headRef, err := SolveLoop(bank, func(q float64) float64 {
			return tc.k * q * q
		})
		if err != nil {
			t.Fatal(err)
		}
		q, head := SolveQuadLoop(bank, tc.k)
		if math.Abs(q-qRef) > 1e-9*(1+qRef) || math.Abs(head-headRef) > 1e-6*(1+headRef) {
			t.Errorf("n=%d s=%v k=%g: closed form (%v, %v) vs bisection (%v, %v)",
				tc.n, tc.speed, tc.k, q, head, qRef, headRef)
		}
	}
	if q, head := SolveQuadLoop(PumpBank{Curve: curve, N: 0, Speed: 1}, 1e5); q != 0 || head != 0 {
		t.Error("unstaged bank must return zero flow")
	}
}
