package ode

import (
	"math"
	"testing"
)

// decay is y' = -y, y(0)=1 → y(t) = e^{-t}.
var decay = Func{N: 1, F: func(t float64, y, dydt []float64) { dydt[0] = -y[0] }}

// oscillator is y” = -y expressed as a 2-state system; energy is conserved.
var oscillator = Func{N: 2, F: func(t float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}}

func integrateFixed(h float64) float64 {
	y := []float64{1}
	s := NewFixedStepper(decay)
	s.Integrate(0, 1, y, h)
	return y[0]
}

func TestFixedStepAccuracy(t *testing.T) {
	exact := math.Exp(-1)
	if got := integrateFixed(1e-1); math.Abs(got-exact) > 1e-6 {
		t.Errorf("h=0.1: |%v - %v| > 1e-6", got, exact)
	}
}

// TestConvergenceOrders halves the step and verifies an error reduction
// ratio near 2^4 for RK4's order 4.
func TestConvergenceOrders(t *testing.T) {
	exact := math.Exp(-1)
	e1 := math.Abs(integrateFixed(1.0/4) - exact)
	e2 := math.Abs(integrateFixed(1.0/8) - exact)
	ratio := e1 / e2
	want := math.Pow(2, 4)
	if ratio < want*0.7 || ratio > want*1.4 {
		t.Errorf("error ratio %v, want ≈%v", ratio, want)
	}
}

func TestRK4EnergyConservation(t *testing.T) {
	y := []float64{1, 0}
	s := NewFixedStepper(oscillator)
	s.Integrate(0, 2*math.Pi*10, y, 0.01)
	energy := y[0]*y[0] + y[1]*y[1]
	if math.Abs(energy-1) > 1e-6 {
		t.Errorf("energy drifted to %v after 10 periods", energy)
	}
	if math.Abs(y[0]-1) > 1e-5 || math.Abs(y[1]) > 1e-5 {
		t.Errorf("state after 10 periods = %v, want [1 0]", y)
	}
}

func TestAdaptiveDecay(t *testing.T) {
	y := []float64{1}
	st, err := NewAdaptiveStepper(decay, AdaptiveConfig{RelTol: 1e-9, AbsTol: 1e-12}).Integrate(0, 5, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-5)) > 1e-8 {
		t.Errorf("y(5) = %v, want %v", y[0], math.Exp(-5))
	}
	if st.Accepted == 0 {
		t.Error("no steps accepted")
	}
}

func TestAdaptiveOscillatorLongRun(t *testing.T) {
	y := []float64{0, 1}
	_, err := NewAdaptiveStepper(oscillator, AdaptiveConfig{RelTol: 1e-8, AbsTol: 1e-10}).Integrate(0, 2*math.Pi*20, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]) > 1e-4 || math.Abs(y[1]-1) > 1e-4 {
		t.Errorf("state after 20 periods = %v, want [0 1]", y)
	}
}

func TestAdaptiveStepRejection(t *testing.T) {
	// A sharp transient forces at least one rejection with a large HInit.
	sharp := Func{N: 1, F: func(t float64, y, dydt []float64) {
		dydt[0] = -50 * (y[0] - math.Cos(t))
	}}
	y := []float64{0}
	st, err := NewAdaptiveStepper(sharp, AdaptiveConfig{RelTol: 1e-8, AbsTol: 1e-10, HInit: 1}).Integrate(0, 3, y)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Error("expected at least one rejected step")
	}
}

func TestAdaptiveZeroSpan(t *testing.T) {
	y := []float64{1}
	if _, err := NewAdaptiveStepper(decay, AdaptiveConfig{}).Integrate(1, 1, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 1 {
		t.Error("zero-span integration modified state")
	}
}

func TestFixedIntegrateNoOp(t *testing.T) {
	y := []float64{1}
	s := NewFixedStepper(decay)
	if got := s.Integrate(5, 5, y, 0.1); got != 5 {
		t.Errorf("Integrate over empty span returned %v", got)
	}
	if y[0] != 1 {
		t.Error("state modified on empty span")
	}
}

func BenchmarkRK4Oscillator(b *testing.B) {
	s := NewFixedStepper(oscillator)
	y := []float64{1, 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(0, y, 0.01)
	}
}

func TestDormandPrinceDecay(t *testing.T) {
	y := []float64{1}
	st, err := NewAdaptiveStepper(decay, AdaptiveConfig{RelTol: 1e-10, AbsTol: 1e-13}).Integrate(0, 5, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-math.Exp(-5)) > 1e-9 {
		t.Errorf("y(5) = %v, want %v", y[0], math.Exp(-5))
	}
	if st.Accepted == 0 {
		t.Error("no steps accepted")
	}
}

func TestDormandPrinceAgreesWithRK4OnPlantLikeSystem(t *testing.T) {
	// A small thermal-network-like linear system: both integrators land
	// on the same trajectory.
	sys := Func{N: 3, F: func(t float64, y, dydt []float64) {
		dydt[0] = 0.05 * (y[1] - y[0])
		dydt[1] = 0.03*(y[2]-y[1]) + 0.01*(y[0]-y[1])
		dydt[2] = 0.02 * (20 - y[2])
	}}
	yd := []float64{30, 28, 26}
	if _, err := NewAdaptiveStepper(sys, AdaptiveConfig{RelTol: 1e-9, AbsTol: 1e-12}).Integrate(0, 600, yd); err != nil {
		t.Fatal(err)
	}
	yr := []float64{30, 28, 26}
	NewFixedStepper(sys).Integrate(0, 600, yr, 0.5)
	for i := range yd {
		if math.Abs(yd[i]-yr[i]) > 1e-5 {
			t.Errorf("state %d: DP %v vs RK4 %v", i, yd[i], yr[i])
		}
	}
}

func TestDormandPrinceZeroSpanAndValidation(t *testing.T) {
	y := []float64{1}
	if _, err := NewAdaptiveStepper(decay, AdaptiveConfig{}).Integrate(2, 2, y); err != nil || y[0] != 1 {
		t.Error("zero span should no-op")
	}
	if _, err := NewAdaptiveStepper(decay, AdaptiveConfig{}).Integrate(0, 1, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch should fail")
	}
}
