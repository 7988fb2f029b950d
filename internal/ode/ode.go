// Package ode implements the ordinary-differential-equation integrators
// that substitute for the Modelica/Dymola solver stack used by the paper's
// cooling model. The thermo-fluid network is a small (tens of states),
// mildly stiff lumped-parameter system, and the plant integrates it with
// one of two methods:
//
//   - the classic fixed-step RK4 method, for fast, predictable stepping
//     at the plant's control period;
//   - the adaptive Dormand–Prince 5(4) embedded pair, whose persistent
//     stepper carries its step size across control periods.
//
// Both integrators operate on the System interface and never retain
// caller slices across calls.
package ode

import (
	"errors"
	"math"

	"exadigit/internal/la"
)

// System is a first-order ODE system y' = f(t, y).
type System interface {
	// Dim returns the number of state variables.
	Dim() int
	// Derivatives writes f(t, y) into dydt. Implementations must not
	// retain y or dydt.
	Derivatives(t float64, y, dydt []float64)
}

// Func adapts a plain function to the System interface.
type Func struct {
	N int
	F func(t float64, y, dydt []float64)
}

// Dim implements System.
func (f Func) Dim() int { return f.N }

// Derivatives implements System.
func (f Func) Derivatives(t float64, y, dydt []float64) { f.F(t, y, dydt) }

// ErrStepFailed is returned when the adaptive integrator cannot complete
// an integration (step-count overrun or a non-finite error estimate).
var ErrStepFailed = errors.New("ode: step failed")

// FixedStepper advances a System with the classic 4th-order Runge–Kutta
// method. The zero value is not usable; call NewFixedStepper.
type FixedStepper struct {
	sys System
	// scratch buffers sized to sys.Dim(), reused across steps to avoid
	// per-step allocation in the simulation hot loop.
	k1, k2, k3, k4, tmp []float64
}

// NewFixedStepper builds an RK4 stepper for sys.
func NewFixedStepper(sys System) *FixedStepper {
	n := sys.Dim()
	return &FixedStepper{
		sys: sys,
		k1:  make([]float64, n), k2: make([]float64, n),
		k3: make([]float64, n), k4: make([]float64, n),
		tmp: make([]float64, n),
	}
}

// Step advances y in place from t by h and returns t+h.
func (s *FixedStepper) Step(t float64, y []float64, h float64) float64 {
	n := s.sys.Dim()
	if len(y) != n {
		panic("ode: state length mismatch")
	}
	s.sys.Derivatives(t, y, s.k1)
	copy(s.tmp, y)
	la.AXPY(h/2, s.k1, s.tmp)
	s.sys.Derivatives(t+h/2, s.tmp, s.k2)
	copy(s.tmp, y)
	la.AXPY(h/2, s.k2, s.tmp)
	s.sys.Derivatives(t+h/2, s.tmp, s.k3)
	copy(s.tmp, y)
	la.AXPY(h, s.k3, s.tmp)
	s.sys.Derivatives(t+h, s.tmp, s.k4)
	for i := 0; i < n; i++ {
		y[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
	return t + h
}

// Integrate advances y from t0 to t1 in equal steps no larger than hMax
// and returns t1.
func (s *FixedStepper) Integrate(t0, t1 float64, y []float64, hMax float64) float64 {
	if t1 <= t0 || hMax <= 0 {
		return t0
	}
	steps := int(math.Ceil((t1 - t0) / hMax))
	h := (t1 - t0) / float64(steps)
	t := t0
	for i := 0; i < steps; i++ {
		t = s.Step(t, y, h)
	}
	return t1
}

// AdaptiveConfig configures the adaptive Dormand–Prince integrator.
type AdaptiveConfig struct {
	RelTol   float64 // relative tolerance (default 1e-6)
	AbsTol   float64 // absolute tolerance (default 1e-8)
	HInit    float64 // initial step (default: span/100)
	HMin     float64 // smallest permitted step (default: span*1e-12)
	HMax     float64 // largest permitted step (default: span)
	MaxSteps int     // safety cap on accepted+rejected steps (default 1e6)
}

func (c *AdaptiveConfig) defaults(span float64) {
	if c.RelTol <= 0 {
		c.RelTol = 1e-6
	}
	if c.AbsTol <= 0 {
		c.AbsTol = 1e-8
	}
	if c.HInit <= 0 {
		c.HInit = span / 100
	}
	if c.HMin <= 0 {
		c.HMin = span * 1e-12
	}
	if c.HMax <= 0 {
		c.HMax = span
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 1_000_000
	}
}

// AdaptiveStats reports the work performed by an adaptive integration.
type AdaptiveStats struct {
	Accepted int
	Rejected int
	LastStep float64
}
