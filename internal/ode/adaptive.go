package ode

import (
	"fmt"
	"math"

	"exadigit/internal/la"
)

// AdaptiveStepper advances a System with the Dormand–Prince 5(4)
// embedded pair under mixed absolute/relative error control. The stepper
// is persistent: its stage buffers are allocated once at construction
// and the accepted step size is carried (warm-started) across Integrate
// calls, so a hot loop that repeatedly integrates short spans — the
// cooling plant's control periods — performs no per-call allocation and
// no per-call step-size rediscovery.
type AdaptiveStepper struct {
	sys System
	cfg AdaptiveConfig

	// stage and state scratch, sized to sys.Dim() at construction
	k          [len(dpA)][]float64
	ytmp       []float64
	yhi, ylo   []float64
	h          float64 // warm-started step suggestion; 0 until first use
	cumulative AdaptiveStats
}

// NewAdaptiveStepper builds a persistent stepper for sys. The config's
// zero fields are defaulted per Integrate call relative to that call's
// span.
func NewAdaptiveStepper(sys System, cfg AdaptiveConfig) *AdaptiveStepper {
	n := sys.Dim()
	s := &AdaptiveStepper{
		sys: sys, cfg: cfg,
		ytmp: make([]float64, n),
		yhi:  make([]float64, n),
		ylo:  make([]float64, n),
	}
	for i := range s.k {
		s.k[i] = make([]float64, n)
	}
	return s
}

// Stats returns the cumulative step accounting across every Integrate
// call since construction.
func (s *AdaptiveStepper) Stats() AdaptiveStats { return s.cumulative }

// Integrate advances y in place from t0 to t1 and returns this call's
// step accounting. The accepted step size is retained as the warm start
// for the next call.
func (s *AdaptiveStepper) Integrate(t0, t1 float64, y []float64) (AdaptiveStats, error) {
	var st AdaptiveStats
	if t1 <= t0 {
		return st, nil
	}
	cfg := s.cfg
	cfg.defaults(t1 - t0)
	n := s.sys.Dim()
	if len(y) != n {
		return st, fmt.Errorf("ode: state length %d != dim %d", len(y), n)
	}
	hSug := s.h
	if hSug <= 0 {
		hSug = math.Min(cfg.HInit, cfg.HMax)
	}
	hSug = math.Max(cfg.HMin, math.Min(hSug, cfg.HMax))

	t := t0
	for t < t1 {
		if st.Accepted+st.Rejected > cfg.MaxSteps {
			s.accumulate(st)
			return st, fmt.Errorf("%w: exceeded %d steps", ErrStepFailed, cfg.MaxSteps)
		}
		h := hSug
		if t+h > t1 {
			h = t1 - t
		}
		for stage := range dpA {
			copy(s.ytmp, y)
			for j := 0; j < stage; j++ {
				la.AXPY(h*dpB[stage][j], s.k[j], s.ytmp)
			}
			s.sys.Derivatives(t+dpA[stage]*h, s.ytmp, s.k[stage])
		}
		copy(s.yhi, y)
		copy(s.ylo, y)
		for stage := range dpA {
			la.AXPY(h*dpC5[stage], s.k[stage], s.yhi)
			la.AXPY(h*dpC4[stage], s.k[stage], s.ylo)
		}
		// Error estimate scaled by mixed absolute/relative tolerance.
		errNorm := 0.0
		for i := 0; i < n; i++ {
			sc := cfg.AbsTol + cfg.RelTol*math.Max(math.Abs(y[i]), math.Abs(s.yhi[i]))
			e := math.Abs(s.yhi[i]-s.ylo[i]) / sc
			if e > errNorm {
				errNorm = e
			}
		}
		if errNorm <= 1 || h <= cfg.HMin {
			t += h
			copy(y, s.yhi)
			st.Accepted++
			st.LastStep = h
		} else {
			st.Rejected++
		}
		// Classic step-size update with safety factor.
		if errNorm == 0 {
			hSug = cfg.HMax
		} else {
			hSug = h * 0.9 * math.Pow(errNorm, -0.2)
		}
		hSug = math.Max(cfg.HMin, math.Min(hSug, cfg.HMax))
		if math.IsNaN(errNorm) || math.IsInf(errNorm, 0) {
			s.accumulate(st)
			return st, fmt.Errorf("%w: non-finite error estimate at t=%g", ErrStepFailed, t)
		}
	}
	s.h = hSug
	s.accumulate(st)
	return st, nil
}

func (s *AdaptiveStepper) accumulate(st AdaptiveStats) {
	s.cumulative.Accepted += st.Accepted
	s.cumulative.Rejected += st.Rejected
	if st.LastStep > 0 {
		s.cumulative.LastStep = st.LastStep
	}
}
