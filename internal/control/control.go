// Package control implements the control-system blocks that the paper's
// cooling model reproduces from Frontier's physical plant (§III-C5):
// PID regulators for CDU pump speed and control valves, first-order lags
// and transport delays (the "delay transfer function" coupling the
// primary-pump and cooling-tower loops), rate limiters, and the
// stage-up/stage-down controllers that sequence pumps, heat exchangers,
// and cooling towers.
package control

import "math"

// PID is a proportional-integral-derivative controller with output
// clamping and integrator anti-windup (back-calculation). The derivative
// acts on the measurement, not the error, to avoid setpoint kicks — the
// standard form for plant controllers such as those on Frontier's CDUs.
type PID struct {
	Kp, Ki, Kd   float64
	OutMin       float64
	OutMax       float64
	Tt           float64 // anti-windup tracking time constant; 0 disables
	DirectAction bool    // true: output increases when measurement exceeds setpoint

	integ    float64
	prevMeas float64
	hasPrev  bool
	out      float64
}

// NewPID builds a PID with the given gains and output limits.
func NewPID(kp, ki, kd, outMin, outMax float64) *PID {
	return &PID{Kp: kp, Ki: ki, Kd: kd, OutMin: outMin, OutMax: outMax, Tt: 1}
}

// Reset clears the controller state and presets the output.
func (p *PID) Reset(output float64) {
	p.integ = clamp(output, p.OutMin, p.OutMax)
	p.hasPrev = false
	p.out = p.integ
}

// Output returns the last computed output.
func (p *PID) Output() float64 { return p.out }

// Update advances the controller by dt seconds given the setpoint and the
// measured process variable, returning the clamped output.
func (p *PID) Update(setpoint, measurement, dt float64) float64 {
	if dt <= 0 {
		return p.out
	}
	err := setpoint - measurement
	if p.DirectAction {
		err = -err
	}
	deriv := 0.0
	if p.hasPrev && p.Kd != 0 {
		dm := (measurement - p.prevMeas) / dt
		if p.DirectAction {
			deriv = p.Kd * dm
		} else {
			deriv = -p.Kd * dm
		}
	}
	p.prevMeas = measurement
	p.hasPrev = true

	p.integ += p.Ki * err * dt
	raw := p.Kp*err + p.integ + deriv
	out := clamp(raw, p.OutMin, p.OutMax)
	// Back-calculation anti-windup: bleed the integrator toward the
	// value consistent with the saturated output.
	if p.Tt > 0 && raw != out {
		p.integ += (out - raw) * dt / p.Tt
	}
	p.out = out
	return out
}

// FirstOrderLag is the transfer function 1/(τs+1), discretized with the
// exact exponential step. A zero value passes the input through (τ=0).
type FirstOrderLag struct {
	Tau float64

	y       float64
	started bool
}

// Reset sets the internal state to y.
func (f *FirstOrderLag) Reset(y float64) {
	f.y = y
	f.started = true
}

// Value returns the current filter output without advancing time.
func (f *FirstOrderLag) Value() float64 { return f.y }

// Update advances the lag by dt seconds toward input u and returns the
// filtered value.
func (f *FirstOrderLag) Update(u, dt float64) float64 {
	if !f.started {
		f.y = u
		f.started = true
		return f.y
	}
	if f.Tau <= 0 || dt <= 0 {
		f.y = u
		return f.y
	}
	a := math.Exp(-dt / f.Tau)
	f.y = a*f.y + (1-a)*u
	return f.y
}

// TransportDelay delays its input by a fixed time using a ring buffer
// sampled at a fixed period. It models pipe transport lag between loops.
type TransportDelay struct {
	buf  []float64
	idx  int
	init bool
}

// NewTransportDelay creates a delay of delaySec seconds sampled every
// dtSec seconds (at least one sample).
func NewTransportDelay(delaySec, dtSec float64) *TransportDelay {
	n := int(math.Round(delaySec / dtSec))
	if n < 1 {
		n = 1
	}
	return &TransportDelay{buf: make([]float64, n)}
}

// UpdateN pushes u n times — one sample per design sampling period — and
// returns the delayed value after the final push: with n = 1, the value
// from delaySec ago, or the first pushed value until the buffer has
// filled once. Callers advancing the plant with a coarser step than the
// delay's design period keep the delay line on its design time base
// (n = step/period) in one call; n ≥ len(buf) degenerates to filling the
// line with u.
func (d *TransportDelay) UpdateN(u float64, n int) float64 {
	if !d.init {
		for i := range d.buf {
			d.buf[i] = u
		}
		d.init = true
	}
	if n < 1 {
		n = 1
	}
	if n >= len(d.buf) {
		var out float64
		if n == len(d.buf) {
			// The oldest retained sample is exactly the one about to be
			// overwritten last; idx is unchanged modulo the buffer.
			out = d.buf[(d.idx+n-1)%len(d.buf)]
		} else {
			out = u
		}
		for i := range d.buf {
			d.buf[i] = u
		}
		d.idx = (d.idx + n) % len(d.buf)
		return out
	}
	var out float64
	for i := 0; i < n; i++ {
		out = d.buf[d.idx]
		d.buf[d.idx] = u
		d.idx = (d.idx + 1) % len(d.buf)
	}
	return out
}

// RateLimiter bounds the slew rate of a signal (units per second), as a
// soft-start on pump speed commands.
type RateLimiter struct {
	RisePerSec float64
	FallPerSec float64

	y       float64
	started bool
}

// Reset presets the limiter state.
func (r *RateLimiter) Reset(y float64) {
	r.y = y
	r.started = true
}

// Update moves the output toward u at most at the configured rates.
func (r *RateLimiter) Update(u, dt float64) float64 {
	if !r.started {
		r.y = u
		r.started = true
		return r.y
	}
	if dt <= 0 {
		return r.y
	}
	delta := u - r.y
	maxRise := r.RisePerSec * dt
	maxFall := r.FallPerSec * dt
	switch {
	case r.RisePerSec > 0 && delta > maxRise:
		r.y += maxRise
	case r.FallPerSec > 0 && delta < -maxFall:
		r.y -= maxFall
	default:
		r.y = u
	}
	return r.y
}

// Value returns the limiter's current output.
func (r *RateLimiter) Value() float64 { return r.y }

// Stager sequences discrete equipment (pumps, cooling-tower cells, heat
// exchangers) up and down based on a continuous loading signal, with
// minimum dwell times to prevent short-cycling — mirroring Frontier's CEP
// staging logic (§III-C5: "HTWPs are staged up/down depending on the
// relative percent pump speeds of the running pumps").
type Stager struct {
	Min, Max      int     // stage count bounds (Min ≥ 1 for always-on duty)
	UpThreshold   float64 // stage up when signal > UpThreshold for UpDwell
	DownThreshold float64 // stage down when signal < DownThreshold for DownDwell
	UpDwell       float64 // seconds the condition must hold
	DownDwell     float64

	count     int
	upTimer   float64
	downTimer float64
}

// NewStager builds a stager with an initial stage count clamped to bounds.
func NewStager(min, max, initial int, upThr, downThr, upDwell, downDwell float64) *Stager {
	s := &Stager{
		Min: min, Max: max,
		UpThreshold: upThr, DownThreshold: downThr,
		UpDwell: upDwell, DownDwell: downDwell,
	}
	s.count = clampInt(initial, min, max)
	return s
}

// Count returns the current stage count.
func (s *Stager) Count() int { return s.count }

// Update advances the stager by dt seconds given the loading signal and
// returns the (possibly changed) stage count.
func (s *Stager) Update(signal, dt float64) int {
	if signal > s.UpThreshold && s.count < s.Max {
		s.upTimer += dt
		s.downTimer = 0
		if s.upTimer >= s.UpDwell {
			s.count++
			s.upTimer = 0
		}
	} else if signal < s.DownThreshold && s.count > s.Min {
		s.downTimer += dt
		s.upTimer = 0
		if s.downTimer >= s.DownDwell {
			s.count--
			s.downTimer = 0
		}
	} else {
		s.upTimer = 0
		s.downTimer = 0
	}
	return s.count
}

// Pending reports whether a stage change is being dwelled toward: the
// loading signal has been beyond a threshold for part of its dwell time.
// A quiescent plant must not freeze a stager mid-dwell — under a held
// (constant) signal the dwell would elapse and the stage count change.
func (s *Stager) Pending() bool { return s.upTimer > 0 || s.downTimer > 0 }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
