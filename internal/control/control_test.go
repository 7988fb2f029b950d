package control

import (
	"math"
	"testing"
	"testing/quick"
)

// firstOrderPlant integrates y' = (u - y)/tau, a generic thermal plant.
type firstOrderPlant struct {
	y, tau float64
}

func (p *firstOrderPlant) step(u, dt float64) float64 {
	p.y += dt * (u - p.y) / p.tau
	return p.y
}

func TestPIDConvergesOnFirstOrderPlant(t *testing.T) {
	pid := NewPID(2.0, 0.5, 0.0, 0, 100)
	plant := &firstOrderPlant{y: 0, tau: 5}
	dt := 0.1
	var u float64
	for i := 0; i < 5000; i++ {
		u = pid.Update(32, plant.y, dt)
		plant.step(u, dt)
	}
	if math.Abs(plant.y-32) > 0.05 {
		t.Errorf("plant settled at %v, want 32", plant.y)
	}
	if u < 0 || u > 100 {
		t.Errorf("output %v outside limits", u)
	}
}

func TestPIDOutputClamped(t *testing.T) {
	pid := NewPID(100, 10, 0, 0, 1)
	out := pid.Update(1000, 0, 1)
	if out != 1 {
		t.Errorf("output %v, want clamped to 1", out)
	}
	out = pid.Update(-1000, 0, 1)
	if out != 0 {
		t.Errorf("output %v, want clamped to 0", out)
	}
}

func TestPIDAntiWindup(t *testing.T) {
	// Drive into saturation, then reverse; anti-windup recovers quickly.
	mk := func(tt float64) int {
		pid := NewPID(1, 1, 0, -1, 1)
		pid.Tt = tt
		for i := 0; i < 100; i++ {
			pid.Update(10, 0, 0.1) // saturated high for 10 s
		}
		// Now ask for the opposite extreme and count steps to reach it.
		for i := 0; i < 10000; i++ {
			if pid.Update(-10, 0, 0.1) <= -1+1e-9 {
				return i
			}
		}
		return 10000
	}
	with := mk(0.5)
	without := mk(0) // anti-windup disabled: integrator must unwind
	if with >= without {
		t.Errorf("anti-windup (%d steps) should recover faster than windup (%d steps)", with, without)
	}
}

func TestPIDDerivativeOnMeasurement(t *testing.T) {
	pid := NewPID(0, 0, 1, -100, 100)
	pid.Update(0, 0, 1)
	// A setpoint jump with constant measurement must produce no derivative kick.
	out := pid.Update(50, 0, 1)
	if out != 0 {
		t.Errorf("derivative kick on setpoint change: %v", out)
	}
	// A measurement ramp of +2/s produces -Kd*2.
	out = pid.Update(50, 2, 1)
	if math.Abs(out-(-2)) > 1e-12 {
		t.Errorf("derivative on measurement = %v, want -2", out)
	}
}

func TestPIDDirectAction(t *testing.T) {
	// Direct action: measurement above setpoint raises the output
	// (e.g. hotter water → faster fan).
	pid := NewPID(1, 0, 0, -10, 10)
	pid.DirectAction = true
	out := pid.Update(20, 25, 1)
	if out <= 0 {
		t.Errorf("direct-acting output = %v, want positive", out)
	}
}

func TestPIDResetAndNoTimeStep(t *testing.T) {
	pid := NewPID(1, 1, 0, 0, 10)
	pid.Update(5, 0, 1)
	before := pid.Output()
	if got := pid.Update(5, 0, 0); got != before {
		t.Errorf("zero dt must hold output: %v != %v", got, before)
	}
	pid.Reset(3)
	if pid.Output() != 3 {
		t.Errorf("Reset output = %v", pid.Output())
	}
	pid.Reset(99) // clamped to OutMax
	if pid.Output() != 10 {
		t.Errorf("Reset should clamp: %v", pid.Output())
	}
}

func TestFirstOrderLagStepResponse(t *testing.T) {
	lag := &FirstOrderLag{Tau: 10}
	lag.Reset(0)
	var y float64
	for i := 0; i < 100; i++ { // 10 s = one time constant at dt=0.1
		y = lag.Update(1, 0.1)
	}
	want := 1 - math.Exp(-1)
	if math.Abs(y-want) > 1e-9 {
		t.Errorf("lag after 1τ = %v, want %v", y, want)
	}
}

func TestFirstOrderLagPassThrough(t *testing.T) {
	lag := &FirstOrderLag{Tau: 0}
	lag.Reset(5)
	if got := lag.Update(42, 1); got != 42 {
		t.Errorf("zero tau should pass through, got %v", got)
	}
	fresh := &FirstOrderLag{Tau: 100}
	if got := fresh.Update(7, 1); got != 7 {
		t.Errorf("first sample should initialize to input, got %v", got)
	}
	if fresh.Value() != 7 {
		t.Errorf("Value = %v", fresh.Value())
	}
}

func TestTransportDelayExact(t *testing.T) {
	d := NewTransportDelay(3, 1) // 3-sample delay
	inputs := []float64{10, 20, 30, 40, 50, 60}
	want := []float64{10, 10, 10, 10, 20, 30}
	for i, u := range inputs {
		if got := d.UpdateN(u, 1); got != want[i] {
			t.Errorf("step %d: got %v, want %v", i, got, want[i])
		}
	}
}

func TestTransportDelayMinimumOneSample(t *testing.T) {
	d := NewTransportDelay(0, 1)
	d.UpdateN(1, 1)
	if got := d.UpdateN(2, 1); got != 1 {
		t.Errorf("minimum delay should be one sample, got %v", got)
	}
}

func TestRateLimiter(t *testing.T) {
	r := &RateLimiter{RisePerSec: 10, FallPerSec: 5}
	r.Reset(0)
	if got := r.Update(100, 1); got != 10 {
		t.Errorf("rise limited to 10, got %v", got)
	}
	if got := r.Update(-100, 1); got != 5 {
		t.Errorf("fall limited to 5/s from 10, got %v", got)
	}
	if got := r.Update(5.5, 1); got != 5.5 {
		t.Errorf("within slew limits should track input, got %v", got)
	}
	if r.Value() != 5.5 {
		t.Errorf("Value = %v", r.Value())
	}
	fresh := &RateLimiter{RisePerSec: 1}
	if got := fresh.Update(50, 1); got != 50 {
		t.Errorf("first sample initializes, got %v", got)
	}
}

func TestStagerUpDownWithDwell(t *testing.T) {
	s := NewStager(1, 4, 1, 0.9, 0.4, 5, 10)
	// Signal above the up-threshold must persist for 5 s before staging.
	for i := 0; i < 4; i++ {
		s.Update(0.95, 1)
	}
	if s.Count() != 1 {
		t.Errorf("staged up before dwell elapsed: %d", s.Count())
	}
	s.Update(0.95, 1)
	if s.Count() != 2 {
		t.Errorf("should stage up after 5 s, got %d", s.Count())
	}
	// A dip below threshold resets the timer.
	for i := 0; i < 4; i++ {
		s.Update(0.95, 1)
	}
	s.Update(0.5, 1) // inside dead band: timers reset
	for i := 0; i < 4; i++ {
		s.Update(0.95, 1)
	}
	if s.Count() != 2 {
		t.Errorf("dwell should have reset, got %d", s.Count())
	}
	// Stage down requires 10 s below 0.4.
	for i := 0; i < 10; i++ {
		s.Update(0.2, 1)
	}
	if s.Count() != 1 {
		t.Errorf("should stage down after 10 s, got %d", s.Count())
	}
}

func TestStagerBounds(t *testing.T) {
	s := NewStager(1, 3, 99, 0.9, 0.4, 0, 0)
	if s.Count() != 3 {
		t.Errorf("initial clamped to max, got %d", s.Count())
	}
	for i := 0; i < 100; i++ {
		s.Update(1.0, 1)
	}
	if s.Count() != 3 {
		t.Errorf("must not exceed max, got %d", s.Count())
	}
	for i := 0; i < 100; i++ {
		s.Update(0.0, 1)
	}
	if s.Count() != 1 {
		t.Errorf("must not fall below min, got %d", s.Count())
	}
}

func TestStagerZeroDwellImmediate(t *testing.T) {
	s := NewStager(1, 4, 1, 0.9, 0.4, 0, 0)
	s.Update(0.95, 1)
	if s.Count() != 2 {
		t.Errorf("zero dwell should stage immediately, got %d", s.Count())
	}
}

func TestPIDOutputAlwaysBoundedProperty(t *testing.T) {
	// Whatever the setpoint/measurement sequence, the output never
	// leaves [OutMin, OutMax] — the actuator-safety invariant every
	// plant controller relies on.
	f := func(setpoints, measurements []float64) bool {
		pid := NewPID(3, 0.7, 0.2, -10, 10)
		n := len(setpoints)
		if len(measurements) < n {
			n = len(measurements)
		}
		for i := 0; i < n; i++ {
			sp := setpoints[i]
			pv := measurements[i]
			if math.IsNaN(sp) || math.IsInf(sp, 0) || math.IsNaN(pv) || math.IsInf(pv, 0) {
				continue
			}
			out := pid.Update(math.Mod(sp, 1e6), math.Mod(pv, 1e6), 0.5)
			if out < -10-1e-12 || out > 10+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStagerCountAlwaysInBoundsProperty(t *testing.T) {
	f := func(signals []float64) bool {
		s := NewStager(2, 7, 3, 0.9, 0.3, 2, 2)
		for _, sig := range signals {
			if math.IsNaN(sig) {
				continue
			}
			c := s.Update(math.Mod(sig, 2), 1)
			if c < 2 || c > 7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTransportDelayUpdateNMatchesRepeatedUpdate(t *testing.T) {
	for _, n := range []int{1, 2, 5, 11, 12, 13, 40} {
		a := NewTransportDelay(12, 1)
		b := NewTransportDelay(12, 1)
		// Establish some history first.
		for i := 0; i < 7; i++ {
			a.UpdateN(float64(i), 1)
			b.UpdateN(float64(i), 1)
		}
		var want float64
		for i := 0; i < n; i++ {
			want = a.UpdateN(99, 1)
		}
		if got := b.UpdateN(99, n); got != want {
			t.Errorf("n=%d: UpdateN = %v, %d×UpdateN(_, 1) = %v", n, got, n, want)
		}
	}
}

func TestTransportDelayUpdateNClampsNonPositive(t *testing.T) {
	d := NewTransportDelay(5, 1)
	d.UpdateN(1, 1)
	if got := d.UpdateN(2, 0); got != 1 {
		t.Errorf("UpdateN(_, 0) = %v, want one-sample push behavior", got)
	}
}

func TestStagerPending(t *testing.T) {
	s := NewStager(1, 4, 2, 0.9, 0.3, 10, 10)
	if s.Pending() {
		t.Error("fresh stager should not be pending")
	}
	s.Update(0.95, 1) // start dwelling toward a stage-up
	if !s.Pending() {
		t.Error("mid-dwell stager must report pending")
	}
	s.Update(0.5, 1) // back inside the deadband: timers reset
	if s.Pending() {
		t.Error("deadband signal should clear pending")
	}
	s.Update(0.1, 4)
	if !s.Pending() {
		t.Error("dwelling toward stage-down must report pending")
	}
	s.Update(0.1, 10) // dwell elapses, stage change fires, timer resets
	if s.Pending() {
		t.Error("timer should reset after the stage change")
	}
}
