// Package hydro implements the quasi-steady hydraulic network used by the
// cooling model (§III-C4). Like the paper's Modelica model, flows are
// computed from pump curves, quadratic pipe resistances, and valve
// positions; unlike the thermal states, hydraulic states settle in
// milliseconds, so each plant time step solves the network algebraically
// (pump curve ∩ system curve) rather than integrating momentum ODEs.
//
// Conventions: flow Q in m³/s, pressure rise/drop in Pa, pump speed as a
// fraction of rated speed in [0, ~1.2].
package hydro

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSolution is returned when a loop operating point cannot be bracketed.
var ErrNoSolution = errors.New("hydro: no operating point")

// PumpCurve is a quadratic centrifugal pump characteristic
//
//	head(Q, s) = H0·s² − H2·Q²   [Pa]
//
// which obeys the affinity laws exactly for a quadratic curve. H0 is the
// shutoff head at rated speed; H2 sets the head roll-off with flow.
type PumpCurve struct {
	H0 float64 // shutoff head at rated speed, Pa
	H2 float64 // quadratic coefficient, Pa/(m³/s)²
	// QRated and Eta describe the best-efficiency point for power calc.
	QRated float64 // rated flow, m³/s
	Eta    float64 // hydraulic efficiency at the BEP (0..1)
	PIdle  float64 // parasitic (seal/bearing/VFD) power when spinning, W
}

// NewPumpCurve builds a curve from two rated-point values: head at zero
// flow (shutoff, Pa) and the operating point (qRated m³/s at hRated Pa).
func NewPumpCurve(shutoffPa, qRated, hRatedPa, eta float64) PumpCurve {
	h2 := (shutoffPa - hRatedPa) / (qRated * qRated)
	return PumpCurve{H0: shutoffPa, H2: h2, QRated: qRated, Eta: eta}
}

// Head returns the pressure rise at flow q and speed fraction s.
func (p PumpCurve) Head(q, s float64) float64 {
	return p.H0*s*s - p.H2*q*q
}

// FlowAtHead inverts the curve: the flow delivered against head h at speed
// s, or 0 if the pump cannot reach that head.
func (p PumpCurve) FlowAtHead(h, s float64) float64 {
	num := p.H0*s*s - h
	if num <= 0 || p.H2 <= 0 {
		return 0
	}
	return math.Sqrt(num / p.H2)
}

// MaxHead returns the shutoff head at speed s.
func (p PumpCurve) MaxHead(s float64) float64 { return p.H0 * s * s }

// Power returns the electrical power (W) drawn at flow q and the
// corresponding head, using hydraulic power / efficiency plus parasitics.
func (p PumpCurve) Power(q, s float64) float64 {
	if s <= 0 {
		return 0
	}
	h := p.Head(q, s)
	if h < 0 {
		h = 0
	}
	eta := p.Eta
	if eta <= 0 {
		eta = 0.7
	}
	return h*q/eta + p.PIdle
}

// Resistance is a quadratic hydraulic resistance ΔP = K·Q·|Q|.
type Resistance struct {
	K float64 // Pa/(m³/s)²
}

// Drop returns the pressure drop at flow q (signed).
func (r Resistance) Drop(q float64) float64 { return r.K * q * math.Abs(q) }

// ParallelK combines quadratic resistances given as raw K coefficients in
// parallel (1/√K_total = Σ 1/√K_i); non-positive entries are skipped.
func ParallelK(ks []float64) Resistance {
	var s float64
	for _, k := range ks {
		if k > 0 {
			s += 1 / math.Sqrt(k)
		}
	}
	if s == 0 {
		return Resistance{K: math.Inf(1)}
	}
	return Resistance{K: 1 / (s * s)}
}

// Valve is an equal-percentage control valve. Position 1 is fully open
// with resistance KOpen; closing multiplies the resistance by
// Rangeability^(2·(1−pos)), with a leakage floor at KMax.
type Valve struct {
	KOpen        float64 // resistance fully open, Pa/(m³/s)²
	Rangeability float64 // typically 30–50; <=1 makes the valve linear-off
	KMax         float64 // leakage-limited resistance when closed

	pos float64
	pow basePow // Rangeability's share of math.Pow(Rangeability, y)
}

// NewValve builds an equal-percentage valve sized to pass qRated at
// dpRated when fully open, with the given rangeability.
func NewValve(dpRatedPa, qRated, rangeability float64) *Valve {
	k := dpRatedPa / (qRated * qRated)
	return &Valve{KOpen: k, Rangeability: rangeability, KMax: k * math.Pow(rangeability, 2), pos: 1,
		pow: newBasePow(rangeability)}
}

// basePow holds the part of math.Pow(x, y) that depends on x alone, for
// one finite x > 1: Log x, and x¹ and x² as Frexp mantissa and power of
// two. The zero value holds nothing, and then at defers to math.Pow.
type basePow struct {
	x     float64
	logX  float64
	frac  [3]float64 // x^yi's mantissa for yi = 0, 1, 2
	scale [3]float64 // x^yi's power of two, 2^exp
}

func newBasePow(x float64) basePow {
	if !(x > 1) || math.IsInf(x, 1) {
		return basePow{}
	}
	frac, exp := [3]float64{1}, [3]int{}
	frac[1], exp[1] = math.Frexp(x)
	// math.Pow's repeated squaring, one step.
	frac[2], exp[2] = frac[1]*frac[1], exp[1]<<1
	if frac[2] < .5 {
		frac[2] += frac[2]
		exp[2]--
	}
	if exp[2] > 1023 { // 2^exp would not be a normal float64
		return basePow{}
	}
	b := basePow{x: x, logX: math.Log(x), frac: frac}
	for i, e := range exp {
		b.scale[i] = math.Float64frombits(uint64(e+1023) << 52)
	}
	return b
}

// at returns math.Pow(x, y) bit for bit. For 0 < y ≤ 2 other than ½ and
// 1, math.Pow performs exactly these operations after special-case tests
// that never match: y splits into yi + yf with |yf| ≤ ½, then x^yf comes
// from Exp(yf·Log x) and x^yi from the mantissa and power of two held
// here. math.Pow's closing Ldexp by that power is a multiplication here:
// x^y lies between 1 and x², both normal, and scaling by a power of two
// within the normal range is exact. Every other y, and any x the value
// does not hold, takes math.Pow itself.
func (b *basePow) at(x, y float64) float64 {
	if x != b.x || !(y > 0 && y <= 2) || y == 0.5 || y == 1 {
		return math.Pow(x, y)
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	a := 1.0
	if yf != 0 {
		a = math.Exp(yf * b.logX)
	}
	i := int(yi)
	return a * b.frac[i] * b.scale[i]
}

// SetPosition commands the valve to pos ∈ [0, 1].
func (v *Valve) SetPosition(pos float64) {
	if pos < 0 {
		pos = 0
	}
	if pos > 1 {
		pos = 1
	}
	v.pos = pos
}

// Position returns the current valve position.
func (v *Valve) Position() float64 { return v.pos }

// Resistance returns the valve's current hydraulic resistance.
func (v *Valve) Resistance() Resistance {
	r := v.Rangeability
	if r <= 1 {
		r = 1
	}
	k := v.KOpen * v.pow.at(r, 2*(1-v.pos))
	if v.KMax > 0 && k > v.KMax {
		k = v.KMax
	}
	return Resistance{K: k}
}

// PumpBank is n identical pumps in parallel on a common header, all
// running at the same speed (how Frontier stages its CTWPs/HTWPs).
type PumpBank struct {
	Curve PumpCurve
	N     int     // pumps currently staged on
	Speed float64 // common speed fraction
}

// Flow returns the total delivered flow against head h.
func (b PumpBank) Flow(h float64) float64 {
	if b.N <= 0 || b.Speed <= 0 {
		return 0
	}
	return float64(b.N) * b.Curve.FlowAtHead(h, b.Speed)
}

// Power returns total electrical power at head h.
func (b PumpBank) Power(h float64) float64 {
	if b.N <= 0 || b.Speed <= 0 {
		return 0
	}
	q := b.Curve.FlowAtHead(h, b.Speed)
	return float64(b.N) * b.Curve.Power(q, b.Speed)
}

// SolveLoop finds the operating point of a pump bank pushing flow around a
// closed loop whose total pressure drop is given by systemDrop(Q). It
// returns the loop flow and the matching head. systemDrop must be
// non-decreasing in Q (true for any series/parallel combination of
// quadratic resistances).
func SolveLoop(bank PumpBank, systemDrop func(q float64) float64) (q, head float64, err error) {
	if bank.N <= 0 || bank.Speed <= 0 {
		return 0, 0, nil
	}
	maxHead := bank.Curve.MaxHead(bank.Speed)
	// Residual(h) = bankFlow(h) − systemFlowAt(h); we instead root-find on
	// flow: f(Q) = bankHeadAt(Q) − systemDrop(Q), monotone decreasing.
	headAt := func(qTot float64) float64 {
		per := qTot / float64(bank.N)
		return bank.Curve.Head(per, bank.Speed)
	}
	f := func(qTot float64) float64 { return headAt(qTot) - systemDrop(qTot) }
	lo := 0.0
	if f(lo) <= 0 {
		// System drop at zero flow exceeds shutoff head (e.g. static head):
		// pump is dead-headed.
		return 0, maxHead, nil
	}
	// Bracket: expand hi until f(hi) < 0.
	hi := bank.Curve.QRated * float64(bank.N) * bank.Speed
	if hi <= 0 {
		hi = 1e-3
	}
	for i := 0; f(hi) > 0; i++ {
		hi *= 2
		if i > 60 {
			return 0, 0, fmt.Errorf("%w: cannot bracket (hi=%g)", ErrNoSolution, hi)
		}
	}
	// Bisection: robust against the kinks valves introduce.
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	q = (lo + hi) / 2
	return q, systemDrop(q), nil
}

// SolveQuadLoop returns the operating point of a pump bank pushing flow
// around a closed loop whose total drop is purely quadratic, ΔP = K·Q².
// The intersection with the (affinity-law) quadratic pump curve has a
// closed form, so the plant's fixed-resistance loops — every loop it
// solves per control period — skip SolveLoop's bracketing and bisection
// entirely in the simulation hot path. Agrees with SolveLoop to solver
// precision on the same inputs.
func SolveQuadLoop(bank PumpBank, K float64) (q, head float64) {
	if bank.N <= 0 || bank.Speed <= 0 {
		return 0, 0
	}
	n := float64(bank.N)
	denom := K + bank.Curve.H2/(n*n)
	num := bank.Curve.H0 * bank.Speed * bank.Speed
	if denom <= 0 || num <= 0 {
		return 0, 0
	}
	q = math.Sqrt(num / denom)
	return q, K * q * q
}

// SplitParallelInto distributes total flow qTot across parallel branches
// with resistances ks, writing per-branch flows into flows (len(flows)
// must equal len(ks)) and returning the common pressure drop. Branches
// with non-positive K take no flow unless all are non-positive, in which
// case the flow is split evenly.
func SplitParallelInto(qTot float64, ks, flows []float64) (dp float64) {
	for i := range flows {
		flows[i] = 0
	}
	if qTot <= 0 || len(ks) == 0 {
		return 0
	}
	var s float64
	for _, k := range ks {
		if k > 0 {
			s += 1 / math.Sqrt(k)
		}
	}
	if s == 0 {
		for i := range flows {
			flows[i] = qTot / float64(len(ks))
		}
		return 0
	}
	// Common dp from equivalent parallel resistance.
	kEq := 1 / (s * s)
	dp = kEq * qTot * qTot
	for i, k := range ks {
		if k > 0 {
			flows[i] = math.Sqrt(dp / k)
		}
	}
	return dp
}
