// Package thermal implements the lumped thermal components of the cooling
// model (§III-C4): well-mixed thermal volumes (the ODE states), ε-NTU
// counterflow heat exchangers (the CDU HEX-1600s and the intermediate
// EHX1-5), an evaporative cooling-tower cell model driven by wet-bulb
// temperature, and cold-plate thermal-resistance curves for estimating
// device temperatures and detecting thermal throttling (one of the
// requirements-analysis use cases in §III-A).
package thermal

import (
	"math"

	"exadigit/internal/units"
)

// Volume is a well-mixed thermal capacitance holding mass kg of water at
// temperature T (°C). It contributes one ODE state:
//
//	m·cp·dT/dt = ṁ·cp·(Tin − T) + Qheat
type Volume struct {
	Mass float64 // kg of water
	T    float64 // current temperature, °C
}

// DTdt returns dT/dt for inlet flow mdot (kg/s) at temperature tIn with
// additional heat input qHeat (W, positive heats the volume).
func (v *Volume) DTdt(mdot, tIn, qHeat float64) float64 {
	if v.Mass <= 0 {
		return 0
	}
	cp := units.WaterSpecificHeat(v.T)
	return (mdot*cp*(tIn-v.T) + qHeat) / (v.Mass * cp)
}

// HeatExchanger is a counterflow ε-NTU heat exchanger. UA varies with
// flow on each side as h ∝ ṁ^0.8 (Dittus–Boelter scaling), anchored at a
// nominal design point.
type HeatExchanger struct {
	UANominal float64 // overall conductance at design flows, W/°C
	MdotHotN  float64 // design hot-side flow, kg/s
	MdotColdN float64 // design cold-side flow, kg/s
}

// UA returns the overall conductance at the given flows. Each film
// coefficient scales as (ṁ/ṁ_N)^0.8 and the two films contribute equal
// resistance at design.
func (h HeatExchanger) UA(mdotHot, mdotCold float64) float64 {
	if mdotHot <= 0 || mdotCold <= 0 {
		return 0
	}
	rh := pow08(mdotHot / h.MdotHotN)
	rc := pow08(mdotCold / h.MdotColdN)
	// 1/UA = 0.5/UA_N·(1/rh) + 0.5/UA_N·(1/rc)
	return h.UANominal * 2 / (1/rh + 1/rc)
}

// pow08Frac is the fractional exponent math.Pow works with for y = 0.8:
// it splits y into 1 + (0.8 − 1), the difference taken in float64
// arithmetic. That is float64(0.8) − 1 exactly, one ulp away from the
// float64 nearest −0.2 that the constant expression 0.8 − 1 would give.
const pow08Frac = -0.19999999999999996

// pow08 returns math.Pow(x, 0.8) bit for bit, at about two thirds of its
// cost. For finite x > 0 math.Pow performs exactly these operations —
// x^(0.8−1) through Exp∘Log, times x^1 as Frexp's mantissa and exponent —
// after a chain of special-case tests that never match here; the Dittus–
// Boelter film scaling calls it twice per HEX evaluation, the largest
// single cost of the cooling model's derivative sweep. Zero, negative,
// infinite and NaN arguments take math.Pow itself.
func pow08(x float64) float64 {
	if !(x > 0) || math.IsInf(x, 1) {
		return math.Pow(x, 0.8)
	}
	frac, exp := math.Frexp(x)
	return math.Ldexp(math.Exp(pow08Frac*math.Log(x))*frac, exp)
}

// Effectiveness returns the counterflow ε for the given capacity rates.
func Effectiveness(ntu, cr float64) float64 {
	if ntu <= 0 {
		return 0
	}
	if cr < 0 {
		cr = 0
	}
	if math.Abs(cr-1) < 1e-9 {
		return ntu / (1 + ntu)
	}
	e := math.Exp(-ntu * (1 - cr))
	return (1 - e) / (1 - cr*e)
}

// Transfer computes the heat flow (W) from hot to cold for the given
// inlet temperatures and mass flows, plus the two outlet temperatures.
// Zero flow on either side transfers nothing.
func (h HeatExchanger) Transfer(tHotIn, mdotHot, tColdIn, mdotCold float64) (q, tHotOut, tColdOut float64) {
	return h.TransferUA(h.UA(mdotHot, mdotCold), tHotIn, mdotHot, tColdIn, mdotCold)
}

// TransferUA is Transfer with the overall conductance supplied by the
// caller. UA depends only on the mass flows (not on temperature), so a
// hot loop whose hydraulic solution is frozen across an integration
// period can evaluate UA once and skip its two Pow calls per stage
// evaluation — the dominant cost of the cooling model's derivative
// sweep. TransferUA(h.UA(mh, mc), ...) is exactly Transfer(...).
func (h HeatExchanger) TransferUA(ua, tHotIn, mdotHot, tColdIn, mdotCold float64) (q, tHotOut, tColdOut float64) {
	return h.TransferUACp(ua, tHotIn, mdotHot, tColdIn, mdotCold, units.WaterSpecificHeat(tColdIn))
}

// TransferUACp is TransferUA with the cold inlet's specific heat cpC
// (units.WaterSpecificHeat(tColdIn)) supplied by the caller as well, for
// exchangers that share one cold supply header and so one cold inlet
// temperature.
func (h HeatExchanger) TransferUACp(ua, tHotIn, mdotHot, tColdIn, mdotCold, cpC float64) (q, tHotOut, tColdOut float64) {
	tHotOut, tColdOut = tHotIn, tColdIn
	if mdotHot <= 0 || mdotCold <= 0 || tHotIn <= tColdIn {
		return 0, tHotOut, tColdOut
	}
	cpH := units.WaterSpecificHeat(tHotIn)
	cHot := mdotHot * cpH
	cCold := mdotCold * cpC
	cMin, cMax := cHot, cCold
	if cCold < cHot {
		cMin, cMax = cCold, cHot
	}
	eps := Effectiveness(ua/cMin, cMin/cMax)
	q = eps * cMin * (tHotIn - tColdIn)
	tHotOut = tHotIn - q/cHot
	tColdOut = tColdIn + q/cCold
	return q, tHotOut, tColdOut
}

// CoolingTower models one evaporative tower cell: the leaving-water
// temperature approaches the ambient wet-bulb with an effectiveness that
// improves with fan speed and degrades with water loading.
type CoolingTower struct {
	EpsNominal  float64 // effectiveness at design flow, full fan (0..1)
	MdotNominal float64 // design water flow per cell, kg/s
	FanExp      float64 // effectiveness exponent on fan speed (≈0.4)
	LoadExp     float64 // effectiveness exponent on (mdotN/mdot) (≈0.35)
	FanPowerMax float64 // fan power per cell at full speed, W
}

// Effectiveness returns the cell effectiveness for fan speed (0..1) and
// water flow mdot.
func (c CoolingTower) Effectiveness(fanSpeed, mdot float64) float64 {
	if fanSpeed <= 0 || mdot <= 0 {
		return 0.05 // natural-draft trickle
	}
	eps := c.EpsNominal * math.Pow(fanSpeed, c.FanExp) * math.Pow(c.MdotNominal/mdot, c.LoadExp)
	return units.Clamp(eps, 0.05, 0.98)
}

// Outlet returns the leaving-water temperature for water entering at tIn
// with ambient wet-bulb tWb.
func (c CoolingTower) Outlet(tIn, tWb, fanSpeed, mdot float64) float64 {
	if tIn <= tWb {
		return tIn
	}
	return c.OutletEff(c.Effectiveness(fanSpeed, mdot), tIn, tWb)
}

// OutletEff is Outlet with the cell effectiveness supplied by the
// caller (see HeatExchanger.TransferUA for the precomputation rationale:
// effectiveness depends on fan speed and flow, both frozen across an
// integration period).
func (c CoolingTower) OutletEff(eps, tIn, tWb float64) float64 {
	if tIn <= tWb {
		return tIn
	}
	return tIn - eps*(tIn-tWb)
}

// HeatRejected returns the heat rejected (W) by one cell.
func (c CoolingTower) HeatRejected(tIn, tWb, fanSpeed, mdot float64) float64 {
	tOut := c.Outlet(tIn, tWb, fanSpeed, mdot)
	cp := units.WaterSpecificHeat(tIn)
	return mdot * cp * (tIn - tOut)
}

// FanPower returns the fan power (W) at the given speed using the cube
// law plus a small parasitic floor while running.
func (c CoolingTower) FanPower(fanSpeed float64) float64 {
	if fanSpeed <= 0 {
		return 0
	}
	s := units.Clamp(fanSpeed, 0, 1.1)
	return c.FanPowerMax * (0.02 + 0.98*s*s*s)
}

// ColdPlate models the conduction path from a device (CPU or GPU die) to
// the coolant: Tdevice = Tcoolant + Rth(q)·P, with the convective part of
// the resistance falling as flow^0.8.
type ColdPlate struct {
	RConduction float64 // fixed conduction/spreading resistance, °C/W
	RConvNom    float64 // convective resistance at nominal flow, °C/W
	QNominal    float64 // nominal coolant flow, m³/s
}

// Rth returns the total thermal resistance at coolant flow q (m³/s).
func (p ColdPlate) Rth(q float64) float64 {
	if q <= 0 {
		return p.RConduction + p.RConvNom*100 // stagnant: very poor
	}
	return p.RConduction + p.RConvNom*math.Pow(p.QNominal/q, 0.8)
}

// DeviceTemp returns the device temperature for power watts dissipated
// into coolant at tCoolant with flow q.
func (p ColdPlate) DeviceTemp(powerW, tCoolant, q float64) float64 {
	return tCoolant + p.Rth(q)*powerW
}

// Throttles reports whether the device exceeds limit °C at the given
// operating point — the early thermal-throttling detection use case.
func (p ColdPlate) Throttles(powerW, tCoolant, q, limit float64) bool {
	return p.DeviceTemp(powerW, tCoolant, q) > limit
}

// MixStreams returns the temperature of the mixture of two water streams.
func MixStreams(mdot1, t1, mdot2, t2 float64) float64 {
	total := mdot1 + mdot2
	if total <= 0 {
		return (t1 + t2) / 2
	}
	return (mdot1*t1 + mdot2*t2) / total
}
