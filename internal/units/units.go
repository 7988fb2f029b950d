// Package units provides physical unit conversions, constants, and
// temperature-dependent water properties used throughout the cooling and
// power models. All internal computation is SI (kg, m, s, W, Pa, K or °C
// where noted); these helpers exist so that configuration files and
// reports can speak the plant's native units (gpm, psi, MW).
package units

// General conversion factors.
const (
	// GPMToM3s converts US gallons per minute to cubic metres per second.
	GPMToM3s = 3.785411784e-3 / 60.0
	// M3sToGPM converts cubic metres per second to US gallons per minute.
	M3sToGPM = 1.0 / GPMToM3s
	// PSIToPa converts pounds per square inch to pascals.
	PSIToPa = 6894.757293168
	// PaToPSI converts pascals to pounds per square inch.
	PaToPSI = 1.0 / PSIToPa
	// FtH2OToPa converts feet of water column (at 4 °C) to pascals.
	FtH2OToPa = 2989.0669
	// LbToMetricTon converts pounds to metric tons (Eq. 6 of the paper).
	LbToMetricTon = 1.0 / 2204.6
	// HoursPerYear is the number of hours in a (non-leap) year.
	HoursPerYear = 8760.0
)

// Power helpers.
const (
	Kilo = 1e3
	Mega = 1e6
	Giga = 1e9
)

// WToMW converts watts to megawatts.
func WToMW(w float64) float64 { return w / Mega }

// CToK converts Celsius to Kelvin.
func CToK(c float64) float64 { return c + 273.15 }

// Water properties. The cooling loops run roughly 15–45 °C, well within
// the validity of these single-phase liquid tables (IAPWS-IF97 at 1 atm),
// which are linearly interpolated.

var waterTempGrid = []float64{0, 10, 20, 25, 30, 40, 50, 60, 70, 80}

var waterDensityTable = []float64{
	999.84, 999.70, 998.21, 997.05, 995.65, 992.22, 988.03, 983.20, 977.76, 971.79,
}

var waterCpTable = []float64{
	4217.6, 4192.1, 4181.8, 4179.6, 4178.4, 4178.5, 4180.6, 4184.5, 4189.8, 4196.5,
}

// interpTable linearly interpolates y(x) over the shared waterTempGrid,
// clamping outside the tabulated range.
func interpTable(x float64, ys []float64) float64 {
	g := waterTempGrid
	if x <= g[0] {
		return ys[0]
	}
	if x >= g[len(g)-1] {
		return ys[len(ys)-1]
	}
	for i := 1; i < len(g); i++ {
		if x <= g[i] {
			t := (x - g[i-1]) / (g[i] - g[i-1])
			return Lerp(ys[i-1], ys[i], t)
		}
	}
	return ys[len(ys)-1]
}

// WaterDensity returns the density of liquid water in kg/m³ at temperature
// tC in °C. Table interpolation, valid 0–80 °C (clamped outside).
func WaterDensity(tC float64) float64 {
	return interpTable(tC, waterDensityTable)
}

// WaterSpecificHeat returns the isobaric specific heat capacity of liquid
// water in J/(kg·°C) at temperature tC in °C. Valid 0–80 °C (clamped).
func WaterSpecificHeat(tC float64) float64 {
	return interpTable(tC, waterCpTable)
}

// FlowForHeat inverts Eq. 7 of the paper, H = ρ·Q·ΔT·c: the volumetric
// flow rate in m³/s required to carry heat h (W) across temperature rise
// dT (°C) at bulk temperature tC.
func FlowForHeat(h, dT, tC float64) float64 {
	if dT == 0 {
		return 0
	}
	return h / (WaterDensity(tC) * dT * WaterSpecificHeat(tC))
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a (at t=0) and b (at t=1). t is not
// clamped.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
