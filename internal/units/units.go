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

var waterTempGrid = [...]float64{0, 10, 20, 25, 30, 40, 50, 60, 70, 80}

var waterDensityTable = [...]float64{
	999.84, 999.70, 998.21, 997.05, 995.65, 992.22, 988.03, 983.20, 977.76, 971.79,
}

var waterCpTable = [...]float64{
	4217.6, 4192.1, 4181.8, 4179.6, 4178.4, 4178.5, 4180.6, 4184.5, 4189.8, 4196.5,
}

// waterSegOfDegree[d], for each whole degree d of the grid's 0–80 °C span,
// is the grid segment i, g[i-1] ≤ d < g[i], that holds the open degree
// (d, d+1). The grid points are whole degrees, so no segment boundary
// falls inside a degree.
var waterSegOfDegree = func() (seg [80]uint8) {
	i := 1
	for d := range seg {
		for float64(d) >= waterTempGrid[i] {
			i++
		}
		seg[d] = uint8(i)
	}
	return seg
}()

// WaterProps returns the density (kg/m³) and isobaric specific heat
// (J/(kg·°C)) of liquid water at temperature tC in °C, from one lookup of
// the temperature's grid segment. Table interpolation, valid 0–80 °C and
// clamped outside; NaN reads the 80 °C values. A temperature on a grid
// point g[i] interpolates segment i at t = 1, not segment i+1 at t = 0:
// the two can differ in the last bit.
func WaterProps(tC float64) (rho, cp float64) {
	g := &waterTempGrid
	if tC <= g[0] {
		return waterDensityTable[0], waterCpTable[0]
	}
	if !(tC < g[len(g)-1]) {
		return waterDensityTable[len(g)-1], waterCpTable[len(g)-1]
	}
	i, t := waterSegment(tC)
	return Lerp(waterDensityTable[i-1], waterDensityTable[i], t),
		Lerp(waterCpTable[i-1], waterCpTable[i], t)
}

// waterSegment returns the grid segment i of a temperature inside the
// grid, g[0] < tC < g[len(g)-1], and its fraction t ∈ (0, 1] of the way
// from g[i-1] to g[i].
func waterSegment(tC float64) (i int, t float64) {
	g := &waterTempGrid
	i = int(waterSegOfDegree[int(tC)])
	if tC <= g[i-1] { // tC is the grid point g[i-1] itself
		i--
	}
	return i, (tC - g[i-1]) / (g[i] - g[i-1])
}

// WaterDensity returns WaterProps' density alone.
func WaterDensity(tC float64) float64 {
	rho, _ := WaterProps(tC)
	return rho
}

// WaterSpecificHeat returns WaterProps' specific heat alone.
func WaterSpecificHeat(tC float64) float64 {
	_, cp := WaterProps(tC)
	return cp
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
