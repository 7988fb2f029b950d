// Package weather generates the outdoor wet-bulb temperature series that
// drives the cooling-tower loop. The paper's cooling model takes the
// wet-bulb (outdoor) temperature as one of its two inputs (§III-C4,
// Table II lists it at 60 s resolution); since ORNL's weather telemetry is
// not public, we synthesize a statistically plausible East-Tennessee
// series: a seasonal sinusoid, a diurnal cycle, and mean-reverting
// (Ornstein–Uhlenbeck) weather noise, all reproducible from a seed.
package weather

import (
	"math"
	"math/rand"
	"time"
)

// Config parameterizes the synthetic wet-bulb generator. Defaults mimic
// Oak Ridge, TN: annual mean ≈ 13 °C wet-bulb with ±9 °C seasonal swing
// and ±3 °C diurnal swing.
type Config struct {
	AnnualMeanC    float64 // mean wet-bulb over the year
	SeasonalAmpC   float64 // half peak-to-peak seasonal variation
	DiurnalAmpC    float64 // half peak-to-peak daily variation
	NoiseStdC      float64 // stationary std of the OU noise
	NoiseTauHours  float64 // OU mean-reversion time constant
	ColdestDayOfYr int     // day of year of the seasonal minimum
	CoolestHour    float64 // local hour of the diurnal minimum
	Seed           int64
}

// DefaultConfig returns Oak Ridge-like parameters.
func DefaultConfig() Config {
	return Config{
		AnnualMeanC:    13.0,
		SeasonalAmpC:   9.0,
		DiurnalAmpC:    3.0,
		NoiseStdC:      2.0,
		NoiseTauHours:  18.0,
		ColdestDayOfYr: 20, // late January
		CoolestHour:    5.0,
		Seed:           1,
	}
}

// Generator produces a wet-bulb series sample by sample.
type Generator struct {
	cfg   Config
	rng   *rand.Rand
	noise float64
	init  bool
}

// NewGenerator builds a Generator with the given config.
func NewGenerator(cfg Config) *Generator {
	return &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// deterministic returns the noise-free wet-bulb at time t.
func (g *Generator) deterministic(t time.Time) float64 {
	doy := float64(t.YearDay())
	hour := float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
	seasonal := -g.cfg.SeasonalAmpC * math.Cos(2*math.Pi*(doy-float64(g.cfg.ColdestDayOfYr))/365.25)
	diurnal := -g.cfg.DiurnalAmpC * math.Cos(2*math.Pi*(hour-g.cfg.CoolestHour)/24)
	return g.cfg.AnnualMeanC + seasonal + diurnal
}

// At returns the wet-bulb temperature (°C) at time t, advancing the noise
// process by dt seconds from the previous call. The very first call
// initializes the noise at its stationary distribution.
func (g *Generator) At(t time.Time, dtSec float64) float64 {
	if !g.init {
		g.noise = g.cfg.NoiseStdC * g.rng.NormFloat64()
		g.init = true
	} else if dtSec > 0 && g.cfg.NoiseTauHours > 0 {
		tau := g.cfg.NoiseTauHours * 3600
		a := math.Exp(-dtSec / tau)
		// Exact OU discretization preserves the stationary variance.
		g.noise = a*g.noise + g.cfg.NoiseStdC*math.Sqrt(1-a*a)*g.rng.NormFloat64()
	}
	return g.deterministic(t) + g.noise
}

// Series produces n samples spaced dtSec apart starting at start.
func (g *Generator) Series(start time.Time, n int, dtSec float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.At(start.Add(time.Duration(float64(i)*dtSec*float64(time.Second))), dtSec)
	}
	return out
}
