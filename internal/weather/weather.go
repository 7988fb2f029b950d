// Package weather generates the outdoor wet-bulb temperature series that
// drives the cooling-tower loop. The paper's cooling model takes the
// wet-bulb (outdoor) temperature as one of its two inputs (§III-C4,
// Table II lists it at 60 s resolution); since ORNL's weather telemetry is
// not public, we synthesize a statistically plausible East-Tennessee
// series: a seasonal sinusoid, a diurnal cycle, and mean-reverting
// (Ornstein–Uhlenbeck) weather noise, all reproducible from a seed.
// Source serves that series as a pure function of simulation time, the
// form a twin run reads it in.
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
	g.advance(dtSec)
	return g.deterministic(t) + g.noise
}

// advance draws the noise dtSec seconds on from the previous draw; the
// first draw is stationary.
func (g *Generator) advance(dtSec float64) {
	if !g.init {
		g.noise = g.cfg.NoiseStdC * g.rng.NormFloat64()
		g.init = true
	} else if dtSec > 0 && g.cfg.NoiseTauHours > 0 {
		tau := g.cfg.NoiseTauHours * 3600
		a := math.Exp(-dtSec / tau)
		// Exact OU discretization preserves the stationary variance.
		g.noise = a*g.noise + g.cfg.NoiseStdC*math.Sqrt(1-a*a)*g.rng.NormFloat64()
	}
}

// Series produces n samples spaced dtSec apart starting at start.
func (g *Generator) Series(start time.Time, n int, dtSec float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.At(start.Add(time.Duration(float64(i)*dtSec*float64(time.Second))), dtSec)
	}
	return out
}

const (
	// stepSec is Source's noise grid: one OU draw per 15 s step, the
	// cooling coupling's period.
	stepSec = 15.0
	// epochSteps bounds what one query costs: every 2^21 steps (about
	// 364 days) the noise restarts from a stationary draw under a seed
	// derived from the epoch, so a cursor never walks past one epoch.
	epochSteps = 1 << 21
)

// Source is a scenario's wet-bulb series as a pure function of
// simulation time: every reader — the cooling coupling, a telemetry
// stream, an export after the run — sees the same value at t, in any
// query order. Step k (covering [15k, 15k+15) s) carries the k-th noise
// draw of a Generator stepped 15 s at a time, so queries at 15, 30, …
// return exactly what a Generator queried in order at those times
// returns. Times before 15 s read step 1, the stationary first draw. A
// forward cursor holds the current draw; a query behind it replays its
// epoch from the seed, so memory stays O(1). A Source is not safe for
// concurrent use.
type Source struct {
	cfg   Config
	start time.Time
	gen   *Generator
	epoch int64 // epoch gen draws for
	drawn int64 // draws gen has taken in its epoch
}

// NewSource builds the wet-bulb series of cfg with simulation time 0 at
// start.
func NewSource(cfg Config, start time.Time) *Source {
	return &Source{cfg: cfg, start: start}
}

// At returns the wet-bulb temperature (°C) tSec seconds after start.
func (s *Source) At(tSec float64) float64 {
	// The microsecond slack keeps a simulation clock summed from
	// fractional ticks on the grid step it means.
	k := math.Floor((tSec + 1e-6) / stepSec)
	if !(k >= 1) {
		k = 1
	}
	n := int64(math.Min(k, 1<<62)) - 1
	epoch, draws := n/epochSteps, n%epochSteps+1
	if s.gen == nil || epoch != s.epoch || draws < s.drawn {
		cfg := s.cfg
		cfg.Seed += epoch * 0x5851F42D4C957F2D
		s.gen, s.epoch, s.drawn = NewGenerator(cfg), epoch, 0
	}
	for ; s.drawn < draws; s.drawn++ {
		s.gen.advance(stepSec)
	}
	return s.gen.deterministic(s.start.Add(time.Duration(tSec*float64(time.Second)))) + s.gen.noise
}
