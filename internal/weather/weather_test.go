package weather

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSeasonalShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStdC = 0 // deterministic
	g := NewGenerator(cfg)
	jan := g.At(time.Date(2024, 1, 20, 12, 0, 0, 0, time.UTC), 0)
	g2 := NewGenerator(cfg)
	jul := g2.At(time.Date(2024, 7, 21, 12, 0, 0, 0, time.UTC), 0)
	if jul-jan < 10 {
		t.Errorf("summer (%v) should be much warmer than winter (%v)", jul, jan)
	}
}

func TestDiurnalShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseStdC = 0
	g := NewGenerator(cfg)
	night := g.At(time.Date(2024, 6, 1, 5, 0, 0, 0, time.UTC), 0)
	g2 := NewGenerator(cfg)
	afternoon := g2.At(time.Date(2024, 6, 1, 17, 0, 0, 0, time.UTC), 0)
	if afternoon-night < 4 {
		t.Errorf("afternoon (%v) should exceed pre-dawn (%v) by ~2·diurnal amp", afternoon, night)
	}
}

func TestNoiseStationaryStd(t *testing.T) {
	cfg := DefaultConfig()
	g := NewGenerator(cfg)
	det := NewGenerator(Config{
		AnnualMeanC: cfg.AnnualMeanC, SeasonalAmpC: cfg.SeasonalAmpC,
		DiurnalAmpC: cfg.DiurnalAmpC, ColdestDayOfYr: cfg.ColdestDayOfYr,
		CoolestHour: cfg.CoolestHour, Seed: 2,
	})
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	n := 50000
	dt := 3600.0
	noisy := g.Series(start, n, dt)
	clean := det.Series(start, n, dt)
	var sum, sumSq float64
	for i := range noisy {
		d := noisy[i] - clean[i]
		sum += d
		sumSq += d * d
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Errorf("noise mean = %v, want ≈0", mean)
	}
	if math.Abs(std-cfg.NoiseStdC) > 0.3 {
		t.Errorf("noise std = %v, want ≈%v", std, cfg.NoiseStdC)
	}
}

func TestReproducibility(t *testing.T) {
	start := time.Date(2024, 4, 7, 0, 0, 0, 0, time.UTC)
	a := NewGenerator(DefaultConfig()).Series(start, 100, 60)
	b := NewGenerator(DefaultConfig()).Series(start, 100, 60)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the series")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 99
	c := NewGenerator(cfg).Series(start, 100, 60)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestPhysicalRange(t *testing.T) {
	g := NewGenerator(DefaultConfig())
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	series := g.Series(start, 24*365, 3600)
	for i, v := range series {
		if v < -25 || v > 40 {
			t.Fatalf("sample %d = %v °C outside plausible wet-bulb range", i, v)
		}
	}
}

// TestSourceIsPureAndMatchesGenerator: a Source returns the same value
// at t whatever the query order, with repeats and backward jumps, and on
// the 15 s grid it equals a Generator queried in order from t = 15 s.
func TestSourceIsPureAndMatchesGenerator(t *testing.T) {
	start := time.Date(2024, 4, 7, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		rng := rand.New(rand.NewSource(seed))
		const steps = 400
		gen := NewGenerator(cfg)
		want := make(map[float64]float64)
		for k := 1; k <= steps; k++ {
			tSec := float64(k) * stepSec
			want[tSec] = gen.At(start.Add(time.Duration(tSec*float64(time.Second))), stepSec)
		}
		// Off-grid times and the span before the first step, taken in
		// order from a fresh Source.
		times := make([]float64, 0, 2*steps)
		for tSec := range want {
			times = append(times, tSec)
		}
		for i := 0; i < steps; i++ {
			times = append(times, rng.Float64()*steps*stepSec)
		}
		ref := NewSource(cfg, start)
		for _, tSec := range times {
			if _, ok := want[tSec]; !ok {
				want[tSec] = NewSource(cfg, start).At(tSec)
			}
			if got := ref.At(tSec); got != want[tSec] {
				t.Fatalf("seed %d: At(%v) = %v, want %v", seed, tSec, got, want[tSec])
			}
		}
		// Shuffled, with repeats, on one cursor.
		src := NewSource(cfg, start)
		for i := 0; i < 3*len(times); i++ {
			tSec := times[rng.Intn(len(times))]
			if got := src.At(tSec); got != want[tSec] {
				t.Fatalf("seed %d: query %d At(%v) = %v, want %v", seed, i, tSec, got, want[tSec])
			}
		}
	}
}

// TestSourceFarQueryIsBounded: a query years into the run walks at most
// one noise epoch, and stays pure across the epoch boundary.
func TestSourceFarQueryIsBounded(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	src := NewSource(DefaultConfig(), start)
	for _, tSec := range []float64{1e15, 5e9, epochSteps * stepSec, epochSteps*stepSec + stepSec, 15} {
		got := src.At(tSec)
		if want := NewSource(DefaultConfig(), start).At(tSec); got != want {
			t.Fatalf("At(%v) = %v, fresh source says %v", tSec, got, want)
		}
		if math.IsNaN(got) {
			t.Fatalf("At(%v) is NaN", tSec)
		}
	}
}
