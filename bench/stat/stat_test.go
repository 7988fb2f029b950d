package stat

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.9: 4.6, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); !near(got, want) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 4 {
		t.Error("Quantile sorted its input in place")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, ok := Percentile(xs, 99)
	if !ok || !near(v, 989.01) {
		t.Errorf("p99 of 0..999 = %v, %v; want 989.01, true", v, ok)
	}
	if _, ok := Percentile(xs[:900], 99); ok {
		t.Error("p99 of 900 samples has only 9 beyond it")
	}
	if _, ok := Percentile(xs[:100], 90); !ok {
		t.Error("p90 of 100 samples has exactly 10 beyond it")
	}
	if _, ok := Percentile(xs[:90], 90); ok {
		t.Error("p90 of 90 samples has only 9 beyond it")
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("no percentile of an empty sample")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2, 4, 4, 4, 5, 5, 7, 9}, 4, 4.5, 6.5},
	}
	for _, c := range cases {
		q1, m, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := RelIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("RelIQR = %v, want 1", got)
	}
}

func TestPairWins(t *testing.T) {
	a := []float64{10, 10, 10, 10}
	b := []float64{9, 11, 10, 8, 1}
	w, l, n := PairWins(a, b, true)
	if w != 2 || l != 1 || n != 4 {
		t.Errorf("lower-better: wins %d losses %d n %d, want 2 1 4", w, l, n)
	}
	w, l, n = PairWins(a, b, false)
	if w != 1 || l != 2 || n != 4 {
		t.Errorf("higher-better: wins %d losses %d n %d, want 1 2 4", w, l, n)
	}
}
