package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("N/Min/Max = %d/%v/%v", s.N, s.Min, s.Max)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", s.Std)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, math.Mod(v, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s, err := Summarize(clean)
		if err != nil {
			return false
		}
		return s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.Median && s.Median <= s.Max &&
			s.P05 <= s.Median && s.Median <= s.P95 && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tc := range cases {
		if got := quantileSorted(vals, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantileSorted(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestRMSEMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	meas := []float64{1, 2, 7}
	rmse, err := RMSE(pred, meas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rmse-4/math.Sqrt(3)) > 1e-12 {
		t.Errorf("RMSE = %v", rmse)
	}
	mae, err := MAE(pred, meas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mae-4.0/3) > 1e-12 {
		t.Errorf("MAE = %v", mae)
	}
}

func TestRMSEAtLeastMAE(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(100)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		rmse, _ := RMSE(a, b)
		mae, _ := MAE(a, b)
		if rmse < mae-1e-12 {
			t.Fatalf("RMSE %v < MAE %v", rmse, mae)
		}
	}
}

func TestErrorsOnMismatch(t *testing.T) {
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Error("RMSE mismatch")
	}
	if _, err := MAE(nil, nil); err != ErrEmpty {
		t.Error("MAE empty")
	}
	if _, err := MAPE([]float64{1}, []float64{2, 3}); err != ErrLengthMismatch {
		t.Error("MAPE mismatch")
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Error("Pearson mismatch")
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE = %v, want 10", got)
	}
	// Zero measurements are skipped.
	got, err = MAPE([]float64{110, 5}, []float64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("MAPE with zero = %v, want 10", got)
	}
	if _, err := MAPE([]float64{1}, []float64{0}); err != ErrEmpty {
		t.Error("all-zero measured should be ErrEmpty")
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance should error")
	}
}
