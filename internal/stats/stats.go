// Package stats implements the descriptive statistics and error metrics
// used in the paper's verification-and-validation section (§IV): RMSE,
// MAE and MAPE between model predictions and telemetry (Fig. 7),
// min/avg/max/std and percentile summaries (Table IV), and correlation.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by metrics that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// ErrLengthMismatch is returned when paired series differ in length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// Summary holds the Table IV-style descriptive statistics of a sample.
type Summary struct {
	N         int
	Min, Max  float64
	Mean, Std float64
	Sum       float64
	Median    float64
	P05, P95  float64
}

// Summarize computes a Summary of vals. Returns ErrEmpty for no data.
func Summarize(vals []float64) (Summary, error) {
	var s Summary
	if len(vals) == 0 {
		return s, ErrEmpty
	}
	s.N = len(vals)
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals {
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.N)
	for _, v := range vals {
		d := v - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(s.N))
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.P05 = quantileSorted(sorted, 0.05)
	s.P95 = quantileSorted(sorted, 0.95)
	return s, nil
}

// Mean returns the arithmetic mean, or 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// quantileSorted returns the q-quantile (0 ≤ q ≤ 1) of sorted with linear
// interpolation between order statistics.
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// RMSE returns the root-mean-square error between predicted and measured.
func RMSE(pred, meas []float64) (float64, error) {
	if len(pred) != len(meas) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - meas[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred))), nil
}

// MAE returns the mean absolute error between predicted and measured.
func MAE(pred, meas []float64) (float64, error) {
	if len(pred) != len(meas) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - meas[i])
	}
	return s / float64(len(pred)), nil
}

// MAPE returns the mean absolute percentage error (in percent) between
// predicted and measured, skipping points where measured is zero.
func MAPE(pred, meas []float64) (float64, error) {
	if len(pred) != len(meas) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s, n := 0.0, 0
	for i := range pred {
		if meas[i] == 0 {
			continue
		}
		s += math.Abs((pred[i] - meas[i]) / meas[i])
		n++
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	return 100 * s / float64(n), nil
}

// Pearson returns the Pearson correlation coefficient of x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	den := math.Sqrt(sxx * syy)
	if den == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / den, nil
}
