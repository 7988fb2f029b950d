// Package stat holds the order statistics the benchmark reports and the
// paired-run rule its comparison tool applies.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is noise, not a measurement.
const MinBeyond = 10

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified. It
// returns NaN for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Percentile returns the p-th percentile of xs and true when at least
// MinBeyond samples lie above it; otherwise it returns false and the
// caller reports a lower percentile or none.
func Percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	// Samples above the interpolation position: indexes floor(pos)+1..n-1.
	pos := p / 100 * float64(n-1)
	if n-1-int(math.Floor(pos)) < MinBeyond {
		return 0, false
	}
	return Quantile(xs, p/100), true
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads computed here match the ones an acceptance script computes
// from the same values.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// The same integer arithmetic as CPython's _quantiles_exclusive,
		// including its clamp (which extrapolates on tiny samples).
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// RelIQR is the distance between the quartiles of xs as a share of its
// median — the run-to-run spread a bound is checked against.
func RelIQR(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// PairWins counts the pairs (a[i], b[i]) where b is better than a:
// lower when lowerBetter, higher otherwise. Ties count for neither side.
// Pairs beyond the shorter slice are ignored; n is the pairs compared.
func PairWins(a, b []float64, lowerBetter bool) (wins, losses, n int) {
	n = len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] == b[i]:
		case (b[i] < a[i]) == lowerBetter:
			wins++
		default:
			losses++
		}
	}
	return wins, losses, n
}
