// Package stat holds the order statistics the benchmark reports: sample
// quantiles, the tail-percentile sample-count rule and run-to-run spread.
package stat

import (
	"math"
	"sort"
)

// MinBeyond is the number of samples that must lie beyond a tail
// percentile before it is reported: fewer, and the "tail" is one or two
// stray operations.
const MinBeyond = 10

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between the closest ranks. sorted must be ascending and
// non-empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median sorts xs in place and returns its median; 0 for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return Quantile(xs, 0.5)
}

// TailOK reports whether the q-quantile of n samples has at least
// MinBeyond samples beyond it, so that it may be reported.
func TailOK(n int, q float64) bool {
	beyond := float64(n) * (1 - q)
	return beyond >= MinBeyond-1e-9
}

// Tail returns the q-quantile of xs (sorted in place) and whether the
// sample count allows reporting it (see TailOK).
func Tail(xs []float64, q float64) (float64, bool) {
	if !TailOK(len(xs), q) {
		return 0, false
	}
	sort.Float64s(xs)
	return Quantile(xs, q), true
}

// Quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (its default "exclusive" method, which
// extrapolates past the data for very small samples), the form the
// benchmark's acceptance rule is stated in. xs is sorted in place and
// needs at least one sample.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	if ld == 1 {
		return xs[0], xs[0], xs[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// Spread is the interquartile distance of xs as a share of its median;
// 0 when the median is 0. xs is sorted in place.
func Spread(xs []float64) float64 {
	q1, med, q3 := Quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
