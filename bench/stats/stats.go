// Package stats holds the order statistics the benchmark reports and
// the comparison tool judges with.
package stats

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 <= p <= 100)
// of xs: the smallest sample with at least p% of the samples at or below
// it, so p = 0 gives the smallest sample. It returns 0 for an empty
// slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100*n (99.9% of 10000 is not
	// exactly 9990 in binary) from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentiles are the percentiles a latency may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// TailPercentile returns the highest of p99.9, p99, p90 and p50 that
// has at least ten of n samples beyond its nearest rank, or 0 when even
// the median has fewer.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// Quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// the method the benchmark's run-to-run spread is judged by. A single
// sample is its own quartiles; no samples give zeros.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// Median is the middle quartile of xs.
func Median(xs []float64) float64 {
	_, m, _ := Quartiles(xs)
	return m
}
