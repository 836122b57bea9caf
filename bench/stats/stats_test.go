package stats

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the textbook nearest-rank example
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 15}, {5, 15}, {10, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// Input order must not matter and the input must not be reordered.
	ys := []float64{3, 1, 2}
	if got := Percentile(ys, 50); got != 2 || ys[0] != 3 {
		t.Errorf("p50 of unsorted = %v (input now %v)", got, ys)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // p50 is rank 10: 9 beyond
		{20, 50},   // p50 is rank 10: 10 beyond
		{99, 50},   // p90 is rank 90: 9 beyond
		{100, 90},  // p90 is rank 90: 10 beyond
		{999, 90},  // p99 is rank 990: 9 beyond
		{1000, 99}, // p99 is rank 990: 10 beyond
		{9999, 99},
		{10000, 99.9},
	} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}
