package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCompareBasic(t *testing.T) {
	// Mutation: 3 patterns reaching 0.9; random reaches 0.6 by pattern 3
	// and 0.9 only at pattern 10.
	mut := []float64{0.5, 0.8, 0.9}
	rnd := []float64{0.2, 0.4, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.88, 0.9, 0.9, 0.9}
	e := Compare(mut, rnd)
	if !almostEq(e.MFC, 0.9) || !almostEq(e.RFC, 0.6) {
		t.Fatalf("MFC/RFC = %v/%v", e.MFC, e.RFC)
	}
	if !almostEq(e.DeltaFCPts, 30) {
		t.Errorf("ΔFC = %v, want 30", e.DeltaFCPts)
	}
	if e.LMut != 3 || e.LRand != 10 {
		t.Errorf("LMut/LRand = %d/%d", e.LMut, e.LRand)
	}
	if !almostEq(e.DeltaLPct, 70) {
		t.Errorf("ΔL = %v, want 70", e.DeltaLPct)
	}
	if !almostEq(e.NLFCE, 2100) {
		t.Errorf("NLFCE = %v, want 2100", e.NLFCE)
	}
	if e.RandomSaturated {
		t.Error("saturated flag set although random reached MFC")
	}
}

func TestCompareRandomNeverReaches(t *testing.T) {
	mut := []float64{0.7, 0.95}
	rnd := []float64{0.1, 0.2, 0.3, 0.4}
	e := Compare(mut, rnd)
	if !e.RandomSaturated {
		t.Error("saturation not flagged")
	}
	if e.LRand != 4 {
		t.Errorf("LRand = %d, want horizon 4", e.LRand)
	}
	if e.DeltaLPct <= 0 {
		t.Errorf("ΔL = %v, want positive lower bound", e.DeltaLPct)
	}
}

func TestCompareMutationWorseThanRandom(t *testing.T) {
	// A bad "mutation" sequence: NLFCE must come out non-positive.
	mut := []float64{0.1, 0.2}
	rnd := []float64{0.3, 0.5, 0.6}
	e := Compare(mut, rnd)
	if e.DeltaFCPts >= 0 {
		t.Errorf("ΔFC = %v, want negative", e.DeltaFCPts)
	}
	// Random reaches 0.2 at its first pattern: LRand=1 < LMut=2.
	if e.DeltaLPct >= 0 {
		t.Errorf("ΔL = %v, want negative", e.DeltaLPct)
	}
	// Negative × negative is positive: the composite metric is only
	// meaningful when mutation wins at least one axis, which Table 1
	// guards by reporting ΔFC and ΔL alongside.
}

func TestCompareEmpty(t *testing.T) {
	if e := Compare(nil, nil); e.NLFCE != 0 || e.LMut != 0 {
		t.Errorf("empty compare = %+v", e)
	}
}

func TestLengthToReach(t *testing.T) {
	c := []float64{0.1, 0.5, 0.7}
	if got := LengthToReach(c, 0.5); got != 2 {
		t.Errorf("LengthToReach(0.5) = %d", got)
	}
	if got := LengthToReach(c, 0.9); got != -1 {
		t.Errorf("LengthToReach(0.9) = %d", got)
	}
	if got := LengthToReach(c, 0.0); got != 1 {
		t.Errorf("LengthToReach(0) = %d", got)
	}
}

// Property: NLFCE always equals the product of its factors, and LRand is
// minimal (no shorter prefix of the random curve reaches MFC).
func TestPropCompareConsistency(t *testing.T) {
	f := func(mutRaw, rndRaw []uint8) bool {
		if len(mutRaw) == 0 || len(rndRaw) == 0 {
			return true
		}
		// Build monotone curves in [0,1].
		mkCurve := func(raw []uint8) []float64 {
			c := make([]float64, len(raw))
			acc := 0.0
			for i, r := range raw {
				acc += float64(r%16) / 256.0
				if acc > 1 {
					acc = 1
				}
				c[i] = acc
			}
			return c
		}
		mut, rnd := mkCurve(mutRaw), mkCurve(rndRaw)
		e := Compare(mut, rnd)
		if !almostEq(e.NLFCE, e.DeltaFCPts*e.DeltaLPct) {
			return false
		}
		if !e.RandomSaturated {
			if rnd[e.LRand-1] < e.MFC {
				return false
			}
			if e.LRand >= 2 && rnd[e.LRand-2] >= e.MFC {
				return false // not minimal
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
