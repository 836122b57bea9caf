// Package metrics computes the paper's evaluation metrics from fault
// coverage curves. The paper defines, for a mutation-derived test sequence
// and a pseudo-random reference of the same circuit:
//
//   - MFC — Mutation Fault Coverage: stuck-at coverage reached by the
//     validation data,
//   - RFC — Random Fault Coverage: coverage reached by pseudo-random data,
//   - ΔFC% — relative fault-coverage gain at equal sequence length,
//   - ΔL%  — relative length gain to reach the same coverage,
//   - NLFCE — the Non-Linear Fault Coverage Efficiency, ΔFC% · ΔL%.
//
// NLFCE is "non-linear" because late coverage points are exponentially
// harder to reach: weighting the coverage gain by the length gain rewards
// sequences that climb the hard tail of the curve quickly.
package metrics

import "fmt"

// Efficiency is the per-comparison metric bundle of the paper's Table 1.
type Efficiency struct {
	// MFC is the mutation-data fault coverage at LMut, in [0,1].
	MFC float64
	// RFC is the random-data fault coverage at the same length LMut.
	RFC float64
	// DeltaFCPts is (MFC - RFC) in percentage points at equal length.
	DeltaFCPts float64
	// DeltaLPct is the relative length gain: 100 * (LRand - LMut) / LRand,
	// where LRand is the random-sequence length needed to reach MFC.
	DeltaLPct float64
	// NLFCE = DeltaFCPts * DeltaLPct.
	NLFCE float64
	// LMut is the mutation sequence length (patterns or cycles).
	LMut int
	// LRand is the random length that reaches MFC, or the random horizon
	// if it never does (then RandomSaturated is true and DeltaLPct is a
	// lower bound).
	LRand int
	// RandomSaturated reports that the random curve never reached MFC
	// within its horizon.
	RandomSaturated bool
}

func (e Efficiency) String() string {
	sat := ""
	if e.RandomSaturated {
		sat = " (random horizon exhausted)"
	}
	return fmt.Sprintf("MFC %.2f%% RFC %.2f%% ΔFC %.2fpt ΔL %.2f%% NLFCE %+.1f%s",
		100*e.MFC, 100*e.RFC, e.DeltaFCPts, e.DeltaLPct, e.NLFCE, sat)
}

// Compare derives the paper's efficiency metrics from two fault-coverage
// curves: mutCurve from the mutation-derived sequence (its length defines
// LMut) and randCurve from a pseudo-random sequence whose horizon should
// comfortably exceed LMut. Curves are cumulative coverages in [0,1], one
// entry per applied pattern/cycle, as produced by faultsim.Result.Curve.
func Compare(mutCurve, randCurve []float64) Efficiency {
	var e Efficiency
	if len(mutCurve) == 0 || len(randCurve) == 0 {
		return e
	}
	e.LMut = len(mutCurve)
	e.MFC = mutCurve[len(mutCurve)-1]

	// RFC at equal length: the random curve clipped to LMut.
	rfcIdx := min(e.LMut, len(randCurve)) - 1
	e.RFC = randCurve[rfcIdx]
	e.DeltaFCPts = 100 * (e.MFC - e.RFC)

	// Random length needed to reach MFC.
	e.LRand = LengthToReach(randCurve, e.MFC)
	if e.LRand < 0 {
		e.LRand = len(randCurve)
		e.RandomSaturated = true
	}
	if e.LRand > 0 {
		e.DeltaLPct = 100 * float64(e.LRand-e.LMut) / float64(e.LRand)
	}
	e.NLFCE = e.DeltaFCPts * e.DeltaLPct
	return e
}

// LengthToReach returns the shortest prefix length of the curve reaching
// target coverage, or -1 if it never does.
func LengthToReach(curve []float64, target float64) int {
	for i, c := range curve {
		if c >= target {
			return i + 1
		}
	}
	return -1
}
