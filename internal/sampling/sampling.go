// Package sampling implements mutant sampling strategies: the classical
// uniform-random x% sample (Offutt & Untch's "Mutation 2000" baseline the
// paper compares against) and the paper's contribution, test-oriented
// sampling, which draws from each mutation operator's class in proportion
// to that operator's measured stuck-at fault-coverage efficiency.
//
// Both strategies extract exactly the same number of mutants, so any
// difference in downstream mutation score or NLFCE is attributable to the
// allocation alone.
package sampling

import (
	"math/rand"
	"sort"

	"repro/internal/mutation"
)

// SampleSize converts a fraction into the mutant count both strategies
// draw: round(frac*M), at least 1 when M > 0.
func SampleSize(total int, frac float64) int {
	if total == 0 {
		return 0
	}
	n := int(frac*float64(total) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > total {
		n = total
	}
	return n
}

// Random draws a uniform sample of n mutants (the classical strategy).
// The draw is deterministic for a given seed.
func Random(ms []*mutation.Mutant, n int, seed int64) []*mutation.Mutant {
	if n >= len(ms) {
		return append([]*mutation.Mutant(nil), ms...)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(ms))[:n]
	sort.Ints(idx)
	out := make([]*mutation.Mutant, n)
	for i, j := range idx {
		out[i] = ms[j]
	}
	return out
}

// Weights maps each operator to a non-negative sampling weight. The
// test-oriented strategy derives them from per-operator NLFCE profiles
// (see core.DeriveWeights); any non-negative figure of merit works.
type Weights map[mutation.Operator]float64

// Weighted draws n mutants with per-class sampling rates proportional to
// the class weights — "the proportion of mutants selected from each
// operator is function of its efficiency" — so a class's share is
// weight(op) × |class(op)| (largest-remainder apportionment, capped by
// class size, deficits redistributed), then uniform within each class.
// With equal weights the allocation reduces to the random strategy's
// expected composition. If all applicable weights are zero the allocation
// degenerates the same way.
func Weighted(ms []*mutation.Mutant, n int, w Weights, seed int64) []*mutation.Mutant {
	if n >= len(ms) {
		return append([]*mutation.Mutant(nil), ms...)
	}
	classes := mutation.ByOperator(ms)
	ops := make([]mutation.Operator, 0, len(classes))
	for op := range classes {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	totalW := 0.0
	for _, op := range ops {
		if w[op] > 0 {
			totalW += w[op]
		}
	}
	// A class's apportionment mass is weight × size: the weight acts as a
	// per-class sampling *rate* multiplier.
	weightOf := func(op mutation.Operator) float64 {
		if totalW == 0 {
			return float64(len(classes[op])) // degenerate: rate-uniform
		}
		return w[op] * float64(len(classes[op]))
	}

	// Largest-remainder apportionment with per-class capacity caps.
	alloc := make(map[mutation.Operator]int, len(ops))
	type frac struct {
		op  mutation.Operator
		rem float64
	}
	sumW := 0.0
	for _, op := range ops {
		sumW += weightOf(op)
	}
	var fracs []frac
	assigned := 0
	for _, op := range ops {
		share := 0.0
		if sumW > 0 {
			share = float64(n) * weightOf(op) / sumW
		}
		base := int(share)
		if base > len(classes[op]) {
			base = len(classes[op])
		}
		alloc[op] = base
		assigned += base
		fracs = append(fracs, frac{op: op, rem: share - float64(base)})
	}
	sort.SliceStable(fracs, func(i, j int) bool { return fracs[i].rem > fracs[j].rem })
	for assigned < n {
		progress := false
		for _, f := range fracs {
			if assigned == n {
				break
			}
			if alloc[f.op] < len(classes[f.op]) {
				alloc[f.op]++
				assigned++
				progress = true
			}
		}
		if !progress {
			break // every class exhausted (n > total, guarded above)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	var out []*mutation.Mutant
	for _, op := range ops {
		class := classes[op]
		k := alloc[op]
		if k >= len(class) {
			out = append(out, class...)
			continue
		}
		idx := rng.Perm(len(class))[:k]
		sort.Ints(idx)
		for _, j := range idx {
			out = append(out, class[j])
		}
	}
	return out
}
