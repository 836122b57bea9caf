// Package lane defines the multi-word lane vector both compiled engines
// execute over. A lane is one independent simulation context (one fault
// machine, one packed pattern); a lane vector is W consecutive 64-bit
// words, so one pass over the instruction stream carries W×64 lanes.
//
// The word count is a compile-time constant per instantiation: engines are
// generic over Word, and the supported widths {1, 4, 8} each stencil their
// own exec loop with constant-length inner loops the compiler can unroll.
// W=1 reproduces the original single-word engines bit for bit; W=4/8
// amortize the per-gate instruction decode over 256/512 lanes, which is
// the single-core multiplier the fault simulator's scheduler is built
// around. The fault simulator picks its widths itself, per session and
// per batch; no caller sets one.
//
// Masks at the scheduler level (which lanes are active, which lanes hold a
// fault) are lane vectors too, so the same FirstN/Bit helpers describe
// ragged tails at every width.
package lane

// Word is a fixed-width lane vector: W 64-bit words = W×64 lanes. Every
// generic engine instantiates once per width it runs.
type Word interface {
	[1]uint64 | [4]uint64 | [8]uint64
}

// Convenient names for the three instantiations.
type (
	W1 = [1]uint64
	W4 = [4]uint64
	W8 = [8]uint64
)

// Count returns the number of lanes a Word carries (W×64).
func Count[W Word]() int {
	var w W
	return len(w) * 64
}

// Broadcast replicates one 64-bit word across the whole vector.
func Broadcast[W Word](x uint64) W {
	var w W
	for k := 0; k < len(w); k++ {
		w[k] = x
	}
	return w
}

// Bit returns the mask selecting a single lane.
func Bit[W Word](lane int) W {
	var w W
	w[lane>>6] = 1 << uint(lane&63)
	return w
}

// FirstN returns the mask selecting the first n lanes (the ragged-tail
// mask: a batch of n < W×64 contexts leaves the remaining lanes masked
// off everywhere they are read).
func FirstN[W Word](n int) W {
	var w W
	for k := 0; k < len(w); k++ {
		switch {
		case n >= (k+1)*64:
			w[k] = ^uint64(0)
		case n > k*64:
			w[k] = uint64(1)<<uint(n-k*64) - 1
		}
	}
	return w
}

// None reports whether no lane is set.
func None[W Word](w W) bool {
	var acc uint64
	for k := 0; k < len(w); k++ {
		acc |= w[k]
	}
	return acc == 0
}

// Merge overwrites dst's masked lanes with val: dst&^mask | val. val must
// already be confined to mask (the engines construct it that way).
func Merge[W Word](dst, mask, val W) W {
	for k := 0; k < len(dst); k++ {
		dst[k] = dst[k]&^mask[k] | val[k]
	}
	return dst
}

// Or returns the lane-wise union of two masks.
func Or[W Word](a, b W) W {
	for k := 0; k < len(a); k++ {
		a[k] |= b[k]
	}
	return a
}

// AndNot clears b's lanes out of a: a &^ b. The pair-scoped fault
// clearing in netlist uses it to retire one lane pair's injections
// without touching the batches armed in the other lanes.
func AndNot[W Word](a, b W) W {
	for k := 0; k < len(a); k++ {
		a[k] &^= b[k]
	}
	return a
}
