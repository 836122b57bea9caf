package faultsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/lane"
)

// TestPlanSeqChunksWidths pins the sequential batch plan by fault
// count: W=8 batches while 512 faults remain, then the cheapest tail —
// W1 up to 64 faults, W4 up to 256, W8 above. The named circuits are
// the paper's sequential benchmarks at their collapsed fault counts.
func TestPlanSeqChunksWidths(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{0, nil},
		{40, []int{1}},
		{64, []int{1}},
		{65, []int{4}},
		{100, []int{4}},
		{158, []int{4}}, // b02
		{207, []int{4}}, // b06
		{256, []int{4}},
		{257, []int{8}},
		{506, []int{8}}, // b01
		{512, []int{8}},
		{513, []int{8, 1}},
		{567, []int{8, 1}},     // b03
		{1077, []int{8, 8, 1}}, // b04
	} {
		var s Simulator
		var got []int
		lo := 0
		for _, c := range s.planSeqChunks(tc.n) {
			if c.lo != lo || c.hi <= c.lo || c.hi-c.lo > c.words*64 {
				t.Errorf("n=%d: chunk [%d,%d) at W%d does not continue from %d", tc.n, c.lo, c.hi, c.words, lo)
			}
			lo = c.hi
			got = append(got, c.words)
		}
		if lo != tc.n || !slices.Equal(got, tc.want) {
			t.Errorf("n=%d: planned widths %v covering %d faults, want %v", tc.n, got, lo, tc.want)
		}
	}
}

// raggedSizes enumerates the batch sizes that stress lane masking at lane
// width W: empty, single, around the first word boundary, and around the
// first and second full-vector boundaries W×64±1 and 2·W×64±1, clipped to
// the available count.
func raggedSizes(W, avail int) []int {
	L := W * 64
	cand := []int{0, 1, 63, 64, 65, L - 1, L, L + 1, 2*L - 1, 2 * L, 2*L + 1}
	var out []int
	seen := make(map[int]bool)
	for _, n := range cand {
		if n < 0 || n > avail || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// runOnAt is RunOn with the planner bypassed: the include list is carved
// into batches of one forced width, the last one ragged. The planner
// never fills a wide batch with a few faults, but fault dropping and
// Retire empty its lanes one by one, so masking must hold at every width
// and fill level. The session's one Append is one window, and re-planning
// acts only between windows, so the forced plan runs as built.
func runOnAt(s *Simulator, words int, tests []Pattern, include []int) (*Result, error) {
	s.resetTo(append([]int(nil), include...))
	for _, b := range s.batches {
		b.recycle(s)
	}
	s.batches = s.batches[:0]
	for lo := 0; lo < len(s.live); lo += words * 64 {
		f := s.live[lo:min(lo+words*64, len(s.live))]
		switch words {
		case 4:
			s.batches = append(s.batches, newBatch[lane.W4](s, f))
		case 8:
			s.batches = append(s.batches, newBatch[lane.W8](s, f))
		default:
			s.batches = append(s.batches, newBatch[lane.W1](s, f))
		}
	}
	res, err := s.Append(tests)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// TestRaggedTailFaultBatches pins per-lane masking on ragged fault
// batches: RunOn with 0, 1, 63, 64, 65 and around W×64 and 2·W×64
// faults must reproduce the serial reference exactly, on a sequential
// netlist whose fault list spills past the widest vector. The W=<width>
// subtests force every batch to that width (runOnAt); the planned/
// subtests run the planner's own mixed-width plans (see
// TestPlanSeqChunksWidths): up to 64 faults on a W1 batch, 65–256 on a
// W4, 257–512 on a W8, and 513 on a W8 plus a one-lane W1 tail.
func TestRaggedTailFaultBatches(t *testing.T) {
	nl := randomParityNetlist(t, 99, 4, 420)
	tests := randPatterns(len(nl.PIs), 24, 5)

	ref, err := Config{Options: engine.Options{Workers: 1}}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	nFaults := len(ref.Faults())
	if nFaults <= 8*64 {
		t.Fatalf("want > %d collapsed faults to overflow the widest vector, got %d", 8*64, nFaults)
	}
	s, err := Config{Options: engine.Options{Workers: 2}}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// check runs n strided faults through run and compares each fault's
	// first detection with the reference.
	check := func(t *testing.T, n int, run func(include []int) (*Result, error)) {
		// Strided include set: the batch spans the fault list, so
		// lanes carry unrelated sites rather than one gate's cluster.
		stride := nFaults / (n + 1)
		if stride == 0 {
			stride = 1
		}
		include := make([]int, 0, n)
		for i := 0; len(include) < n; i++ {
			include = append(include, (i*stride+i)%nFaults)
		}
		seen := make(map[int]bool)
		for i, fi := range include {
			for seen[fi] {
				fi = (fi + 1) % nFaults
			}
			include[i] = fi
			seen[fi] = true
		}
		want, err := ref.RunOn(tests, include)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(include)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.FirstDetected {
			if got.FirstDetected[i] != want.FirstDetected[i] {
				t.Errorf("fault %d: detected at %d, reference %d",
					i, got.FirstDetected[i], want.FirstDetected[i])
			}
		}
	}
	for _, W := range []int{1, 4, 8} {
		for _, n := range raggedSizes(W, nFaults) {
			t.Run(fmt.Sprintf("W=%d/n=%d", W, n), func(t *testing.T) {
				check(t, n, func(include []int) (*Result, error) {
					return runOnAt(s, W, tests, include)
				})
			})
		}
	}
	for _, n := range []int{1, 63, 64, 65, 255, 256, 257, 511, 512, 513} {
		t.Run(fmt.Sprintf("planned/n=%d", n), func(t *testing.T) {
			check(t, n, func(include []int) (*Result, error) {
				return s.RunOn(tests, include)
			})
		})
	}
}

// TestRaggedTailPatternBatches pins the pattern-parallel tail mask on
// combinational circuits: test-set lengths around the word boundary and
// the first and second 64·W-pattern boundaries for W = 1, 4 and 8 must
// match the reference profile (a pattern past the tail mask must never
// count as a detection). Combinational sessions pack every length into
// 64-pattern batches, so the wider boundaries pin windows of up to 17
// batches whose last one is ragged.
func TestRaggedTailPatternBatches(t *testing.T) {
	nl := randomParityNetlist(t, 104, 0, 120)
	ref, err := Config{Options: engine.Options{Workers: 1}}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Config{}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, W := range []int{1, 4, 8} {
		for _, n := range raggedSizes(W, 1<<30) {
			if n == 0 {
				continue // Run with zero patterns detects nothing everywhere
			}
			t.Run(fmt.Sprintf("W=%d/patterns=%d", W, n), func(t *testing.T) {
				tests := randPatterns(len(nl.PIs), n, int64(n))
				want, err := ref.Run(tests)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Run(tests)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.FirstDetected {
					if got.FirstDetected[i] != want.FirstDetected[i] {
						t.Errorf("fault %d: detected at %d, reference %d",
							i, got.FirstDetected[i], want.FirstDetected[i])
					}
				}
			})
		}
	}
}

// TestRunOnEmptyAndSingle pins the degenerate include sets: a non-nil
// empty include simulates nothing (all -1), and a single-element include
// touches exactly that fault, on both engines.
func TestRunOnEmptyAndSingle(t *testing.T) {
	nl := randomParityNetlist(t, 2, 2, 25)
	tests := randPatterns(len(nl.PIs), 40, 9)
	ref, err := Config{Options: engine.Options{Workers: 1}}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	refAll, err := ref.Run(tests)
	if err != nil {
		t.Fatal(err)
	}
	// A fault the sequence actually detects makes the single-element case
	// meaningful.
	target := -1
	for i, d := range refAll.FirstDetected {
		if d >= 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no detected fault to single out")
	}
	for _, cfg := range []Config{cfgOf(1), cfgOf(0)} {
		label := labelOf(cfg)
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := s.RunOn(tests, []int{})
		if err != nil {
			t.Fatalf("%s: empty include: %v", label, err)
		}
		for i, d := range empty.FirstDetected {
			if d != -1 {
				t.Errorf("%s: empty include detected fault %d at %d", label, i, d)
			}
		}
		single, err := s.RunOn(tests, []int{target})
		if err != nil {
			t.Fatalf("%s: single include: %v", label, err)
		}
		for i, d := range single.FirstDetected {
			switch {
			case i == target && d != refAll.FirstDetected[target]:
				t.Errorf("%s: target fault at %d, reference %d", label, d, refAll.FirstDetected[target])
			case i != target && d != -1:
				t.Errorf("%s: leaked fault %d at %d", label, i, d)
			}
		}
	}
}
