package sampling

import (
	"testing"
	"testing/quick"

	"repro/internal/circuits"
	"repro/internal/mutation"
)

func b01Mutants(t *testing.T) []*mutation.Mutant {
	t.Helper()
	return mutation.Generate(circuits.MustLoad("b01"))
}

func TestSampleSize(t *testing.T) {
	cases := []struct {
		total int
		frac  float64
		want  int
	}{
		{100, 0.10, 10}, {255, 0.10, 26}, {9, 0.10, 1}, {0, 0.10, 0},
		{10, 0.99, 10}, {10, 2.0, 10}, {3, 0.5, 2},
	}
	for _, tc := range cases {
		if got := SampleSize(tc.total, tc.frac); got != tc.want {
			t.Errorf("SampleSize(%d, %v) = %d, want %d", tc.total, tc.frac, got, tc.want)
		}
	}
}

func TestRandomSampleProperties(t *testing.T) {
	ms := b01Mutants(t)
	n := SampleSize(len(ms), 0.10)
	got := Random(ms, n, 1)
	if len(got) != n {
		t.Fatalf("sample size %d, want %d", len(got), n)
	}
	seen := make(map[int]bool)
	for _, m := range got {
		if seen[m.ID] {
			t.Fatalf("duplicate mutant %d", m.ID)
		}
		seen[m.ID] = true
	}
	// Deterministic per seed.
	again := Random(ms, n, 1)
	for i := range got {
		if got[i].ID != again[i].ID {
			t.Fatal("same seed produced different samples")
		}
	}
	other := Random(ms, n, 2)
	same := true
	for i := range got {
		if got[i].ID != other[i].ID {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestRandomSampleWholePopulation(t *testing.T) {
	ms := b01Mutants(t)
	got := Random(ms, len(ms)+10, 1)
	if len(got) != len(ms) {
		t.Errorf("oversized request returned %d of %d", len(got), len(ms))
	}
}

func TestWeightedFavorsHeavyOperators(t *testing.T) {
	ms := b01Mutants(t)
	n := SampleSize(len(ms), 0.10)
	w := Weights{mutation.CR: 100, mutation.CVR: 10, mutation.VR: 5, mutation.LOR: 1}
	alloc := mutation.CountByOperator(Weighted(ms, n, w, 1))
	if alloc[mutation.CR] <= alloc[mutation.LOR] {
		t.Errorf("CR (w=100) got %d <= LOR (w=1) got %d", alloc[mutation.CR], alloc[mutation.LOR])
	}
	total := 0
	for _, k := range alloc {
		total += k
	}
	if total != n {
		t.Errorf("allocation total %d != %d", total, n)
	}
}

func TestWeightedAndRandomDrawSameCount(t *testing.T) {
	// The paper's comparison hinges on both strategies extracting exactly
	// the same number of mutants.
	ms := b01Mutants(t)
	n := SampleSize(len(ms), 0.10)
	w := Weights{mutation.CR: 3, mutation.LOR: 1}
	a := Weighted(ms, n, w, 5)
	b := Random(ms, n, 5)
	if len(a) != len(b) || len(a) != n {
		t.Fatalf("sizes differ: weighted %d random %d want %d", len(a), len(b), n)
	}
}

func TestWeightedCapsAtClassSize(t *testing.T) {
	ms := b01Mutants(t)
	counts := mutation.CountByOperator(ms)
	// All weight on AOR, which has very few mutants; the allocator must
	// spill the remainder to other classes.
	n := counts[mutation.AOR] + 5
	w := Weights{mutation.AOR: 1000}
	sample := Weighted(ms, n, w, 2)
	if len(sample) != n {
		t.Fatalf("sample %d, want %d", len(sample), n)
	}
	got := make(map[mutation.Operator]int)
	for _, m := range sample {
		got[m.Op]++
	}
	if got[mutation.AOR] != counts[mutation.AOR] {
		t.Errorf("AOR class not exhausted: %d of %d", got[mutation.AOR], counts[mutation.AOR])
	}
}

func TestWeightedZeroWeightsDegradeGracefully(t *testing.T) {
	ms := b01Mutants(t)
	n := SampleSize(len(ms), 0.10)
	sample := Weighted(ms, n, Weights{}, 3)
	if len(sample) != n {
		t.Fatalf("zero-weight sample size %d, want %d", len(sample), n)
	}
}

func TestWeightedDeterministic(t *testing.T) {
	ms := b01Mutants(t)
	w := Weights{mutation.CR: 2, mutation.CVR: 1}
	a := Weighted(ms, 20, w, 7)
	b := Weighted(ms, 20, w, 7)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("same seed produced different weighted samples")
		}
	}
}

func TestWeightedNoDuplicates(t *testing.T) {
	ms := b01Mutants(t)
	sample := Weighted(ms, 25, Weights{mutation.CR: 1, mutation.VR: 1}, 11)
	seen := make(map[int]bool)
	for _, m := range sample {
		if seen[m.ID] {
			t.Fatalf("duplicate mutant %d in weighted sample", m.ID)
		}
		seen[m.ID] = true
	}
}

// Property: for any weight assignment and size, Weighted returns exactly
// min(n, M) distinct mutants.
func TestPropWeightedSizeExact(t *testing.T) {
	ms := b01Mutants(t)
	f := func(nRaw uint16, w1, w2, w3 uint8, seed int64) bool {
		n := int(nRaw) % (len(ms) + 20)
		w := Weights{
			mutation.CR:  float64(w1),
			mutation.LOR: float64(w2),
			mutation.VR:  float64(w3),
		}
		sample := Weighted(ms, n, w, seed)
		want := n
		if want > len(ms) {
			want = len(ms)
		}
		if len(sample) != want {
			return false
		}
		seen := make(map[int]bool)
		for _, m := range sample {
			if seen[m.ID] {
				return false
			}
			seen[m.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
