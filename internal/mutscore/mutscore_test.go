package mutscore

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
	"repro/internal/tpg"
)

// newScorer builds a scorer for the population under cfg, failing the
// test on error. Each call compiles afresh, so calls share no machine
// state.
func newScorer(t *testing.T, cfg Config, c *hdl.Circuit, ms []*mutation.Mutant) *Scorer {
	t.Helper()
	s, err := cfg.NewScorer(c, ms)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKillsMatchFirstKillCycles(t *testing.T) {
	c := circuits.MustLoad("b06")
	ms := mutation.Generate(c)
	seq := tpg.RandomSequence(c, 100, 1)
	cycles, err := newScorer(t, Config{}, c, ms).FirstKillCycles(seq)
	if err != nil {
		t.Fatal(err)
	}
	killed, err := newScorer(t, Config{}, c, ms).Kills(seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if killed[i] != (cycles[i] >= 0) {
			t.Fatalf("mutant %d: killed=%v cycle=%d", i, killed[i], cycles[i])
		}
		if cycles[i] >= len(seq) {
			t.Fatalf("mutant %d: kill cycle %d beyond sequence", i, cycles[i])
		}
	}
}

func TestKillsDeterministicAcrossRuns(t *testing.T) {
	// The worker pool must not introduce nondeterminism.
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.VR, mutation.CR)
	seq := tpg.RandomSequence(c, 200, 2)
	a, err := newScorer(t, Config{}, c, ms).Kills(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newScorer(t, Config{}, c, ms).Kills(seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutant %d kill flag differs between runs", i)
		}
	}
}

func TestLongerSequencesKillMore(t *testing.T) {
	c := circuits.MustLoad("b03")
	ms := mutation.Generate(c, mutation.LOR)
	short, err := newScorer(t, Config{}, c, ms).Kills(tpg.RandomSequence(c, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	long, err := newScorer(t, Config{}, c, ms).Kills(tpg.RandomSequence(c, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	count := func(ks []bool) int {
		n := 0
		for _, k := range ks {
			if k {
				n++
			}
		}
		return n
	}
	if count(long) < count(short) {
		t.Errorf("prefix-extension lost kills: %d -> %d", count(short), count(long))
	}
	if count(long) == 0 {
		t.Error("500 random cycles killed nothing")
	}
}

func TestScoreFormula(t *testing.T) {
	killed := []bool{true, true, false, false, false}
	equiv := []bool{false, false, true, false, false}
	// K=2, M=5, E=1 -> 2/4 = 0.5
	if got := Score(killed, equiv); got != 0.5 {
		t.Errorf("score = %v, want 0.5", got)
	}
	// Killed mutants flagged equivalent must not shrink the denominator.
	equivBad := []bool{true, false, true, false, false}
	if got := Score(killed, equivBad); got != 0.5 {
		t.Errorf("score with bad equiv flags = %v, want 0.5", got)
	}
	if Score(nil, nil) != 0 {
		t.Error("empty score not 0")
	}
}

func TestScorePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Score([]bool{true}, []bool{})
}

func TestEstimateEquivalence(t *testing.T) {
	c := circuits.MustLoad("b02")
	ms := mutation.Generate(c)
	equiv, err := newScorer(t, Config{}, c, ms).EstimateEquivalence(nil, &EquivalenceOptions{Budget: 1024, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nEquiv := 0
	for _, e := range equiv {
		if e {
			nEquiv++
		}
	}
	if nEquiv == len(ms) {
		t.Fatal("campaign killed nothing; equivalence estimate vacuous")
	}
	// Every mutant killed by the campaign is by definition not equivalent;
	// re-running with a superset budget must never flag MORE mutants.
	equiv2, err := newScorer(t, Config{}, c, ms).EstimateEquivalence(nil, &EquivalenceOptions{Budget: 2048, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range equiv {
		if equiv2[i] && !equiv[i] {
			t.Errorf("mutant %d became equivalent with a larger budget", i)
		}
	}
	t.Logf("b02: %d/%d probably equivalent", nEquiv, len(ms))
}

func TestEstimateEquivalenceUsesExtraSequences(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.CR)
	// A tiny random budget leaves many mutants "equivalent"; adding a
	// targeted extra sequence can only clear flags, never add them.
	small, err := newScorer(t, Config{}, c, ms).EstimateEquivalence(nil, &EquivalenceOptions{Budget: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tpg.MutationTests(c, ms, &tpg.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	withSeq, err := newScorer(t, Config{}, c, ms).EstimateEquivalence([]sim.Sequence{res.Seq}, &EquivalenceOptions{Budget: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	countTrue := func(b []bool) int {
		n := 0
		for _, v := range b {
			if v {
				n++
			}
		}
		return n
	}
	if countTrue(withSeq) > countTrue(small) {
		t.Errorf("extra sequence increased equivalence count: %d > %d",
			countTrue(withSeq), countTrue(small))
	}
	if res.KilledCount() > 0 && countTrue(withSeq) >= countTrue(small) && countTrue(small) > 0 &&
		countTrue(withSeq) == countTrue(small) {
		t.Logf("note: targeted sequence cleared no additional flags (possible but unusual)")
	}
}
