package tpg

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/mutation"
	"repro/internal/sim"
)

func TestRandomSequenceShapeAndReset(t *testing.T) {
	c := circuits.MustLoad("b01")
	seq := RandomSequence(c, 50, 1)
	if len(seq) != 50 {
		t.Fatalf("length %d", len(seq))
	}
	ins := c.Inputs()
	resetIdx := -1
	for i, p := range ins {
		if p.Name == ResetInputName {
			resetIdx = i
		}
	}
	if resetIdx < 0 {
		t.Fatal("b01 has no reset input")
	}
	if !seq[0][resetIdx].IsTrue() {
		t.Error("reset not asserted on cycle 0")
	}
	for cyc := 1; cyc < len(seq); cyc++ {
		if seq[cyc][resetIdx].IsTrue() {
			t.Fatalf("reset asserted at cycle %d", cyc)
		}
	}
}

func TestRandomSequenceDeterministic(t *testing.T) {
	c := circuits.MustLoad("c432")
	a := RandomSequence(c, 20, 7)
	b := RandomSequence(c, 20, 7)
	for cyc := range a {
		for i := range a[cyc] {
			if !a[cyc][i].Equal(b[cyc][i]) {
				t.Fatalf("sequences differ at cycle %d", cyc)
			}
		}
	}
	other := RandomSequence(c, 20, 8)
	same := true
	for cyc := range a {
		for i := range a[cyc] {
			if !a[cyc][i].Equal(other[cyc][i]) {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestToPatternsBitOrder(t *testing.T) {
	c := circuits.MustLoad("c432") // inputs ra,rb,rc,en : bits(9) each
	seq := RandomSequence(c, 3, 2)
	pats := ToPatterns(c, seq)
	if len(pats) != 3 {
		t.Fatalf("pattern count %d", len(pats))
	}
	if len(pats[0]) != 36 {
		t.Fatalf("pattern width %d, want 36", len(pats[0]))
	}
	// Bit k of input i must land at offset sum(widths[:i]) + k.
	for cyc := range seq {
		off := 0
		for i, p := range c.Inputs() {
			for b := 0; b < p.Width; b++ {
				if uint64(pats[cyc][off]) != seq[cyc][i].Bit(b) {
					t.Fatalf("cycle %d input %d bit %d mismatch", cyc, i, b)
				}
				off++
			}
		}
	}
}

func TestMutationTestsKillMostMutants(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.LOR, mutation.CR)
	res, err := MutationTests(c, ms, &Options{Seed: 3, MaxLen: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledCount() == 0 {
		t.Fatal("no mutants killed")
	}
	frac := float64(res.KilledCount()) / float64(len(ms))
	if frac < 0.5 {
		t.Errorf("killed only %.0f%% of %d targets", 100*frac, len(ms))
	}
	t.Logf("killed %d/%d in %d cycles, %d rounds",
		res.KilledCount(), len(ms), len(res.Seq), res.Rounds)
}

func TestMutationTestsSequenceReplays(t *testing.T) {
	// The Killed flags must agree with an independent replay of Seq.
	c := circuits.MustLoad("b06")
	ms := mutation.Generate(c, mutation.CVR)
	res, err := MutationTests(c, ms, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := sim.New(c)
	origOuts, err := orig.Run(res.Seq)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		msim, _ := sim.New(m.Circuit)
		outs, err := msim.Run(res.Seq)
		if err != nil {
			t.Fatal(err)
		}
		killed := false
		for cyc := range outs {
			for j := range outs[cyc] {
				if !outs[cyc][j].Equal(origOuts[cyc][j]) {
					killed = true
				}
			}
		}
		if killed != res.Killed[i] {
			t.Errorf("mutant %d (%s): replay kill=%v, recorded %v", i, m.Desc, killed, res.Killed[i])
		}
	}
}

func TestMutationTestsRespectsMaxLen(t *testing.T) {
	c := circuits.MustLoad("b03")
	ms := mutation.Generate(c)
	res, err := MutationTests(c, ms, &Options{Seed: 1, MaxLen: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) > 40 {
		t.Errorf("sequence length %d exceeds MaxLen 40", len(res.Seq))
	}
}

func TestMutationTestsDeterministic(t *testing.T) {
	c := circuits.MustLoad("b02")
	ms := mutation.Generate(c, mutation.ROR)
	r1, err := MutationTests(c, ms, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MutationTests(c, ms, &Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Seq) != len(r2.Seq) || r1.KilledCount() != r2.KilledCount() {
		t.Fatalf("nondeterministic TG: %d/%d vs %d/%d cycles/kills",
			len(r1.Seq), r1.KilledCount(), len(r2.Seq), r2.KilledCount())
	}
}

func TestMutationTestsEmptyTargets(t *testing.T) {
	c := circuits.MustLoad("b02")
	res, err := MutationTests(c, nil, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) != 1 {
		t.Errorf("expected reset-only sequence, got %d cycles", len(res.Seq))
	}
}

func TestMutationTestsCombinational(t *testing.T) {
	c := circuits.MustLoad("c432")
	ms := mutation.Generate(c, mutation.LOR)
	res, err := MutationTests(c, ms, &Options{Seed: 4, MaxLen: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.KilledCount() == 0 {
		t.Fatal("no combinational mutants killed")
	}
	t.Logf("c432 LOR: killed %d/%d with %d vectors", res.KilledCount(), len(ms), len(res.Seq))
}

// TestOptionsWithDefaults pins every defaulted Options field, both for a
// nil receiver and for partially-filled options, so the field docs and
// withDefaults cannot drift apart again (MaxLen once said 512 while the
// code set 1024).
func TestOptionsWithDefaults(t *testing.T) {
	// Options embeds engine.Options (whose Progress hook makes the struct
	// non-comparable), so the pins compare the scalar fields explicitly.
	same := func(a, b Options) bool {
		return a.Mode == b.Mode && a.Seed == b.Seed && a.MaxLen == b.MaxLen &&
			a.Workers == b.Workers
	}
	got := (*Options)(nil).withDefaults()
	want := Options{Mode: PerMutant, Seed: 0, MaxLen: 1024}
	if !same(got, want) {
		t.Errorf("nil options: defaults %+v, want %+v", got, want)
	}
	// Explicit values must pass through untouched — including the
	// embedded engine knobs.
	in := &Options{Mode: PerMutantSkip, Seed: 9, MaxLen: 64}
	in.Workers = 3
	if got := in.withDefaults(); !same(got, *in) {
		t.Errorf("explicit options rewritten: %+v, want %+v", got, *in)
	}
	// Zero fields of a non-nil struct still pick up defaults.
	part := (&Options{Seed: 7}).withDefaults()
	if part.MaxLen != 1024 {
		t.Errorf("partial options defaults wrong: %+v", part)
	}
	if part.Seed != 7 || part.Mode != PerMutant {
		t.Errorf("partial options lost explicit fields: %+v", part)
	}
}
