package mutation

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/circuits"
	"repro/internal/hdl"
	"repro/internal/randcirc"
	"repro/internal/sim"
)

const testSrc = `
circuit small {
  input a : bits(4);
  input b : bits(4);
  input sel : bit;
  output o : bits(4);
  output flag : bit;
  reg acc : bits(4);
  const STEP : bits(4) = 4'd3;
  seq {
    if sel == 1 {
      acc = acc + STEP;
    } else {
      acc = a and b;
    }
  }
  comb {
    o = acc;
    flag = acc > 4'd9;
  }
}
`

func parse(t *testing.T, src string) *hdl.Circuit {
	t.Helper()
	c, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateProducesAllOperatorClasses(t *testing.T) {
	c := parse(t, testSrc)
	ms := Generate(c)
	counts := CountByOperator(ms)
	// Every class with an applicable site must be present.
	for _, op := range []Operator{LOR, ROR, AOR, CNR, UOI, SDL, VR, CVR, CR} {
		if counts[op] == 0 {
			t.Errorf("no %s mutants generated; counts = %v", op, counts)
		}
	}
	if counts[SOR] != 0 {
		t.Errorf("SOR mutants generated for a circuit without shifts")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	c := parse(t, testSrc)
	a := Generate(c)
	b := Generate(c)
	if len(a) != len(b) {
		t.Fatalf("mutant counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Op != b[i].Op || a[i].Desc != b[i].Desc {
			t.Fatalf("mutant %d differs: %v vs %v", i, a[i].Desc, b[i].Desc)
		}
		if hdl.Format(a[i].Circuit) != hdl.Format(b[i].Circuit) {
			t.Fatalf("mutant %d source differs", i)
		}
	}
}

func TestGenerateDoesNotModifyOriginal(t *testing.T) {
	c := parse(t, testSrc)
	before := hdl.Format(c)
	Generate(c)
	if after := hdl.Format(c); after != before {
		t.Fatalf("original modified:\n%s\nvs\n%s", before, after)
	}
}

func TestEachMutantDiffersFromOriginalByOneChange(t *testing.T) {
	c := parse(t, testSrc)
	orig := strings.Split(hdl.Format(c), "\n")
	for _, m := range Generate(c) {
		mut := strings.Split(hdl.Format(m.Circuit), "\n")
		diffs := 0
		if len(orig) == len(mut) {
			for i := range orig {
				if orig[i] != mut[i] {
					diffs++
				}
			}
			// SDL removes a line, handled below; in-place edits touch 1 line.
			if diffs == 0 {
				t.Errorf("mutant %d (%s %s) is textually identical to original", m.ID, m.Op, m.Desc)
			}
			if diffs > 1 && m.Op != CNR { // CNR swaps two branch bodies
				t.Errorf("mutant %d (%s %s) changed %d lines", m.ID, m.Op, m.Desc, diffs)
			}
		} else if m.Op != SDL && m.Op != CNR {
			t.Errorf("mutant %d (%s) changed line count %d -> %d", m.ID, m.Op, len(orig), len(mut))
		}
	}
}

func TestMutantsAreSimulable(t *testing.T) {
	c := parse(t, testSrc)
	in := sim.Vector{bitvec.New(5, 4), bitvec.New(3, 4), bitvec.New(1, 1)}
	for _, m := range Generate(c) {
		s, err := sim.New(m.Circuit)
		if err != nil {
			t.Fatalf("mutant %d (%s): simulator: %v", m.ID, m.Op, err)
		}
		if _, err := s.Step(in); err != nil {
			t.Fatalf("mutant %d (%s): step: %v", m.ID, m.Op, err)
		}
	}
}

func TestSomeMutantIsBehaviorallyDifferent(t *testing.T) {
	c := parse(t, testSrc)
	ref, _ := sim.New(c)
	seq := sim.Sequence{
		{bitvec.New(5, 4), bitvec.New(3, 4), bitvec.New(0, 1)},
		{bitvec.New(9, 4), bitvec.New(6, 4), bitvec.New(1, 1)},
		{bitvec.New(1, 4), bitvec.New(2, 4), bitvec.New(1, 1)},
	}
	want, err := ref.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	ms := Generate(c)
	for _, m := range ms {
		s, err := sim.New(m.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(seq)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := range got {
			for j := range got[cyc] {
				if !got[cyc][j].Equal(want[cyc][j]) {
					killed++
					cyc = len(got)
					break
				}
			}
		}
	}
	if killed == 0 {
		t.Fatal("no mutant distinguishable by a 3-cycle sequence; engine broken")
	}
	t.Logf("%d/%d mutants killed by smoke sequence", killed, len(ms))
}

func TestOperatorFiltering(t *testing.T) {
	c := parse(t, testSrc)
	ms := Generate(c, CR)
	for _, m := range ms {
		if m.Op != CR {
			t.Fatalf("filtered generation returned %s mutant", m.Op)
		}
	}
	if len(ms) == 0 {
		t.Fatal("no CR mutants")
	}
}

func TestCRCoversConstDeclAndLiterals(t *testing.T) {
	c := parse(t, testSrc)
	ms := Generate(c, CR)
	declHits, litHits := 0, 0
	for _, m := range ms {
		if strings.Contains(m.Desc, "const STEP") {
			declHits++
		} else {
			litHits++
		}
	}
	if declHits == 0 {
		t.Error("CR never mutated the const declaration")
	}
	if litHits == 0 {
		t.Error("CR never mutated an inline literal")
	}
}

func TestVRRespectsWidths(t *testing.T) {
	c := parse(t, testSrc)
	for _, m := range Generate(c, VR) {
		// A clone: checking writes annotations, and a mutant shares
		// nodes with c.
		if err := hdl.Check(m.Circuit.Clone(), hdl.Relaxed); err != nil {
			t.Fatalf("VR mutant fails checking: %v (%s)", err, m.Desc)
		}
	}
}

func TestCNRSwapsBranches(t *testing.T) {
	c := parse(t, testSrc)
	ms := Generate(c, CNR)
	if len(ms) != 1 {
		t.Fatalf("want 1 CNR mutant for 1 if, got %d", len(ms))
	}
	// In the mutant, the then-branch must contain the original else body.
	var mutIf *hdl.If
	hdl.Walk(ms[0].Circuit, hdl.Visitor{Stmt: func(s hdl.Stmt) {
		if f, ok := s.(*hdl.If); ok {
			mutIf = f
		}
	}})
	if mutIf == nil {
		t.Fatal("no if in CNR mutant")
	}
	a := mutIf.Then[0].(*hdl.Assign)
	if got := hdl.FormatExpr(a.RHS); !strings.Contains(got, "and") {
		t.Errorf("CNR then-branch RHS = %s, want the original else body (a and b)", got)
	}
}

func TestSDLDeletesOneStatement(t *testing.T) {
	c := parse(t, testSrc)
	countAssigns := func(x *hdl.Circuit) int {
		n := 0
		hdl.Walk(x, hdl.Visitor{Stmt: func(s hdl.Stmt) {
			if _, ok := s.(*hdl.Assign); ok {
				n++
			}
		}})
		return n
	}
	orig := countAssigns(c)
	ms := Generate(c, SDL)
	if len(ms) != orig {
		t.Fatalf("want %d SDL mutants (one per assignment), got %d", orig, len(ms))
	}
	for _, m := range ms {
		if got := countAssigns(m.Circuit); got != orig-1 {
			t.Errorf("SDL mutant has %d assigns, want %d", got, orig-1)
		}
	}
}

func TestParseOperator(t *testing.T) {
	for _, s := range []string{"cr", "CR", "lor", "VR"} {
		if _, err := ParseOperator(s); err != nil {
			t.Errorf("ParseOperator(%q): %v", s, err)
		}
	}
	if _, err := ParseOperator("zzz"); err == nil {
		t.Error("bad operator accepted")
	}
	all := make(map[Operator]bool)
	for _, op := range AllOperators() {
		if got, err := ParseOperator(string(op)); err != nil || got != op {
			t.Errorf("ParseOperator(%q) = %q, %v", op, got, err)
		}
		all[op] = true
	}
	if len(all) != 10 {
		t.Errorf("expected exactly ten operators, got %d", len(all))
	}
}

func TestByOperatorPartition(t *testing.T) {
	c := parse(t, testSrc)
	ms := Generate(c)
	parts := ByOperator(ms)
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	if total != len(ms) {
		t.Errorf("partition lost mutants: %d vs %d", total, len(ms))
	}
}

// stillbornSrc has sites whose mutants fail the relaxed check: CR and
// CVR put literal bit indices out of range, in statements nested in an
// If, a For and a Case arm. Its loop body reads the loop variable, so a
// re-check that lost the enclosing For's variable would reject mutants
// the whole-circuit check accepts.
const stillbornSrc = `
circuit stillborn {
  input a : bits(4);
  input j : bits(4);
  input k : bits(2);
  output o : bits(4);
  output p : bit;
  reg r : bits(4);
  const K : bits(4) = 4'd9;
  seq {
    if k == 2'd1 {
      r[2] = a[j];
    } else {
      r = r + K;
    }
  }
  comb {
    o = r;
    for n in 0 .. 2 {
      if a[n] == 1 {
        o[n + 1] = a[j] xor a[n];
      }
    }
    case k {
      when 2'd0: { p = a[0]; }
      when 2'd1, 2'd2: { p = r[j]; }
      default: { p = 0; }
    }
  }
}
`

// largeDesigns are the two designs of the repository benchmark's
// large-netlist workload: a sequential one of 6.8k gates and a
// combinational one of 3.4k.
var largeDesigns = []randcirc.Config{
	{Seed: 3, Inputs: 12, Outputs: 12, Regs: 16, Wires: 32, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 32},
	{Seed: 4, Inputs: 16, Outputs: 16, Regs: -1, Wires: 64, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 48},
}

// TestGenerateMatchesOracle holds Generate to the clone-apply-check
// oracle on every in-repo circuit, the stillborn fixture, the random
// circuits of randcirc's mutation test and the large-netlist designs,
// once per operator class and once with all classes. The all-classes run
// is held to the class runs' mutants, each already equal to the oracle's:
// comparing mutants that share the input's nodes is cheap, and the
// oracle's clones are what makes this test slow.
func TestGenerateMatchesOracle(t *testing.T) {
	type input struct {
		name string
		load func() (*hdl.Circuit, error)
	}
	var inputs []input
	for _, name := range circuits.Names() {
		inputs = append(inputs, input{name, func() (*hdl.Circuit, error) { return circuits.Load(name) }})
	}
	inputs = append(inputs, input{"stillborn", func() (*hdl.Circuit, error) { return hdl.Parse(stillbornSrc) }})
	for seed := int64(0); seed < 20; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("rand%d", seed), func() (*hdl.Circuit, error) {
			return randcirc.Generate(randcirc.Config{Seed: seed})
		}})
	}
	for i, cfg := range largeDesigns {
		inputs = append(inputs, input{fmt.Sprintf("large%d", i), func() (*hdl.Circuit, error) {
			return randcirc.Generate(cfg)
		}})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			c, err := in.load()
			if err != nil {
				t.Fatal(err)
			}
			byClass := make(map[Operator][]*hdl.Circuit)
			for _, op := range AllOperators() {
				byClass[op] = checkGenerate(t, c, []Operator{op}, oracleRef(c))
			}
			next := make(map[Operator]int)
			all := checkGenerate(t, c, nil, func(w oracleSite) *hdl.Circuit {
				class := byClass[w.op]
				if next[w.op] == len(class) {
					t.Fatalf("more %s sites with all classes than with %s alone", w.op, w.op)
				}
				next[w.op]++
				return class[next[w.op]-1]
			})
			if in.name == "stillborn" && !slices.Contains(all, nil) {
				t.Fatal("the stillborn fixture produced no stillborn site")
			}
		})
	}
}

// FuzzGenerate feeds arbitrary MHDL to Generate, seeded with every
// in-repo circuit and the stillborn fixture. For every source hdl.Parse
// accepts, Generate must not panic and must match the oracle.
func FuzzGenerate(f *testing.F) {
	for _, name := range circuits.Names() {
		src, _ := circuits.Source(name)
		f.Add(src)
	}
	f.Add(stillbornSrc)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := hdl.Parse(src)
		if err != nil {
			return
		}
		checkGenerate(t, c, nil, oracleRef(c))
	})
}

// TestGenerateConcurrent runs two Generate calls on one circuit while
// the programs of a population generated from it earlier compile. Every
// walk of the input must be read-only, and mutants share the input's
// nodes, so under -race any write to the input shows up here.
func TestGenerateConcurrent(t *testing.T) {
	c := circuits.MustLoad("b01")
	earlier := Generate(c)
	cs := make([]*hdl.Circuit, len(earlier))
	for i, m := range earlier {
		cs[i] = m.Circuit
	}
	var wg sync.WaitGroup
	var a, b []*Mutant
	var compileErr error
	wg.Add(3)
	go func() { defer wg.Done(); a = Generate(c, LOR, CR) }()
	go func() { defer wg.Done(); b = Generate(c) }()
	go func() { defer wg.Done(); _, compileErr = sim.CompileBatch(cs, 2) }()
	wg.Wait()
	if compileErr != nil {
		t.Fatal(compileErr)
	}
	if len(b) != len(earlier) {
		t.Fatalf("%d mutants, %d before", len(b), len(earlier))
	}
	for i, m := range b {
		if m.Desc != earlier[i].Desc || hdl.Format(m.Circuit) != hdl.Format(earlier[i].Circuit) {
			t.Fatalf("mutant %d differs between calls: %s vs %s", i, m.Desc, earlier[i].Desc)
		}
	}
	if len(a) == 0 {
		t.Fatal("no LOR or CR mutants")
	}
}

// TestLargePopulationHeap generates each large-netlist design's whole
// population in one call and bounds the live heap it holds. Built as
// whole-circuit clones, the two populations (4147 and 5585 mutants) held
// +326 MB and +561 MB. Path copies share all but the edited path with the
// input: they hold 7.5 and 17.9 MB, and the bounds are a tenth of the
// clones' or less and twice the path copies' or more.
func TestLargePopulationHeap(t *testing.T) {
	bounds := []uint64{16 << 20, 40 << 20}
	for i, cfg := range largeDesigns {
		c, err := randcirc.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ms := Generate(c)
		runtime.GC()
		runtime.ReadMemStats(&after)
		grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("design %d: %d mutants hold %+.1f MB", i, len(ms), float64(grown)/(1<<20))
		if grown > int64(bounds[i]) {
			t.Errorf("design %d: %d mutants hold %+.1f MB, bound %d MB", i, len(ms), float64(grown)/(1<<20), bounds[i]>>20)
		}
		runtime.KeepAlive(ms)
	}
}
