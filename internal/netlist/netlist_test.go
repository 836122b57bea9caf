package netlist

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildMux constructs y = (a AND s) OR (b AND NOT s).
func buildMux(t *testing.T) *Netlist {
	t.Helper()
	n := New("mux")
	a := n.AddInput("a")
	b := n.AddInput("b")
	s := n.AddInput("s")
	ns := n.AddGate(Not, s)
	t1 := n.AddGate(And, a, s)
	t2 := n.AddGate(And, b, ns)
	y := n.AddGate(Or, t1, t2)
	n.MarkOutput(y, "y")
	if err := n.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return n
}

func TestMuxTruthTable(t *testing.T) {
	n := buildMux(t)
	e, err := NewEvaluator(n)
	if err != nil {
		t.Fatal(err)
	}
	// 8 patterns in parallel: lane k carries the k-th input combination.
	var a, b, s uint64
	for k := 0; k < 8; k++ {
		if k&1 != 0 {
			a |= 1 << k
		}
		if k&2 != 0 {
			b |= 1 << k
		}
		if k&4 != 0 {
			s |= 1 << k
		}
	}
	out, err := e.Eval([]uint64{a, b, s})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		av, bv, sv := k&1, (k>>1)&1, (k>>2)&1
		want := bv
		if sv == 1 {
			want = av
		}
		if got := int(out[0]>>k) & 1; got != want {
			t.Errorf("pattern a=%d b=%d s=%d: y=%d want %d", av, bv, sv, got, want)
		}
	}
}

func TestGateEvalAllTypes(t *testing.T) {
	n := New("g")
	a := n.AddInput("a")
	b := n.AddInput("b")
	ids := map[string]int{
		"and":  n.AddGate(And, a, b),
		"or":   n.AddGate(Or, a, b),
		"nand": n.AddGate(Nand, a, b),
		"nor":  n.AddGate(Nor, a, b),
		"xor":  n.AddGate(Xor, a, b),
		"xnor": n.AddGate(Xnor, a, b),
		"not":  n.AddGate(Not, a),
		"buf":  n.AddGate(Buf, a),
		"c0":   n.AddGate(Const0),
		"c1":   n.AddGate(Const1),
	}
	n.MarkOutput(ids["and"], "o")
	e, err := NewEvaluator(n)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := uint64(0b1100), uint64(0b1010)
	if _, err := e.Eval([]uint64{av, bv}); err != nil {
		t.Fatal(err)
	}
	mask := uint64(0b1111)
	want := map[string]uint64{
		"and": av & bv, "or": av | bv, "nand": ^(av & bv) & mask,
		"nor": ^(av | bv) & mask, "xor": av ^ bv, "xnor": ^(av ^ bv) & mask,
		"not": ^av & mask, "buf": av, "c0": 0, "c1": mask,
	}
	for name, w := range want {
		if got := e.Value(ids[name]) & mask; got != w {
			t.Errorf("%s = %04b, want %04b", name, got, w)
		}
	}
}

func TestCombCycleDetected(t *testing.T) {
	n := New("cyc")
	a := n.AddInput("a")
	g1 := n.AddGate(And, a, a) // placeholder fanin, rewired below
	g2 := n.AddGate(Or, g1, a)
	n.Gates[g1].Fanin[1] = g2 // creates cycle g1 -> g2 -> g1
	n.MarkOutput(g2, "o")
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestDFFSequentialBehavior(t *testing.T) {
	// 1-bit toggle: q' = q XOR en
	n := New("toggle")
	en := n.AddInput("en")
	q := n.AddDFF("q", 0)
	d := n.AddGate(Xor, q, en)
	n.SetDFFInput(q, d)
	n.MarkOutput(q, "qo")
	e, err := NewEvaluator(n)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for i := 0; i < 4; i++ {
		out, _ := e.Eval([]uint64{1}) // enable always on, lane 0
		got = append(got, out[0]&1)
		e.Clock()
	}
	want := []uint64{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("toggle sequence = %v, want %v", got, want)
		}
	}
}

func TestDFFInitValue(t *testing.T) {
	n := New("init1")
	a := n.AddInput("a")
	q := n.AddDFF("q", 1)
	n.SetDFFInput(q, a)
	n.MarkOutput(q, "qo")
	e, _ := NewEvaluator(n)
	out, _ := e.Eval([]uint64{0})
	if out[0] != ^uint64(0) {
		t.Errorf("init-1 DFF reads %x at power-on", out[0])
	}
	e.Clock()
	out, _ = e.Eval([]uint64{0})
	if out[0] != 0 {
		t.Errorf("DFF did not capture 0")
	}
}

func TestOutputStuckFaultInjection(t *testing.T) {
	n := buildMux(t)
	e, _ := NewEvaluator(n)
	// With s=1, y follows a. Stuck-at-0 on the final OR output forces y=0.
	orID := n.POs[0]
	out := e.EvalWith([]uint64{^uint64(0), 0, ^uint64(0)}, FaultSite{Gate: orID, Pin: -1, Stuck: 0}, ^uint64(0))
	if out[0] != 0 {
		t.Errorf("stuck-at-0 output: y = %x", out[0])
	}
	// Lane masking: inject only in lane 3.
	out = e.EvalWith([]uint64{^uint64(0), 0, ^uint64(0)}, FaultSite{Gate: orID, Pin: -1, Stuck: 0}, 1<<3)
	if out[0] != ^uint64(0)&^(1<<3) {
		t.Errorf("lane-masked fault: y = %x", out[0])
	}
}

func TestInputPinFaultIsBranchFault(t *testing.T) {
	// y1 = AND(a, b), y2 = OR(a, b). Fault a stuck-at-0 only at the AND's
	// pin: y1 sees the fault, y2 does not.
	n := New("branch")
	a := n.AddInput("a")
	b := n.AddInput("b")
	y1 := n.AddGate(And, a, b)
	y2 := n.AddGate(Or, a, b)
	n.MarkOutput(y1, "y1")
	n.MarkOutput(y2, "y2")
	e, _ := NewEvaluator(n)
	out := e.EvalWith([]uint64{^uint64(0), 0}, FaultSite{Gate: y1, Pin: 0, Stuck: 0}, ^uint64(0))
	if out[0] != 0 {
		t.Errorf("AND with faulted pin = %x, want 0", out[0])
	}
	if out[1] != ^uint64(0) {
		t.Errorf("OR sees the branch fault: %x", out[1])
	}
}

func TestPIStuckFault(t *testing.T) {
	n := buildMux(t)
	e, _ := NewEvaluator(n)
	aID := n.PIs[0]
	// s=1 selects a; a stuck-at-1 with applied a=0 gives y=1.
	out := e.EvalWith([]uint64{0, 0, ^uint64(0)}, FaultSite{Gate: aID, Pin: -1, Stuck: 1}, ^uint64(0))
	if out[0] != ^uint64(0) {
		t.Errorf("PI stuck-at-1: y = %x", out[0])
	}
}

func TestBenchRoundTrip(t *testing.T) {
	n := buildMux(t)
	var sb strings.Builder
	if err := WriteBench(&sb, n); err != nil {
		t.Fatal(err)
	}
	n2, err := ReadBench(strings.NewReader(sb.String()), "mux")
	if err != nil {
		t.Fatalf("ReadBench: %v\n%s", err, sb.String())
	}
	if len(n2.PIs) != 3 || len(n2.POs) != 1 {
		t.Fatalf("round-trip lost ports: %v", n2.Stats())
	}
	// Behavioral equivalence across all 8 input combinations.
	e1, _ := NewEvaluator(n)
	e2, _ := NewEvaluator(n2)
	var a, b, s uint64
	for k := 0; k < 8; k++ {
		if k&1 != 0 {
			a |= 1 << k
		}
		if k&2 != 0 {
			b |= 1 << k
		}
		if k&4 != 0 {
			s |= 1 << k
		}
	}
	o1, _ := e1.Eval([]uint64{a, b, s})
	o2, _ := e2.Eval([]uint64{a, b, s})
	if o1[0]&0xFF != o2[0]&0xFF {
		t.Errorf("round-trip changed behavior: %02x vs %02x", o1[0]&0xFF, o2[0]&0xFF)
	}
}

func TestBenchSequentialRoundTrip(t *testing.T) {
	src := `
# toggle
INPUT(en)
OUTPUT(qo)
q = DFF(d)
d = XOR(q, en)
qo = BUF(q)
`
	n, err := ReadBench(strings.NewReader(src), "toggle")
	if err != nil {
		t.Fatal(err)
	}
	if !n.IsSequential() || len(n.FFs) != 1 {
		t.Fatalf("DFF not parsed: %v", n.Stats())
	}
	e, _ := NewEvaluator(n)
	out, _ := e.Eval([]uint64{1})
	if out[0]&1 != 0 {
		t.Error("initial state wrong")
	}
	e.Clock()
	out, _ = e.Eval([]uint64{1})
	if out[0]&1 != 1 {
		t.Error("toggle failed")
	}
}

func TestBenchErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undefined output", "INPUT(a)\nOUTPUT(zz)\nb = NOT(a)\n"},
		{"undefined fanin", "INPUT(a)\nOUTPUT(b)\nb = AND(a, qq)\n"},
		{"bad gate", "INPUT(a)\nOUTPUT(b)\nb = FROB(a)\n"},
		{"garbage", "INPUT(a)\nOUTPUT(b)\nwhat is this\n"},
		{"dup", "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n"},
		// Wrong fanin counts are parse errors on their line, not panics
		// in AddGate.
		{"AND no inputs", "INPUT(a)\nOUTPUT(b)\nb = AND()\n"},
		{"NOT two inputs", "INPUT(a)\nOUTPUT(b)\nb = NOT(a, a)\n"},
		{"BUFF no inputs", "INPUT(a)\nOUTPUT(b)\nb = BUFF()\n"},
		{"XOR one input", "INPUT(a)\nOUTPUT(b)\nb = XOR(a)\n"},
		{"CONST0 with input", "INPUT(a)\nOUTPUT(b)\nb = CONST0(a)\n"},
		// A net defined twice is an error on the second definition,
		// whichever kinds the two are.
		{"gate then DFF", benchGateThenDFF},
		{"gate twice", benchGateTwice},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadBench(strings.NewReader(tc.src), "bad"); err == nil {
				t.Error("no error")
			}
		})
	}
	for _, src := range []string{benchGateThenDFF, benchGateTwice} {
		_, err := ReadBench(strings.NewReader(src), "bad")
		if err == nil || !strings.HasPrefix(err.Error(), "bench line 4: ") {
			t.Errorf("%q: err = %v, want a bench line 4 error", src, err)
		}
	}
	// Arity errors name the offending line.
	for _, line := range []string{"b = AND()", "b = NOT(a, a)", "b = BUFF()", "b = XOR(a)"} {
		_, err := ReadBench(strings.NewReader("INPUT(a)\nOUTPUT(b)\n"+line+"\n"), "bad")
		if err == nil || !strings.HasPrefix(err.Error(), "bench line 3: ") {
			t.Errorf("%q: err = %v, want a bench line 3 error", line, err)
		}
	}
}

func TestLevelizeDepth(t *testing.T) {
	n := New("chain")
	a := n.AddInput("a")
	g := a
	for i := 0; i < 5; i++ {
		g = n.AddGate(Not, g)
	}
	n.MarkOutput(g, "o")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := n.Depth(); d != 5 {
		t.Errorf("depth = %d, want 5", d)
	}
}

func TestStatsString(t *testing.T) {
	n := buildMux(t)
	s := n.Stats()
	if s.PIs != 3 || s.POs != 1 || s.Gates != 4 || s.FFs != 0 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "mux") {
		t.Errorf("stats string = %q", s.String())
	}
}

// Property: a fault injected with an empty lane mask never changes outputs.
func TestPropEmptyLaneMaskIsFaultFree(t *testing.T) {
	n := buildMux(t)
	e, _ := NewEvaluator(n)
	f := func(a, b, s uint64, gate uint8, stuck bool) bool {
		g := int(gate) % len(n.Gates)
		sv := uint64(0)
		if stuck {
			sv = 1
		}
		ref, _ := e.Eval([]uint64{a, b, s})
		refCopy := append([]uint64(nil), ref...)
		got := e.EvalWith([]uint64{a, b, s}, FaultSite{Gate: g, Pin: -1, Stuck: sv}, 0)
		for i := range refCopy {
			if got[i] != refCopy[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mux behaves as y = s ? a : b on all 64 lanes at once.
func TestPropMuxParallelLanes(t *testing.T) {
	n := buildMux(t)
	e, _ := NewEvaluator(n)
	f := func(a, b, s uint64) bool {
		out, err := e.Eval([]uint64{a, b, s})
		if err != nil {
			return false
		}
		want := (a & s) | (b &^ s)
		return out[0] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
