package hdl

import (
	"strings"
	"testing"
)

const counterSrc = `
// 3-bit saturating counter with enable.
circuit counter {
  input en : bit;
  input rst : bit;
  output q : bits(3);
  output sat : bit;
  reg cnt : bits(3);
  const LIMIT : bits(3) = 3'd6;
  seq {
    if rst == 1 {
      cnt = 3'd0;
    } else if en == 1 and cnt < LIMIT {
      cnt = cnt + 1;
    }
  }
  comb {
    q = cnt;
    sat = cnt == LIMIT;
  }
}
`

func mustParse(t *testing.T, src string) *Circuit {
	t.Helper()
	c, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return c
}

func TestParseCounter(t *testing.T) {
	c := mustParse(t, counterSrc)
	if c.Name != "counter" {
		t.Errorf("name = %q", c.Name)
	}
	if len(c.Inputs()) != 2 || len(c.Outputs()) != 2 {
		t.Errorf("ports: %d in, %d out", len(c.Inputs()), len(c.Outputs()))
	}
	if len(c.Regs) != 1 || c.Regs[0].Width != 3 {
		t.Errorf("regs = %+v", c.Regs)
	}
	if k := c.ConstByName("LIMIT"); k == nil || k.Value.Uint() != 6 {
		t.Errorf("const LIMIT = %+v", k)
	}
	if len(c.Blocks) != 2 || c.Blocks[0].Kind != Seq || c.Blocks[1].Kind != Comb {
		t.Errorf("blocks wrong: %+v", c.Blocks)
	}
}

func TestSignalWidth(t *testing.T) {
	c := mustParse(t, counterSrc)
	sc, err := NewScope(c)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]int{"en": 1, "q": 3, "cnt": 3, "LIMIT": 3, "nosuch": 0}
	for name, want := range cases {
		if got := sc.Width(name); got != want {
			t.Errorf("Width(%q) = %d, want %d", name, got, want)
		}
	}
	if !sc.IsConst("LIMIT") || sc.IsConst("cnt") || sc.IsConst("nosuch") {
		t.Error("IsConst: only LIMIT is a constant")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"garbage", "bogus", "expected"},
		{"dup decl", "circuit x { input a : bit; reg a : bit; seq { a = 1; } }", "duplicate"},
		{"assign input", "circuit x { input a : bit; output o : bit; comb { a = 1; o = a; } }", "cannot assign to input"},
		{"assign const", "circuit x { const K : bit = 1; output o : bit; comb { K = 0; o = K; } }", "cannot assign to constant"},
		{"reg in comb", "circuit x { reg r : bit; output o : bit; comb { r = 1; o = r; } }", "outside a seq block"},
		{"wire in seq", "circuit x { wire w : bit; output o : bit; input i : bit; seq { w = 1; } comb { o = i; } }", "outside a comb block"},
		{"undeclared", "circuit x { output o : bit; comb { o = zz; } }", "undeclared"},
		{"width mismatch", "circuit x { input a : bits(3); input b : bits(4); output o : bit; comb { o = rxor (a xor b); } }", "width"},
		{"lit too wide", "circuit x { input a : bits(2); output o : bit; comb { o = a == 9; } }", "does not fit"},
		{"bad index", "circuit x { input a : bits(3); output o : bit; comb { o = a[5]; } }", "out of range"},
		{"bad slice", "circuit x { input a : bits(3); output o : bits(2); comb { o = a[4:3]; } }", "out of range"},
		{"both drivers", "circuit x { input i : bit; output o : bit; seq { o = i; } comb { o = i; } }", "both seq and comb"},
		{"not definitely assigned", "circuit x { input i : bit; output o : bit; comb { if i == 1 { o = 1; } } }", "not assigned on every path"},
		{"wire read before assign", "circuit x { input i : bit; wire w : bit; output o : bit; comb { o = w; w = i; } }", "read before assignment"},
		{"unterminated comment", "circuit x { /* oops", "unterminated"},
		{"sized literal overflow", "circuit x { output o : bits(2); comb { o = 2'd7; } }", "does not fit"},
		{"default after empty default", "circuit x { input s : bits(2); output o : bit; comb { o = 0; case s { when 2'd0: { o = 1; } default: { } default: { o = 1; } } } }", "duplicate default arm"},
		{"two empty defaults", "circuit x { input s : bits(2); output o : bit; comb { o = 0; case s { when 2'd0: { o = 1; } default: { } default: { } } } }", "duplicate default arm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestCaseCoverageSatisfiesDefiniteAssignment(t *testing.T) {
	src := `
circuit x {
  input s : bits(2);
  output o : bit;
  comb {
    case s {
      when 2'd0, 2'd1: { o = 0; }
      when 2'd2: { o = 1; }
      when 2'd3: { o = 1; }
    }
  }
}`
	if _, err := Parse(src); err != nil {
		t.Fatalf("complete case rejected: %v", err)
	}
	incomplete := strings.Replace(src, "when 2'd3: { o = 1; }", "", 1)
	if _, err := Parse(incomplete); err == nil {
		t.Fatal("incomplete case without default accepted")
	}
}

func TestRelaxedModeToleratesMissingAssignment(t *testing.T) {
	src := "circuit x { input i : bit; output o : bit; comb { if i == 1 { o = 1; } } }"
	c, err := ParseOnly(src)
	if err != nil {
		t.Fatalf("ParseOnly: %v", err)
	}
	if err := Check(c, Relaxed); err != nil {
		t.Fatalf("Relaxed check failed: %v", err)
	}
	if err := Check(c, Strict); err == nil {
		t.Fatal("Strict check passed unexpectedly")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	c1 := mustParse(t, counterSrc)
	src2 := Format(c1)
	c2, err := Parse(src2)
	if err != nil {
		t.Fatalf("re-parse of formatted source failed: %v\n%s", err, src2)
	}
	src3 := Format(c2)
	if src2 != src3 {
		t.Errorf("format not stable:\n%s\nvs\n%s", src2, src3)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := mustParse(t, counterSrc)
	clone := c.Clone()
	// Mutate the clone's first seq assignment and verify the original is intact.
	var cloneAssign *Assign
	Walk(clone, Visitor{Stmt: func(s Stmt) {
		if a, ok := s.(*Assign); ok && cloneAssign == nil {
			cloneAssign = a
		}
	}})
	if cloneAssign == nil {
		t.Fatal("no assign found in clone")
	}
	cloneAssign.LHS.Name = "HACKED"
	found := false
	Walk(c, Visitor{Stmt: func(s Stmt) {
		if a, ok := s.(*Assign); ok && a.LHS.Name == "HACKED" {
			found = true
		}
	}})
	if found {
		t.Error("mutating clone affected original")
	}
}

func TestWalkOrderIsStable(t *testing.T) {
	c := mustParse(t, counterSrc)
	collect := func(circ *Circuit) []string {
		var seq []string
		Walk(circ, Visitor{
			Stmt: func(s Stmt) { seq = append(seq, "S") },
			Expr: func(e Expr) { seq = append(seq, FormatExpr(e)) },
		})
		return seq
	}
	a := collect(c)
	b := collect(c.Clone())
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Errorf("walk order differs between circuit and clone:\n%v\n%v", a, b)
	}
	if len(a) < 10 {
		t.Errorf("walk visited too few nodes: %d", len(a))
	}
}

func TestSizedLiteralForms(t *testing.T) {
	src := `
circuit lits {
  input a : bits(8);
  output o : bit;
  comb {
    o = (a == 8'b0000_1111) or (a == 8'hF0) or (a == 8'd7) or (a == 0x0F);
  }
}`
	if _, err := Parse(src); err != nil {
		t.Fatalf("sized literal forms rejected: %v", err)
	}
}

func TestForLoopParsing(t *testing.T) {
	src := `
circuit parity8 {
  input a : bits(8);
  output p : bit;
  wire acc : bits(9);
  comb {
    acc = 9'd0;
    for i in 0 .. 7 {
      acc[i + 1] = acc[i] xor a[i];
    }
    p = acc[8];
  }
}`
	c := mustParse(t, src)
	var loop *For
	Walk(c, Visitor{Stmt: func(s Stmt) {
		if f, ok := s.(*For); ok {
			loop = f
		}
	}})
	if loop == nil || loop.Lo != 0 || loop.Hi != 7 || loop.Var != "i" {
		t.Fatalf("loop parsed wrong: %+v", loop)
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
circuit chain {
  input a : bits(2);
  output o : bits(2);
  comb {
    if a == 2'd0 { o = 2'd3; }
    else if a == 2'd1 { o = 2'd2; }
    else { o = 2'd0; }
  }
}`
	c := mustParse(t, src)
	ifs := 0
	Walk(c, Visitor{Stmt: func(s Stmt) {
		if _, ok := s.(*If); ok {
			ifs++
		}
	}})
	if ifs != 2 {
		t.Errorf("else-if chain: %d ifs, want 2", ifs)
	}
}

func TestConcatAndSlice(t *testing.T) {
	src := `
circuit cat {
  input hi : bits(4);
  input lo : bits(4);
  output o : bits(8);
  output mid : bits(2);
  comb {
    o = hi ++ lo;
    mid = o[4:3];
  }
}`
	mustParse(t, src)
}

func TestLoopVariableShadowRejected(t *testing.T) {
	src := `
circuit shadow {
  input a : bits(2);
  output o : bits(2);
  comb {
    o = 2'd0;
    for a in 0 .. 1 { o[a] = 1; }
  }
}`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "shadows") {
		t.Fatalf("want shadow error, got %v", err)
	}
}
