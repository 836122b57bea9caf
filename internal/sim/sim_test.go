package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/hdl"
)

const counterSrc = `
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

func mustSim(t *testing.T, src string) *Simulator {
	t.Helper()
	c, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s, err := New(c)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return s
}

func vec(vals ...bitvec.BV) Vector { return Vector(vals) }

func b1(v uint64) bitvec.BV { return bitvec.New(v, 1) }

func TestCounterCounts(t *testing.T) {
	s := mustSim(t, counterSrc)
	// reset cycle
	out, err := s.Step(vec(b1(0), b1(1)))
	if err != nil {
		t.Fatal(err)
	}
	// count 6 cycles with enable
	for i := 1; i <= 6; i++ {
		out, err = s.Step(vec(b1(1), b1(0)))
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].Uint(); got != uint64(i-1) {
			t.Fatalf("cycle %d: q = %d, want %d", i, got, i-1)
		}
	}
	// now cnt holds 6; q reflects it on the next cycle and saturates
	out, _ = s.Step(vec(b1(1), b1(0)))
	if out[0].Uint() != 6 || !out[1].IsTrue() {
		t.Fatalf("expected saturation at 6, got q=%d sat=%v", out[0].Uint(), out[1])
	}
	out, _ = s.Step(vec(b1(1), b1(0)))
	if out[0].Uint() != 6 {
		t.Fatalf("counter ran past limit: q=%d", out[0].Uint())
	}
}

func TestStepInputValidation(t *testing.T) {
	s := mustSim(t, counterSrc)
	if _, err := s.Step(vec(b1(0))); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := s.Step(vec(bitvec.New(0, 2), b1(0))); err == nil {
		t.Error("wrong-width input accepted")
	}
}

func TestRegisteredOutput(t *testing.T) {
	src := `
circuit dff {
  input d : bit;
  output q : bit;
  seq { q = d; }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(b1(1)))
	if out[0].IsTrue() {
		t.Error("registered output visible in same cycle")
	}
	out, _ = s.Step(vec(b1(0)))
	if !out[0].IsTrue() {
		t.Error("registered output did not appear next cycle")
	}
}

func TestSeqSignalSemantics(t *testing.T) {
	// Swap without temporaries relies on reads seeing pre-cycle values.
	src := `
circuit swap {
  input go : bit;
  output oa : bits(4);
  output ob : bits(4);
  reg a : bits(4) = 4'd3;
  reg b : bits(4) = 4'd12;
  seq {
    if go == 1 { a = b; b = a; }
  }
  comb { oa = a; ob = b; }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(b1(1)))
	if out[0].Uint() != 3 || out[1].Uint() != 12 {
		t.Fatalf("pre-swap read wrong: %v %v", out[0], out[1])
	}
	out, _ = s.Step(vec(b1(0)))
	if out[0].Uint() != 12 || out[1].Uint() != 3 {
		t.Fatalf("swap failed: a=%d b=%d", out[0].Uint(), out[1].Uint())
	}
}

func TestCombChaining(t *testing.T) {
	src := `
circuit chain {
  input a : bits(4);
  output o : bits(4);
  wire t1 : bits(4);
  wire t2 : bits(4);
  comb {
    t1 = a xor 4'b1111;
    t2 = t1 + 4'd1;
    o = t2;
  }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(bitvec.New(5, 4)))
	want := ((5 ^ 0xF) + 1) & 0xF
	if out[0].Uint() != uint64(want) {
		t.Fatalf("chain = %d, want %d", out[0].Uint(), want)
	}
}

func TestCaseDispatch(t *testing.T) {
	src := `
circuit decode {
  input s : bits(2);
  output o : bits(4);
  const TWO : bits(2) = 2'd2;
  comb {
    case s {
      when 2'd0: { o = 4'b0001; }
      when 2'd1: { o = 4'b0010; }
      when TWO: { o = 4'b0100; }
      default: { o = 4'b1000; }
    }
  }
}`
	s := mustSim(t, src)
	want := []uint64{1, 2, 4, 8}
	for i, w := range want {
		out, _ := s.Step(vec(bitvec.New(uint64(i), 2)))
		if out[0].Uint() != w {
			t.Errorf("s=%d: o=%04b want %04b", i, out[0].Uint(), w)
		}
	}
}

func TestForLoopParity(t *testing.T) {
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
	s := mustSim(t, src)
	f := func(v uint8) bool {
		out, err := s.Step(vec(bitvec.New(uint64(v), 8)))
		if err != nil {
			return false
		}
		return out[0].IsTrue() == (bitvec.New(uint64(v), 8).PopCount()%2 == 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDynamicIndexOutOfRangeIsZero(t *testing.T) {
	src := `
circuit dyn {
  input a : bits(4);
  input i : bits(3);
  output o : bit;
  comb { o = a[i]; }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(bitvec.Ones(4), bitvec.New(6, 3)))
	if out[0].IsTrue() {
		t.Error("out-of-range dynamic index read non-zero")
	}
	out, _ = s.Step(vec(bitvec.Ones(4), bitvec.New(2, 3)))
	if !out[0].IsTrue() {
		t.Error("in-range dynamic index read zero")
	}
}

func TestRunResets(t *testing.T) {
	s := mustSim(t, counterSrc)
	seq := Sequence{vec(b1(1), b1(0)), vec(b1(1), b1(0)), vec(b1(1), b1(0))}
	out1, err := s.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s.Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		for j := range out1[i] {
			if !out1[i][j].Equal(out2[i][j]) {
				t.Fatalf("Run not deterministic after reset at cycle %d", i)
			}
		}
	}
}

func TestSequenceClone(t *testing.T) {
	seq := Sequence{vec(b1(1), b1(0))}
	cl := seq.Clone()
	cl[0][0] = b1(0)
	if !seq[0][0].IsTrue() {
		t.Error("Clone aliases original")
	}
}

func TestShiftOps(t *testing.T) {
	src := `
circuit sh {
  input a : bits(8);
  input n : bits(3);
  output l : bits(8);
  output r : bits(8);
  comb {
    l = a << n;
    r = a >> n;
  }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(bitvec.New(0b10010110, 8), bitvec.New(2, 3)))
	if out[0].Uint() != 0b01011000 {
		t.Errorf("shl = %08b", out[0].Uint())
	}
	if out[1].Uint() != 0b00100101 {
		t.Errorf("shr = %08b", out[1].Uint())
	}
}

func TestConcatSliceEval(t *testing.T) {
	src := `
circuit cs {
  input hi : bits(4);
  input lo : bits(4);
  output o : bits(8);
  output mid : bits(2);
  comb {
    o = hi ++ lo;
    mid = (hi ++ lo)[4:3];
  }
}`
	s := mustSim(t, src)
	out, _ := s.Step(vec(bitvec.New(0xA, 4), bitvec.New(0x5, 4)))
	if out[0].Uint() != 0xA5 {
		t.Errorf("concat = %02x", out[0].Uint())
	}
	if out[1].Uint() != 0b00 {
		t.Errorf("mid = %02b", out[1].Uint())
	}
}
