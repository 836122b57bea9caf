package atpg

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// buildToggle returns q' = q XOR en with q observed.
func buildToggle(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("toggle")
	en := n.AddInput("en")
	q := n.AddDFF("q", 0)
	d := n.AddGate(netlist.Xor, q, en)
	n.SetDFFInput(q, d)
	n.MarkOutput(q, "qo")
	return n
}

// buildShift2 returns a 2-stage shift register.
func buildShift2(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("shift2")
	d := n.AddInput("d")
	f1 := n.AddDFF("f1", 0)
	f2 := n.AddDFF("f2", 0)
	b := n.AddGate(netlist.Buf, d)
	n.SetDFFInput(f1, b)
	mid := n.AddGate(netlist.Not, f1)
	n.SetDFFInput(f2, mid)
	n.MarkOutput(f2, "q")
	return n
}

func TestUnrollShape(t *testing.T) {
	nl := buildToggle(t)
	u, m, err := netlist.Unroll(nl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.IsSequential() {
		t.Fatal("unrolled netlist has flip-flops")
	}
	if len(u.PIs) != 4*len(nl.PIs) {
		t.Errorf("PIs = %d, want %d", len(u.PIs), 4*len(nl.PIs))
	}
	if len(u.POs) != 4*len(nl.POs) {
		t.Errorf("POs = %d, want %d", len(u.POs), 4*len(nl.POs))
	}
	if m.Frames != 4 || m.PIsPerFrame != 1 {
		t.Errorf("map = %+v", m)
	}
}

// TestUnrollMatchesSequentialSim drives the same stimulus through the
// sequential evaluator and the unrolled combinational one.
func TestUnrollMatchesSequentialSim(t *testing.T) {
	for _, build := range []func(*testing.T) *netlist.Netlist{buildToggle, buildShift2} {
		nl := build(t)
		const frames = 5
		u, m, err := netlist.Unroll(nl, frames)
		if err != nil {
			t.Fatal(err)
		}
		seqEval, err := netlist.NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		combEval, err := netlist.NewEvaluator(u)
		if err != nil {
			t.Fatal(err)
		}
		// Stimulus: lane-0 bit pattern per cycle per PI.
		stim := [][]uint64{{1}, {0}, {1}, {1}, {0}}
		var want [][]uint64
		seqEval.Reset()
		for _, in := range stim {
			out, err := seqEval.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			cp := make([]uint64, len(out))
			for i := range out {
				cp[i] = out[i] & 1
			}
			want = append(want, cp)
			seqEval.Clock()
		}
		flat := make([]uint64, 0, frames*m.PIsPerFrame)
		for _, in := range stim {
			for _, v := range in {
				flat = append(flat, v&1)
			}
		}
		got, err := combEval.Eval(flat)
		if err != nil {
			t.Fatal(err)
		}
		nPOs := len(nl.POs)
		for f := 0; f < frames; f++ {
			for p := 0; p < nPOs; p++ {
				if got[f*nPOs+p]&1 != want[f][p] {
					t.Fatalf("%s frame %d PO %d: unrolled %d sequential %d",
						nl.Name, f, p, got[f*nPOs+p]&1, want[f][p])
				}
			}
		}
	}
}

func TestGenerateSequentialToggle(t *testing.T) {
	nl := buildToggle(t)
	rep, err := GenerateSequential(nl, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected == 0 {
		t.Fatal("no faults detected")
	}
	if rep.Coverage() < 0.8 {
		t.Errorf("toggle coverage %.2f; want high", rep.Coverage())
	}
	// Verify the reported coverage by independent simulation: replay the
	// tests as power-on sequences on one reset-per-test session.
	fs, err := faultsim.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, test := range rep.Tests {
		if _, err := fs.AppendTest(test); err != nil {
			t.Fatal(err)
		}
	}
	if cov := fs.Current().Coverage(); cov < rep.Coverage() {
		t.Errorf("replayed coverage %.2f < reported %.2f", cov, rep.Coverage())
	}
}

func TestGenerateSequentialShift2NeedsFrames(t *testing.T) {
	nl := buildShift2(t)
	// One frame cannot propagate input faults through two flops.
	shallow, err := GenerateSequential(nl, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := GenerateSequential(nl, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if deep.Coverage() <= shallow.Coverage() {
		t.Errorf("deeper horizon did not help: %.2f vs %.2f",
			deep.Coverage(), shallow.Coverage())
	}
	if deep.Coverage() < 0.9 {
		t.Errorf("4-frame coverage %.2f on a depth-2 pipeline", deep.Coverage())
	}
}

func TestGenerateSequentialRejectsCombinational(t *testing.T) {
	nl := buildMux(t)
	if _, err := GenerateSequential(nl, 0, nil, nil); err == nil {
		t.Fatal("combinational netlist accepted")
	}
}

func TestSitesInFramesDFFPins(t *testing.T) {
	nl := buildToggle(t)
	_, m, err := netlist.Unroll(nl, 3)
	if err != nil {
		t.Fatal(err)
	}
	var q int
	for _, g := range nl.Gates {
		if g.Type == netlist.DFF {
			q = g.ID
		}
	}
	// D-pin fault skips frame 0 (constant state has no D pin).
	pinSites := m.SitesInFrames(nl, netlist.FaultSite{Gate: q, Pin: 0, Stuck: 1})
	if len(pinSites) != 2 {
		t.Errorf("D-pin fault maps to %d sites, want 2", len(pinSites))
	}
	// Output fault appears in every frame.
	outSites := m.SitesInFrames(nl, netlist.FaultSite{Gate: q, Pin: -1, Stuck: 1})
	if len(outSites) != 3 {
		t.Errorf("output fault maps to %d sites, want 3", len(outSites))
	}
}

func TestUnrollRejectsZeroFrames(t *testing.T) {
	if _, _, err := netlist.Unroll(buildToggle(t), 0); err == nil {
		t.Fatal("0 frames accepted")
	}
}
