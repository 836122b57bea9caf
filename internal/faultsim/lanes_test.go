package faultsim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/lane"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// deadLogicNetlist builds every shape the PO reachability must get right
// and returns it with the gates that reach a primary output:
//
//   - g1 = AND(a, b) drives PO o1; a also feeds the dead d1 = OR(a, b),
//     so g1/in0 is a branch fault on a live gate whose driver feeds dead
//     logic, and d1/in0 one on a dead gate;
//   - loop is a flip-flop whose D is XOR(loop, a): a dead self-loop;
//   - f2 = DFF(b) reaches PO o2 only through f3 = DFF(f2);
//   - o2 is driven straight by the flip-flop f3 and o4 straight by the PI
//     c; e is a PI that nothing reads;
//   - k0 = CONST0 feeds g3 = OR(k0, c), which drives PO o3; k1 = CONST1
//     has no reader.
func deadLogicNetlist(t *testing.T) (*netlist.Netlist, map[int]bool) {
	t.Helper()
	n := netlist.New("deadlogic")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	n.AddInput("e")
	loop := n.AddDFF("loop", 0)
	f2 := n.AddDFF("f2", 1)
	f3 := n.AddDFF("f3", 0)
	g1 := n.AddGate(netlist.And, a, b)
	n.AddGate(netlist.Or, a, b) // d1
	x := n.AddGate(netlist.Xor, loop, a)
	n.SetDFFInput(loop, x)
	n.SetDFFInput(f2, b)
	n.SetDFFInput(f3, f2)
	k0 := n.AddGate(netlist.Const0)
	n.AddGate(netlist.Const1) // k1
	g3 := n.AddGate(netlist.Or, k0, c)
	n.MarkOutput(g1, "o1")
	n.MarkOutput(f3, "o2")
	n.MarkOutput(g3, "o3")
	n.MarkOutput(c, "o4")
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n, map[int]bool{a: true, b: true, c: true, f2: true, f3: true, g1: true, k0: true, g3: true}
}

// TestReachesPO pins the reachability on the hand-built shapes, which
// faults get lanes, and that the Workers: 1 reference, which simulates
// every fault, detects none of the others.
func TestReachesPO(t *testing.T) {
	nl, want := deadLogicNetlist(t)
	reach := reachesPO(nl)
	for g := range nl.Gates {
		if reach[g] != want[g] {
			t.Errorf("gate %d (%s %s): reaches a PO = %v, want %v", g, nl.Gates[g].Type, nl.Gates[g].Name, reach[g], want[g])
		}
	}
	g1 := nl.POs[0]
	var branchLive, branchDead bool
	for _, f := range Faults(nl) {
		branchLive = branchLive || f.Site.Pin == 0 && f.Site.Gate == g1
		branchDead = branchDead || f.Site.Pin == 0 && f.Site.Gate == g1+1
	}
	if !branchLive || !branchDead {
		t.Fatalf("fault list lacks the branch faults on g1 (%v) and d1 (%v)", branchLive, branchDead)
	}
	tests := randPatterns(len(nl.PIs), 256, 9)
	ref, err := cfgOf(1).New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ref.Run(tests)
	if err != nil {
		t.Fatal(err)
	}
	var laned []int
	for fi, f := range ref.Faults() {
		if want[f.Site.Gate] {
			laned = append(laned, fi)
		} else if wantRes.FirstDetected[fi] >= 0 {
			t.Errorf("the reference detects %s, whose site reaches no PO", f.Desc)
		}
	}
	for _, cfg := range []Config{cfgOf(2), cfgOf(0)} {
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := planned(s); fmt.Sprint(got) != fmt.Sprint(laned) {
			t.Errorf("%s: first plan gives lanes to %v, want %v", labelOf(cfg), got, laned)
		}
		got, err := s.Run(tests)
		if err != nil {
			t.Fatal(err)
		}
		assertSameProfile(t, labelOf(cfg), got, wantRes)
	}
}

// planned lists the faults of the session's live batches, in lane
// order.
func planned(s *Simulator) []int {
	var out []int
	for _, b := range s.batches {
		switch c := b.(type) {
		case *seqBatchW[lane.W1]:
			out = append(out, c.faults...)
		case *seqBatchW[lane.W4]:
			out = append(out, c.faults...)
		case *seqBatchW[lane.W8]:
			out = append(out, c.faults...)
		}
	}
	return out
}

// TestLargeDesignsLaneObservableFaults pins what the pruning buys on the
// large-netlist workload's designs: the sequential design's first plan
// gives lanes to its 11224 faults that reach a PO while the frontier
// still lists all 26883, and the combinational design's first progress
// report already counts its 10293 faults without a lane as settled.
func TestLargeDesignsLaneObservableFaults(t *testing.T) {
	seq := largeNetlist(t, seqLargeDesign)
	s, err := New(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, lanes := len(s.Frontier()), len(planned(s)); n != 26883 || lanes != 11224 {
		t.Errorf("sequential design: frontier %d, lanes %d; want 26883 and 11224", n, lanes)
	}
	comb := largeNetlist(t, combLargeDesign)
	var log progressLog
	cs, err := Config{Options: engine.Options{Progress: log.hook}}.New(comb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Run(randPatterns(len(comb.PIs), 64, 3)); err != nil {
		t.Fatal(err)
	}
	reports := log.take()
	checkProgress(t, "combinational Run", reports, true)
	if first := reports[0]; first.Total != 12973 || first.Done < 12973-2680 {
		t.Errorf("combinational design: first report %+v, want Total 12973 and Done >= %d", first, 12973-2680)
	}
}

// TestUnlanedFrontierContract runs a session whose frontier holds only
// faults without a lane through RunOn, Append, AppendTest, Retire and
// Checkpoint/Restore: every call keeps the progress contract, the
// faults stay on the frontier undetected until retired, no batch is
// planned, and the Workers: 1 reference, which simulates them, agrees.
func TestUnlanedFrontierContract(t *testing.T) {
	for _, name := range []string{"c499", "b04"} {
		nl, err := synth.Synthesize(circuits.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		reach := reachesPO(nl)
		var dead []int
		for fi, f := range Faults(nl) {
			if !reach[f.Site.Gate] {
				dead = append(dead, fi)
			}
		}
		if len(dead) < 2 {
			t.Fatalf("%s: %d faults without a lane; the test needs two", name, len(dead))
		}
		pats := randPatterns(len(nl.PIs), 96, 5)
		for _, workers := range []int{1, 2, 0} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var log progressLog
				s, err := Config{Options: engine.Options{Workers: workers, Progress: log.hook}}.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				call := func(label string, res *Result, err error, front []int) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkProgress(t, label, log.take(), true)
					if n := res.DetectedCount(); n != 0 {
						t.Errorf("%s: %d faults detected, want none", label, n)
					}
					if got := s.Frontier(); fmt.Sprint(got) != fmt.Sprint(front) {
						t.Errorf("%s: frontier %v, want %v", label, got, front)
					}
					if w := s.BatchWidths(); len(w) != 0 {
						t.Errorf("%s: batches %v planned for faults without a lane", label, w)
					}
				}
				res, err := s.RunOn(pats[:32], dead)
				call("RunOn", res, err, dead)
				res, err = s.Append(pats[32:64])
				call("Append", res, err, dead)
				if err := s.Retire(dead[0]); err != nil {
					t.Fatal(err)
				}
				front := dead[1:]
				res, err = s.Append(pats[64:])
				call("Append after Retire", res, err, front)

				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(s.Checkpoint()); err != nil {
					t.Fatal(err)
				}
				ck := new(Checkpoint)
				if err := gob.NewDecoder(&buf).Decode(ck); err != nil {
					t.Fatal(err)
				}
				if err := s.Restore(ck, pats); err != nil {
					t.Fatalf("Restore: %v", err)
				}
				call("Restore", s.Current(), nil, front)
				res, err = s.Append(pats[:16])
				call("Append after Restore", res, err, front)

				// A zero-length RunOn applies nothing and reports nothing.
				if _, err := s.RunOn(nil, dead); err != nil {
					t.Fatal(err)
				}
				checkProgress(t, "empty RunOn", log.take(), false)
				for _, test := range splitTests(pats[:24]) {
					res, err = s.AppendTest(test)
					call("AppendTest", res, err, dead)
				}
			})
		}
	}
}
