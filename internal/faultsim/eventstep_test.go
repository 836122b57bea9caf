package faultsim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/randcirc"
	"repro/internal/synth"
)

// eventNetlist is a randcirc design (816 gates, 725 instructions, 49
// flip-flops, 2885 collapsed faults) on which the production rule takes
// the event step: a batch of neighbouring faults injects few enough of
// its instructions, and most of the faults it carries stay undetected.
func eventNetlist(t testing.TB) *netlist.Netlist {
	t.Helper()
	c, err := randcirc.Generate(randcirc.Config{Seed: 3, Inputs: 8, Outputs: 8, Regs: 8, Wires: 16, MaxWidth: 12, MaxDepth: 5, ExtraStmts: 16})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// eventSubset is 360 consecutive faults given lanes (their sites reach
// a primary output), from two thirds of the way into the fault list:
// the shape of a production W8 batch. The Workers: 1 reference
// simulates it in a fraction of a second, and the production rule steps
// most of its batch-cycles, in Append windows and in AppendTest's
// power-on tests alike. 70% of this design's faults reach no output, so
// a plain slice of the list would leave the batch a third of its lanes.
func eventSubset(nl *netlist.Netlist) []int {
	faults, reach := Faults(nl), reachesPO(nl)
	var out []int
	for fi := 2 * len(faults) / 3; fi < len(faults) && len(out) < 360; fi++ {
		if reach[faults[fi].Site.Gate] {
			out = append(out, fi)
		}
	}
	return out
}

// eventConfigs are parityConfigs plus the production setting with the
// initial plan pinned.
func eventConfigs() []Config {
	static := cfgOf(0)
	static.StaticPlan = true
	return append(append([]Config(nil), parityConfigs...), static)
}

func eventLabel(cfg Config) string {
	return fmt.Sprintf("%s/static=%v", labelOf(cfg), cfg.StaticPlan)
}

// requireSteps fails unless the session ran some batch-cycles on the
// event step since its last reset.
func requireSteps(t *testing.T, label string, s *Simulator) {
	t.Helper()
	if st := s.PathStats(); st.EventCycles == 0 || st.EventEvals == 0 {
		t.Fatalf("%s: no batch-cycle took the event step (%+v); the test would not exercise it", label, st)
	}
}

// TestEventStepMatchesReference runs the event-step design's fault
// subset through every engine setting, one-shot and in chunked Appends
// (RunOn for the first chunk, so the session is narrowed to the
// subset), and demands the Workers: 1 reference's profile. The
// production setting must have stepped, with re-planning on and with
// StaticPlan.
func TestEventStepMatchesReference(t *testing.T) {
	nl := eventNetlist(t)
	sub := eventSubset(nl)
	tests := randPatterns(len(nl.PIs), 128, 3)
	ref, err := cfgOf(1).New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunOn(tests, sub)
	if err != nil {
		t.Fatal(err)
	}
	if want.DetectedCount() == 0 {
		t.Fatal("the reference detects nothing in the subset; the comparison would be vacuous")
	}
	chunks := splitPatterns(tests, 17)
	for _, cfg := range eventConfigs() {
		if cfg.Serial() {
			continue // the reference itself
		}
		label := eventLabel(cfg)
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.RunOn(tests, sub)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameProfile(t, label+"/run", got, want)
		if cfg.Workers == 0 {
			requireSteps(t, label+"/run", s)
		}
		if _, err := s.RunOn(chunks[0], sub); err != nil {
			t.Fatal(err)
		}
		for _, ch := range chunks[1:] {
			if _, err := s.Append(ch); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		assertSameProfile(t, label+"/chunked", s.Current(), want)
		if cfg.Workers == 0 {
			requireSteps(t, label+"/chunked", s)
		}
	}
}

// TestEventStepReplanAndRetire drives the event-step design's subset
// through 16-cycle windows, retiring frontier slices so the re-planner
// moves the stepping batch onto a narrower machine, and pins the
// profile against the serial reference, with re-planning on and with
// StaticPlan.
func TestEventStepReplanAndRetire(t *testing.T) {
	nl := eventNetlist(t)
	sub := eventSubset(nl)
	windows := makeWindows(nl, 96, 16, 7)
	steps := []retireStep{{afterWindow: 1, lo: 0, hi: 100}, {afterWindow: 3, lo: -120, hi: -1}}
	run := func(cfg Config) ([]int, *Simulator) {
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOn(nil, sub); err != nil {
			t.Fatal(err)
		}
		for wi, win := range windows {
			if _, err := s.Append(win); err != nil {
				t.Fatal(err)
			}
			for _, st := range steps {
				if st.afterWindow != wi {
					continue
				}
				front := s.Frontier()
				lo, hi := st.bounds(len(front))
				for _, fi := range front[lo:hi] {
					if err := s.Retire(fi); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return s.Current().Clone().FirstDetected, s
	}
	want, _ := run(cfgOf(1))
	got, s := run(cfgOf(0))
	diffProfiles(t, "replan", got, want)
	requireSteps(t, "replan", s)
	if w := s.BatchWidths(); len(w) == 0 || w[0] == 8 {
		t.Fatalf("live plan %v: retiring should have re-planned onto narrower machines", w)
	}
	static := cfgOf(0)
	static.StaticPlan = true
	got, s = run(static)
	diffProfiles(t, "static", got, want)
	requireSteps(t, "static", s)
}

// TestEventStepAppendTestRetire pins the reset-per-test discipline on
// the event step: power-on tests appended with AppendTest, with faults
// retired before the first test and between tests, against the serial
// reference running the same schedule.
func TestEventStepAppendTestRetire(t *testing.T) {
	nl := eventNetlist(t)
	sub := eventSubset(nl)
	tests := splitTests(randPatterns(len(nl.PIs), 96, 41))
	run := func(cfg Config) ([]int, *Simulator) {
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOn(nil, sub); err != nil {
			t.Fatal(err)
		}
		for _, fi := range sub[:40:40] {
			if err := s.Retire(fi); err != nil {
				t.Fatal(err)
			}
		}
		for ti, test := range tests {
			if _, err := s.AppendTest(test); err != nil {
				t.Fatal(err)
			}
			if front := s.Frontier(); ti%4 == 1 && len(front) > 10 {
				for _, fi := range front[len(front)-10:] {
					if err := s.Retire(fi); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return s.Current().Clone().FirstDetected, s
	}
	want, _ := run(cfgOf(1))
	for _, cfg := range []Config{cfgOf(0), cfgOf(2)} {
		got, s := run(cfg)
		diffProfiles(t, labelOf(cfg), got, want)
		if cfg.Workers == 0 {
			requireSteps(t, labelOf(cfg), s)
		}
	}
}

// TestEventStepCheckpointResume checkpoints a stepping session, round
// trips the checkpoint through gob, restores it into a fresh session
// and finishes the run there: the profile must equal the uninterrupted
// run's.
func TestEventStepCheckpointResume(t *testing.T) {
	nl := eventNetlist(t)
	sub := eventSubset(nl)
	tests := randPatterns(len(nl.PIs), 128, 13)
	whole, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.RunOn(tests, sub)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{32, 80} {
		label := fmt.Sprintf("cut=%d", cut)
		first, err := New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.RunOn(tests[:cut], sub); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(first.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		ck := new(Checkpoint)
		if err := gob.NewDecoder(&buf).Decode(ck); err != nil {
			t.Fatal(err)
		}
		resumed, err := New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Restore(ck, tests[:cut]); err != nil {
			t.Fatalf("%s: Restore: %v", label, err)
		}
		if _, err := resumed.Append(tests[cut:]); err != nil {
			t.Fatal(err)
		}
		assertSameProfile(t, label, resumed.Current(), want)
		requireSteps(t, label, resumed)
	}
}

// TestPathStats pins the counters' bookkeeping: every live batch-cycle
// lands on exactly one path, the step never evaluates more than a full
// pass would, Reset clears the counts, and neither a combinational
// session nor the serial reference counts anything.
func TestPathStats(t *testing.T) {
	nl := eventNetlist(t)
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOn(randPatterns(len(nl.PIs), 64, 5), eventSubset(nl)); err != nil {
		t.Fatal(err)
	}
	st := s.PathStats()
	if st.FullCycles+st.EventCycles == 0 || st.FullCycles+st.EventCycles > 64 {
		t.Fatalf("one batch over 64 cycles counted %+v", st)
	}
	if st.EventEvals > st.EventCycles*nl.CombGateCount() {
		t.Fatalf("the step evaluated %d instructions in %d cycles of a %d-instruction program", st.EventEvals, st.EventCycles, nl.CombGateCount())
	}
	s.Reset()
	if st := s.PathStats(); st != (PathStats{}) {
		t.Fatalf("Reset left %+v", st)
	}
	ref, err := cfgOf(1).New(nl, eventSubsetFaults(nl))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(randPatterns(len(nl.PIs), 8, 5)); err != nil {
		t.Fatal(err)
	}
	if st := ref.PathStats(); st != (PathStats{}) {
		t.Fatalf("the serial reference counted %+v", st)
	}
	comb, err := synth.Synthesize(circuits.MustLoad("c17"))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := New(comb, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Run(randPatterns(len(comb.PIs), 100, 5)); err != nil {
		t.Fatal(err)
	}
	if st := cs.PathStats(); st != (PathStats{}) {
		t.Fatalf("a combinational session counted %+v", st)
	}
}

// eventSubsetFaults is the subset as a fault list of its own.
func eventSubsetFaults(nl *netlist.Netlist) []Fault {
	all := Faults(nl)
	var out []Fault
	for _, fi := range eventSubset(nl)[:32] {
		out = append(out, all[fi])
	}
	return out
}

// TestPaperCircuitsKeepFullPass pins the path the paper's sequential
// circuits take under the default configuration: the full pass
// throughout, in 64-cycle Appends over a long random campaign (where
// re-planning leaves narrow tails), in one-shot Runs and in the
// reset-per-test discipline. Their batches inject most of their gates,
// and the step measured slower there.
func TestPaperCircuitsKeepFullPass(t *testing.T) {
	for _, name := range []string{"b01", "b02", "b03", "b04", "b06"} {
		nl, err := synth.Synthesize(circuits.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			pats := randPatterns(len(nl.PIs), 2048, seed)
			s, err := Config{Options: engine.Options{}}.New(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			check := func(how string) {
				t.Helper()
				if st := s.PathStats(); st.EventCycles != 0 || st.FullCycles == 0 {
					t.Errorf("%s seed %d %s: %+v, want every batch-cycle on the full pass", name, seed, how, st)
				}
			}
			for at := 0; at < len(pats); at += 64 {
				if _, err := s.Append(pats[at : at+64]); err != nil {
					t.Fatal(err)
				}
			}
			check("Append")
			if _, err := s.Run(pats[:256]); err != nil {
				t.Fatal(err)
			}
			check("Run")
			s.Reset()
			for _, test := range splitTests(pats[:200]) {
				if _, err := s.AppendTest(test); err != nil {
					t.Fatal(err)
				}
			}
			check("AppendTest")
		}
	}
}
