package faultsim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/netlist"
)

// replanNetlist builds a sequential netlist whose collapsed fault list
// spills past the widest vector, so the initial W=8 plan holds several
// batches and every re-plan boundary (W8-merge, W8→W4, W4→W1) is
// reachable by retiring frontier slices.
func replanNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	nl := randomParityNetlist(t, 99, 4, 420)
	if n := len(Faults(nl)); n <= 8*64 {
		t.Fatalf("want > %d collapsed faults to span multiple W8 batches, got %d", 8*64, n)
	}
	return nl
}

// makeWindows splits a random test sequence into fixed-size Append
// windows, so the serial window-start step (where re-planning hooks in)
// runs many times per campaign.
func makeWindows(nl *netlist.Netlist, total, per int, seed int64) [][]Pattern {
	pats := randPatterns(len(nl.PIs), total, seed)
	var out [][]Pattern
	for lo := 0; lo < len(pats); lo += per {
		out = append(out, pats[lo:min(lo+per, len(pats))])
	}
	return out
}

// livePlanCost sums the per-window pass cost of the live plan.
func livePlanCost(s *Simulator) int {
	c := 0
	for _, w := range s.BatchWidths() {
		c += passCost(w)
	}
	return c
}

// retireStep retires the half-open frontier slice [lo,hi) after the
// given window. Negative bounds count from the frontier's end, so a
// schedule can shave the back ("retire the last word") or protect a
// tail ("retire everything but the last 40") without knowing how many
// faults the window's detections already dropped.
type retireStep struct {
	afterWindow int
	lo, hi      int
}

func (st retireStep) bounds(n int) (int, int) {
	lo, hi := st.lo, st.hi
	if lo < 0 {
		lo += n
	}
	if hi < 0 {
		hi += n
	}
	lo = max(0, min(lo, n))
	hi = max(lo, min(hi, n))
	return lo, hi
}

// runScheduled replays the same windowed Append + Retire schedule on a
// simulator built under cfg and returns the final first-detection
// profile (caller-owned) plus the session for white-box inspection.
// Identical schedules across engine configurations must produce
// identical profiles.
func runScheduled(t *testing.T, nl *netlist.Netlist, cfg Config, windows [][]Pattern, steps []retireStep) ([]int, *Simulator) {
	t.Helper()
	s, err := cfg.New(nl, nil)
	if err != nil {
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

func diffProfiles(t *testing.T, label string, got, want []int) {
	t.Helper()
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: fault %d first detected at %d, reference says %d", label, i, got[i], want[i])
			if bad++; bad > 8 {
				t.FailNow()
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// TestReplanRetireOrders drives the re-planner by retiring frontier
// words in three orders — the leading word, the trailing word, and a
// middle slice — and pins the result against the serial reference and
// the StaticPlan ablation. Each order then shaves the frontier to a
// ragged word, crossing the width boundaries on the way down.
func TestReplanRetireOrders(t *testing.T) {
	nl := replanNetlist(t)
	windows := makeWindows(nl, 96, 8, 5)
	orders := map[string][]retireStep{
		// Retire the frontier's leading word first, then everything but a
		// ragged 40-lane tail.
		"first": {
			{afterWindow: 1, lo: 0, hi: 64},
			{afterWindow: 3, lo: 0, hi: -40},
		},
		// Retire from the back: the last word first, then all but the
		// leading 40.
		"last": {
			{afterWindow: 1, lo: -64, hi: 1 << 30},
			{afterWindow: 3, lo: 40, hi: 1 << 30},
		},
		// Retire a middle slice, leaving live lanes on both sides.
		"middle": {
			{afterWindow: 1, lo: 100, hi: 420},
			{afterWindow: 3, lo: 10, hi: -3},
		},
	}
	for name, steps := range orders {
		t.Run(name, func(t *testing.T) {
			ref, _ := runScheduled(t, nl, Config{Options: engine.Options{Workers: 1}}, windows, steps)
			static, _ := runScheduled(t, nl, Config{StaticPlan: true}, windows, steps)
			replan, s := runScheduled(t, nl, Config{}, windows, steps)
			diffProfiles(t, "static vs reference", static, ref)
			diffProfiles(t, "replan vs reference", replan, ref)
			if got := s.BatchWidths(); len(got) > 1 || (len(got) == 1 && got[0] != 1) {
				t.Errorf("after shaving to a ragged word, want at most one W1 batch, got widths %v", got)
			}
		})
	}
}

// TestReplanSingleLiveWordBatch pins the single-live-word case: retiring
// everything but a handful of survivors scattered across the original
// batches must collapse the plan onto one scalar-specialized W1 machine,
// bit-identically.
func TestReplanSingleLiveWordBatch(t *testing.T) {
	nl := replanNetlist(t)
	windows := makeWindows(nl, 64, 8, 9)
	// Survivors: frontier positions 1, the middle one, and the second
	// from the end; everything else retires after the first window.
	steps := []retireStep{
		{afterWindow: 0, lo: 2, hi: -400},
		{afterWindow: 0, lo: 3, hi: -1},
		{afterWindow: 0, lo: 0, hi: 1},
	}
	ref, _ := runScheduled(t, nl, Config{Options: engine.Options{Workers: 1}}, windows, steps)
	replan, s := runScheduled(t, nl, Config{}, windows, steps)
	diffProfiles(t, "replan vs reference", replan, ref)
	if got := s.BatchWidths(); len(got) > 1 || (len(got) == 1 && got[0] != 1) {
		t.Errorf("want at most one W1 batch for the scattered survivors, got widths %v", got)
	}
}

// TestReplanBoundariesObserved asserts the compaction ladder actually
// fires — W8 batches merge, then narrow through W4 down to W1 — so the
// parity tests above exercise re-planned machines, not a plan that never
// changed. The plan cost must also be monotonically non-increasing (a
// re-plan only ever replaces a plan with a strictly cheaper one).
func TestReplanBoundariesObserved(t *testing.T) {
	nl := replanNetlist(t)
	s, err := Config{}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := s.BatchWidths(); len(w) < 2 || w[0] != 8 {
		t.Fatalf("initial plan should start with multiple batches at W8, got %v", w)
	}
	windows := makeWindows(nl, 96, 8, 5)
	// Frontier sizes that make each rung of the ladder the cheapest plan:
	// 520 merges the half-dead W8 batches into one, 200 plans a W4, 40 a
	// W1, 3 a near-empty W1 word.
	targets := []int{520, 200, 40, 3}
	seen := map[int]bool{}
	lastCost := livePlanCost(s)
	ti := 0
	for wi, win := range windows {
		if _, err := s.Append(win); err != nil {
			t.Fatal(err)
		}
		if c := livePlanCost(s); c > lastCost {
			t.Fatalf("window %d: plan cost grew %d -> %d", wi, lastCost, c)
		} else {
			lastCost = c
		}
		for _, w := range s.BatchWidths() {
			seen[w] = true
		}
		if ti < len(targets) {
			front := s.Frontier()
			for len(front) > targets[ti] {
				if err := s.Retire(front[len(front)-1]); err != nil {
					t.Fatal(err)
				}
				front = front[:len(front)-1]
			}
			ti++
		}
	}
	for _, w := range []int{8, 4, 1} {
		if !seen[w] {
			t.Errorf("compaction ladder never planned a W%d batch (saw %v)", w, seen)
		}
	}
	if got := s.BatchWidths(); len(got) > 1 || (len(got) == 1 && got[0] != 1) {
		t.Errorf("final plan: want at most one W1 batch, got %v", got)
	}
}

// TestReplanAppendTestDiscipline pins the interaction with the
// reset-per-test discipline: retiring between tests (the ATPG drop-sim
// pattern) re-plans survivors onto fresh machines mid-session, and the
// transplanted flip-flop state must NOT leak into the next test — every
// machine restarts from power-on, so the profile matches the serial
// reference exactly.
func TestReplanAppendTestDiscipline(t *testing.T) {
	nl := replanNetlist(t)
	tests := makeWindows(nl, 60, 6, 11) // ten six-cycle power-on tests
	n := len(Faults(nl))
	run := func(cfg Config) []int {
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ti, test := range tests {
			if _, err := s.AppendTest(test); err != nil {
				t.Fatal(err)
			}
			// Halve the frontier between tests (keep the front), crossing
			// every width boundary over the campaign.
			front := s.Frontier()
			keep := n >> uint(ti+1)
			if keep < len(front) {
				for _, fi := range front[keep:] {
					if err := s.Retire(fi); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return s.Current().Clone().FirstDetected
	}
	ref := run(Config{Options: engine.Options{Workers: 1}})
	static := run(Config{StaticPlan: true})
	replan := run(Config{})
	diffProfiles(t, "static vs reference", static, ref)
	diffProfiles(t, "replan vs reference", replan, ref)
}

// TestStaticPlanKnob pins the ablation knob itself: under StaticPlan
// whole batches may retire, but no surviving lane is ever moved — every
// live batch is one of the initially planned batches, always.
func TestStaticPlanKnob(t *testing.T) {
	nl := replanNetlist(t)
	windows := makeWindows(nl, 64, 8, 5)
	static, err := Config{StaticPlan: true}.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial := map[seqBatch]bool{}
	for _, b := range static.batches {
		initial[b] = true
	}
	for wi, win := range windows {
		if _, err := static.Append(win); err != nil {
			t.Fatal(err)
		}
		for _, b := range static.batches {
			if !initial[b] {
				t.Fatalf("window %d: StaticPlan scheduled a batch (W%d) outside the initial plan", wi, b.width())
			}
		}
		// Retire half the frontier to hand a re-planner its best case.
		front := static.Frontier()
		for _, fi := range front[len(front)/2:] {
			if err := static.Retire(fi); err != nil {
				t.Fatal(err)
			}
		}
	}
}
