package faultsim

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// allocCase is one session the allocation pins warm up: a circuit, the
// faults RunOn narrows it to (nil: all of them) and whether its batches
// take the event step.
type allocCase struct {
	name    string
	nl      *netlist.Netlist
	include []int
	steps   bool
}

// allocCases are b01 and b03, whose batches run the full pass, and the
// event-step design's fault subset, whose single batch runs
// Machine.Step.
func allocCases(t *testing.T) []allocCase {
	t.Helper()
	var out []allocCase
	for _, name := range []string{"b01", "b03"} {
		nl, err := synth.Synthesize(circuits.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, allocCase{name: name, nl: nl})
	}
	nl := eventNetlist(t)
	return append(out, allocCase{name: "event", nl: nl, include: eventSubset(nl), steps: true})
}

// warmSession builds the case's session, narrowed to its faults and
// with nothing applied yet.
func (c allocCase) warmSession(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(c.nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.include != nil {
		if _, err := s.RunOn(nil, c.include); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// checkSteps fails an event case whose warm rounds did not step.
func (c allocCase) checkSteps(t *testing.T, s *Simulator, before PathStats) {
	t.Helper()
	if c.steps && s.PathStats().EventCycles == before.EventCycles {
		t.Fatalf("the warm rounds took no event step (%+v)", s.PathStats())
	}
}

// TestAppendSteadyStateAllocs pins the allocation diet: once a
// sequential session is warm (scratch grown, batches armed, the result
// view sized), an Append round allocates nothing — the session owns and
// recycles every buffer the window needs, and single-batch windows take
// the serial inline path with no pool fan-out. The only tolerated blip
// is the one free-list append when the batch happens to retire mid-run.
// The event-step case covers the good net rows and the Step scratch.
func TestAppendSteadyStateAllocs(t *testing.T) {
	for _, c := range allocCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.warmSession(t)
			tests := randPatterns(len(c.nl.PIs), 8, 11)
			for i := 0; i < 4; i++ {
				if _, err := s.Append(tests); err != nil {
					t.Fatal(err)
				}
			}
			before := s.PathStats()
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.Append(tests); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0.5 {
				t.Errorf("warm Append allocates %.1f objects per round, want ~0", allocs)
			}
			c.checkSteps(t, s, before)
		})
	}
}

// TestAppendTestSteadyStateAllocs is the same pin for the reset-per-test
// discipline: rewinding every machine to power-on costs no allocations
// either.
func TestAppendTestSteadyStateAllocs(t *testing.T) {
	for _, c := range allocCases(t) {
		t.Run(c.name, func(t *testing.T) {
			s := c.warmSession(t)
			test := randPatterns(len(c.nl.PIs), 6, 23)
			for i := 0; i < 4; i++ {
				if _, err := s.AppendTest(test); err != nil {
					t.Fatal(err)
				}
			}
			before := s.PathStats()
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := s.AppendTest(test); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0.5 {
				t.Errorf("warm AppendTest allocates %.1f objects per round, want ~0", allocs)
			}
			c.checkSteps(t, s, before)
		})
	}
}

// TestAppendResultOwnership pins the Result contract the diet rests on:
// Append returns a session-owned view the next call overwrites, Clone
// detaches a caller-owned copy, and Run's result is already detached.
func TestAppendResultOwnership(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 12, 5)
	view, err := s.Append(tests[:4])
	if err != nil {
		t.Fatal(err)
	}
	kept := view.Clone()
	if kept.Patterns != 4 || len(kept.FirstDetected) != len(view.FirstDetected) {
		t.Fatalf("clone diverges from its source: %+v", kept)
	}
	later, err := s.Append(tests[4:])
	if err != nil {
		t.Fatal(err)
	}
	if view != later {
		t.Fatalf("Append returned a fresh Result; the contract says it reuses the session view")
	}
	if view.Patterns != 12 {
		t.Fatalf("view reports %d patterns, want 12 (overwritten in place)", view.Patterns)
	}
	if kept.Patterns != 4 {
		t.Fatalf("clone mutated by a later Append: %d patterns", kept.Patterns)
	}

	// Run detaches: a later Append on the same session must not touch it.
	ran, err := s.Run(tests[:6])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(tests[6:]); err != nil {
		t.Fatal(err)
	}
	if ran.Patterns != 6 {
		t.Fatalf("Run result mutated by a later Append: %d patterns", ran.Patterns)
	}
}
