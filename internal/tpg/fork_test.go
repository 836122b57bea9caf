package tpg

import (
	"reflect"
	"testing"

	"repro/internal/hdl"
	"repro/internal/mutation"
)

// historySrc passes hdl.Check(Strict): o is assigned on both paths. Each
// of its two SDL mutants deletes one of those assignments, so on that
// path o keeps its value from the previous cycle, and across campaigns
// from the previous campaign: sim.Machine.Reset restores registers only.
const historySrc = `
circuit hist {
  input a : bit;
  input x : bit;
  input y : bit;
  output o : bit;
  comb {
    if a == 1 { o = x; } else { o = y; }
  }
}`

// TestForkSharesMachineHistory pins what Fork shares: the mutant
// machines, whose history carries over from one campaign to the next. A
// campaign on a fork followed by one on its session must equal two
// consecutive campaigns on one session; a fork that built machines of
// its own would leave the second campaign looking like the first.
func TestForkSharesMachineHistory(t *testing.T) {
	c, err := hdl.Parse(historySrc)
	if err != nil {
		t.Fatal(err)
	}
	ms := mutation.Generate(c, mutation.SDL)
	if len(ms) != 2 {
		t.Fatalf("%d SDL mutants, want 2", len(ms))
	}
	opts := &Options{Mode: PerMutant, Seed: 1}
	newSession := func() *Session {
		s, err := NewSession(c, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	generate := func(s *Session) *Result {
		res, err := s.Generate(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	s := newSession()
	fresh, used := generate(s), generate(s)
	if reflect.DeepEqual(fresh, used) {
		t.Fatalf("fixture shows no machine history: both campaigns killed %v", fresh.Killed)
	}

	s = newSession()
	sameResult(t, "fork's campaign", generate(s.Fork()), fresh)
	sameResult(t, "session's campaign after the fork's", generate(s), used)
}
