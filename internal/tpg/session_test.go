package tpg

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/mutation"
)

// sameResult asserts two generation results are bit-identical: the
// sequences, kill flags, round counts and segment boundaries all match.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("%s: rounds %d, want %d", label, got.Rounds, want.Rounds)
	}
	if len(got.Seq) != len(want.Seq) {
		t.Fatalf("%s: sequence length %d, want %d", label, len(got.Seq), len(want.Seq))
	}
	for cyc := range want.Seq {
		if vectorsDiffer(got.Seq[cyc], want.Seq[cyc]) {
			t.Fatalf("%s: cycle %d differs", label, cyc)
		}
	}
	if len(got.Killed) != len(want.Killed) {
		t.Fatalf("%s: %d kill flags, want %d", label, len(got.Killed), len(want.Killed))
	}
	for i := range want.Killed {
		if got.Killed[i] != want.Killed[i] {
			t.Errorf("%s: kill flag %d is %v, want %v", label, i, got.Killed[i], want.Killed[i])
		}
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: %d segments, want %d", label, len(got.Segments), len(want.Segments))
	}
	for i := range want.Segments {
		if got.Segments[i] != want.Segments[i] {
			t.Errorf("%s: segment %d ends at %d, want %d", label, i, got.Segments[i], want.Segments[i])
		}
	}
}

// TestSessionMatchesMutationTests is the acceptance pin: a Session over
// the full population must reproduce the one-shot MutationTests result
// exactly — for full-population runs, for subset runs against one-shot
// runs over the same subset, for repeated (state-reusing) runs, and at
// several Workers settings (LaneWords is documented inert here, but the
// engine surface is exercised anyway).
func TestSessionMatchesMutationTests(t *testing.T) {
	for _, name := range []string{"b01", "b06"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustLoad(name)
			ms := mutation.Generate(c, mutation.CR, mutation.LOR, mutation.ROR)
			if len(ms) < 6 {
				t.Fatalf("population too small: %d", len(ms))
			}
			for _, mode := range []Mode{PerMutant, PerMutantSkip} {
				for _, eng := range []engine.Options{{}, {Workers: 1}, {Workers: 3, LaneWords: 4}} {
					label := fmt.Sprintf("mode=%d/workers=%d/lanewords=%d", mode, eng.Workers, eng.LaneWords)
					opts := &Options{Options: eng, Mode: mode, Seed: 17, MaxLen: 200}
					want, err := MutationTests(c, ms, opts)
					if err != nil {
						t.Fatal(err)
					}
					s, err := NewSession(c, ms, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.Generate(nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, label+"/full", got, want)

					// Re-running the same campaign on the same session must
					// reproduce it: machine state fully resets between runs.
					again, err := s.Generate(nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, label+"/rerun", again, want)

					// A subset run must equal a one-shot over that subset.
					subset := []int{0, 2, 3, len(ms) - 1}
					subMuts := make([]*mutation.Mutant, len(subset))
					for i, mi := range subset {
						subMuts[i] = ms[mi]
					}
					wantSub, err := MutationTests(c, subMuts, opts)
					if err != nil {
						t.Fatal(err)
					}
					gotSub, err := s.Generate(subset, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, label+"/subset", gotSub, wantSub)
				}
			}
		})
	}
}

// TestSessionGenerateRejectsBadTarget pins target-index validation.
func TestSessionGenerateRejectsBadTarget(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.CR)
	s, err := NewSession(c, ms, &Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate([]int{0, len(ms)}, nil); err == nil {
		t.Error("out-of-range target index accepted")
	}
	if _, err := s.Generate([]int{-1}, nil); err == nil {
		t.Error("negative target index accepted")
	}
	if _, err := s.Generate([]int{1, 0, 1}, nil); err == nil {
		t.Error("duplicate target index accepted (would alias one machine)")
	}
}

// TestSessionProgress checks the per-target progress reports of the
// dedicated disciplines: monotone completion counts ending at the
// target-set size.
func TestSessionProgress(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.CR)
	var reports []engine.Stats
	opts := &Options{Seed: 3}
	opts.Progress = func(s engine.Stats) { reports = append(reports, s) }
	s, err := NewSession(c, ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(nil, nil); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	last := 0
	for _, r := range reports {
		if r.Total != len(ms) {
			t.Fatalf("report total %d, want %d", r.Total, len(ms))
		}
		if r.Done < last {
			t.Fatalf("progress went backwards: %d after %d", r.Done, last)
		}
		last = r.Done
	}
	if last != len(ms) {
		t.Errorf("final progress %d, want %d", last, len(ms))
	}
}
