package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/synth"
)

// splitPatterns carves a test set into deterministic random chunks,
// deliberately including empty and single-pattern chunks — the shapes
// the Append contract calls out.
func splitPatterns(tests []Pattern, seed int64) [][]Pattern {
	rng := rand.New(rand.NewSource(seed))
	var out [][]Pattern
	lo := 0
	for lo < len(tests) {
		var n int
		switch rng.Intn(4) {
		case 0:
			n = 0 // empty chunk
		case 1:
			n = 1
		default:
			n = 1 + rng.Intn(len(tests)-lo)
		}
		out = append(out, tests[lo:lo+n])
		lo += n
	}
	out = append(out, nil) // trailing empty Append
	return out
}

// assertSameProfile compares two results field by field.
func assertSameProfile(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Patterns != want.Patterns {
		t.Fatalf("%s: %d patterns applied, want %d", label, got.Patterns, want.Patterns)
	}
	for i := range want.FirstDetected {
		if got.FirstDetected[i] != want.FirstDetected[i] {
			t.Errorf("%s: fault %d first detected at %d, want %d",
				label, i, got.FirstDetected[i], want.FirstDetected[i])
		}
	}
}

// TestAppendMatchesRun is the session acceptance pin on benchmark
// circuits: chunked Appends must equal the one-shot Run bit for bit, for
// every engine configuration, on sequential and combinational shapes.
func TestAppendMatchesRun(t *testing.T) {
	for _, name := range []string{"b03", "c432"} {
		t.Run(name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(name))
			if err != nil {
				t.Fatal(err)
			}
			tests := randPatterns(len(nl.PIs), 120, 11)
			for ci, cfg := range parityConfigs {
				label := labelOf(cfg)
				oneshot, err := cfg.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oneshot.Run(tests)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := cfg.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				var got *Result
				for _, chunk := range splitPatterns(tests, int64(100+ci)) {
					if got, err = inc.Append(chunk); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				assertSameProfile(t, label, got, want)
				if inc.Applied() != len(tests) {
					t.Errorf("%s: Applied() = %d, want %d", label, inc.Applied(), len(tests))
				}
			}
		})
	}
}

// TestAppendPrefixSnapshots checks every intermediate Append result
// equals a fresh one-shot Run over the same prefix — the property that
// makes round-based campaigns equivalent to prefix re-simulation.
func TestAppendPrefixSnapshots(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 96, 5)
	inc, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tests); lo += 7 {
		hi := min(lo+7, len(tests))
		got, err := inc.Append(tests[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(tests[:hi])
		if err != nil {
			t.Fatal(err)
		}
		assertSameProfile(t, fmt.Sprintf("prefix %d", hi), got, want)
	}
}

// TestAppendAfterRunOnExtendsSubset pins the subset-session contract:
// Append after RunOn keeps simulating only the included frontier.
func TestAppendAfterRunOnExtendsSubset(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	var subset []int
	for i := 0; i < len(s.Faults()); i += 2 {
		subset = append(subset, i)
	}
	tests := randPatterns(len(nl.PIs), 80, 9)
	if _, err := s.RunOn(tests[:30], subset); err != nil {
		t.Fatal(err)
	}
	got, err := s.Append(tests[30:])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunOn(tests, subset)
	if err != nil {
		t.Fatal(err)
	}
	assertSameProfile(t, "subset", got, want)
	inSubset := make(map[int]bool)
	for _, fi := range subset {
		inSubset[fi] = true
	}
	for i, d := range got.FirstDetected {
		if !inSubset[i] && d != -1 {
			t.Errorf("excluded fault %d detected at %d", i, d)
		}
	}
	// The frontier only ever contains included, undetected faults.
	for _, fi := range s.Frontier() {
		if !inSubset[fi] {
			t.Errorf("frontier leaked excluded fault %d", fi)
		}
		if got.FirstDetected[fi] >= 0 {
			t.Errorf("frontier kept detected fault %d", fi)
		}
	}
}

// TestFrontierShrinks checks the frontier bookkeeping across appends.
func TestFrontierShrinks(t *testing.T) {
	nl := buildMux(t)
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Frontier()); got != len(s.Faults()) {
		t.Fatalf("fresh frontier has %d faults, want %d", got, len(s.Faults()))
	}
	res, err := s.Append(exhaustivePatterns(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Fatalf("exhaustive coverage %v", res.Coverage())
	}
	if got := len(s.Frontier()); got != 0 {
		t.Fatalf("frontier not empty after full detection: %d", got)
	}
	// Appending to an exhausted frontier is a no-op that still counts
	// patterns.
	res, err = s.Append(exhaustivePatterns(3)[:2])
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 10 {
		t.Errorf("Patterns = %d, want 10", res.Patterns)
	}
}

// TestAppendCancelPoisonsSession pins the sticky-error contract: a
// cancelled Append fails, later Appends report the same error without
// running, and Reset (or Run) clears it.
func TestAppendCancelPoisonsSession(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := Config{}
	cfg.Ctx = ctx
	s, err := cfg.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 64, 3)
	cancel()
	if _, err := s.Append(tests); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Append returned %v", err)
	}
	if _, err := s.Append(tests); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned session returned %v", err)
	}
	// The session stays poisoned until reset; Run resets, but the
	// still-cancelled context fails it again — swap the context out to
	// prove Reset clears the sticky error.
	s.cfg.Ctx = context.Background()
	s.Reset()
	res, err := s.Append(tests)
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != len(tests) {
		t.Errorf("recovered session applied %d patterns, want %d", res.Patterns, len(tests))
	}
}
