package faultsim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/synth"
)

// splitTests carves a pattern list into power-on test sequences of
// varied lengths, including single-cycle tests.
func splitTests(pats []Pattern) [][]Pattern {
	lens := []int{5, 1, 7, 3, 1, 9}
	var out [][]Pattern
	lo := 0
	for i := 0; lo < len(pats); i++ {
		n := min(lens[i%len(lens)], len(pats)-lo)
		out = append(out, pats[lo:lo+n])
		lo += n
	}
	return out
}

// TestAppendTestMatchesRunOnPerTest pins the reset-per-test session
// against the discipline it replaces: a fresh RunOn over the shrinking
// undetected subset for every test, for every engine configuration. The
// session must detect exactly the same faults test by test while keeping
// its batches armed across tests.
func TestAppendTestMatchesRunOnPerTest(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	tests := splitTests(randPatterns(len(nl.PIs), 80, 21))
	for _, cfg := range parityConfigs {
		label := labelOf(cfg)
		sess, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		oneshot, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		remaining := make([]int, len(sess.Faults()))
		for i := range remaining {
			remaining[i] = i
		}
		cycles := 0
		for ti, test := range tests {
			got, err := sess.AppendTest(test)
			if err != nil {
				t.Fatalf("%s: test %d: %v", label, ti, err)
			}
			want, err := oneshot.RunOn(test, remaining)
			if err != nil {
				t.Fatal(err)
			}
			next := remaining[:0]
			for _, fi := range remaining {
				detSess := got.FirstDetected[fi] >= cycles
				detRef := want.FirstDetected[fi] >= 0
				if detSess != detRef {
					t.Fatalf("%s: test %d fault %d: session detected=%v, per-test RunOn detected=%v",
						label, ti, fi, detSess, detRef)
				}
				if detRef {
					// Detection offsets inside the test must agree too.
					if got.FirstDetected[fi]-cycles != want.FirstDetected[fi] {
						t.Fatalf("%s: test %d fault %d: session cycle %d, RunOn cycle %d",
							label, ti, fi, got.FirstDetected[fi]-cycles, want.FirstDetected[fi])
					}
				} else {
					next = append(next, fi)
				}
			}
			remaining = next
			cycles += len(test)
		}
		if sess.Applied() != cycles {
			t.Errorf("%s: Applied() = %d, want %d", label, sess.Applied(), cycles)
		}
		if len(sess.Frontier()) != len(remaining) {
			t.Errorf("%s: frontier %d faults, per-test bookkeeping says %d",
				label, len(sess.Frontier()), len(remaining))
		}
	}
}

// TestAppendTestZeroLengthNoop pins that a zero-length test applies
// nothing: no cycles, no detections, the whole frontier still live, and
// the continuous-Append discipline still open, so a following Append
// matches a fresh Run.
func TestAppendTestZeroLengthNoop(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b06"))
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 40, 23)
	for _, cfg := range parityConfigs {
		label := labelOf(cfg)
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, empty := range [][]Pattern{nil, {}} {
			res, err := s.AppendTest(empty)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Patterns != 0 || res.DetectedCount() != 0 || len(s.Frontier()) != len(s.Faults()) {
				t.Fatalf("%s: zero-length test applied %d cycles and detected %d faults, %d of %d live",
					label, res.Patterns, res.DetectedCount(), len(s.Frontier()), len(s.Faults()))
			}
		}
		got, err := s.Append(tests)
		if err != nil {
			t.Fatalf("%s: Append after a zero-length test: %v", label, err)
		}
		fresh, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(tests)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.FirstDetected, want.FirstDetected) {
			t.Errorf("%s: Append after a zero-length test diverges from a fresh Run", label)
		}
	}
}

func labelOf(cfg Config) string {
	return fmt.Sprintf("workers=%d", cfg.Workers)
}

// TestAppendAfterAppendTestRejected pins the discipline guard: once a
// sequential session has applied reset-per-test stimuli, a continuous
// Append is a contract violation, and Reset clears it.
func TestAppendAfterAppendTestRejected(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 6, 3)
	if _, err := s.AppendTest(tests); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(tests); err == nil {
		t.Fatal("Append accepted after AppendTest")
	}
	// The mixing error is a usage error, not a poisoned session: more
	// AppendTests still run, and Reset restores Append.
	if _, err := s.AppendTest(tests); err != nil {
		t.Fatalf("AppendTest after rejected Append: %v", err)
	}
	s.Reset()
	if _, err := s.Append(tests); err != nil {
		t.Fatalf("Append after Reset: %v", err)
	}
}

// TestAppendTestPoisonBeatsDisciplineGuard pins error precedence: a
// session poisoned by a cancelled AppendTest keeps reporting the sticky
// cancellation from Append, not the discipline-mixing error.
func TestAppendTestPoisonBeatsDisciplineGuard(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
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
	tests := randPatterns(len(nl.PIs), 6, 3)
	cancel()
	if _, err := s.AppendTest(tests); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled AppendTest returned %v", err)
	}
	if _, err := s.Append(tests); !errors.Is(err, context.Canceled) {
		t.Fatalf("poisoned session's Append returned %v, want the sticky cancellation", err)
	}
}

// TestAppendTestCombinationalDelegates checks that on combinational
// circuits AppendTest is Append (patterns carry no state), including the
// absence of the discipline guard.
func TestAppendTestCombinationalDelegates(t *testing.T) {
	nl := buildMux(t)
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	pats := exhaustivePatterns(3)
	if _, err := s.AppendTest(pats[:4]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Append(pats[4:])
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := want.Run(pats)
	if err != nil {
		t.Fatal(err)
	}
	assertSameProfile(t, "comb AppendTest", res, ref)
}

// TestRetire pins the frontier-retirement contract across engines: a
// retired fault stops being simulated, never reports a detection, and
// retiring every fault of a batch releases it.
func TestRetire(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	tests := splitTests(randPatterns(len(nl.PIs), 60, 33))
	for _, cfg := range parityConfigs {
		label := labelOf(cfg)
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Retire a spread of faults before anything runs, and one more
		// between tests (exercising armed-batch lane clearing).
		pre := []int{0, 1, 65, 130}
		for _, fi := range pre {
			if err := s.Retire(fi); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		var res *Result
		for ti, test := range tests {
			if res, err = s.AppendTest(test); err != nil {
				t.Fatalf("%s: test %d: %v", label, ti, err)
			}
			if ti == 0 {
				if len(s.Frontier()) > 0 {
					if err := s.Retire(s.Frontier()[0]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, fi := range pre {
			if res.FirstDetected[fi] != -1 {
				t.Errorf("%s: retired fault %d reported detected at %d", label, fi, res.FirstDetected[fi])
			}
		}
		for _, fi := range s.Frontier() {
			for _, p := range pre {
				if fi == p {
					t.Errorf("%s: retired fault %d still on the frontier", label, fi)
				}
			}
		}
		// Out-of-range retire errors; double retire is a no-op.
		if err := s.Retire(len(s.Faults())); err == nil {
			t.Errorf("%s: out-of-range Retire accepted", label)
		}
		if err := s.Retire(0); err != nil {
			t.Errorf("%s: double Retire errored: %v", label, err)
		}
	}
}

// TestRetireWholeBatch retires every fault so all batches release, then
// checks further windows are no-ops that still count cycles.
func TestRetireWholeBatch(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Faults() {
		if err := s.Retire(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Frontier()); got != 0 {
		t.Fatalf("frontier %d after retiring everything", got)
	}
	res, err := s.AppendTest(randPatterns(len(nl.PIs), 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 4 || res.DetectedCount() != 0 {
		t.Errorf("empty-frontier window: %d patterns, %d detected", res.Patterns, res.DetectedCount())
	}
}
