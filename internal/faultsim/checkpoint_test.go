package faultsim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/synth"
)

// TestCheckpointResumeBitIdentical pins the campaign resume contract: a
// session checkpointed at any window boundary, restored into a fresh
// simulator (any engine configuration, through a gob round-trip like the
// on-disk store's), finishes bit-identical to one that was never
// interrupted.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 120, 11)

	ref, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(tests)
	if err != nil {
		t.Fatal(err)
	}

	configs := []Config{
		{Options: engine.Options{Workers: 1}},
		{Options: engine.Options{Workers: 2}},
		{Options: engine.Options{Workers: 0}},
	}
	for _, cut := range []int{20, 60, 100} {
		for ci, cfg := range configs {
			label := fmt.Sprintf("cut=%d cfg=%d", cut, ci)
			first, err := cfg.New(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := first.Append(tests[:cut]); err != nil {
				t.Fatal(err)
			}
			ck := first.Checkpoint()
			if ck.Applied != cut {
				t.Fatalf("%s: checkpoint Applied = %d, want %d", label, ck.Applied, cut)
			}

			// Round-trip through gob, as the disk store would.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
				t.Fatal(err)
			}
			loaded := new(Checkpoint)
			if err := gob.NewDecoder(&buf).Decode(loaded); err != nil {
				t.Fatal(err)
			}

			// Resume in a fresh simulator under a different configuration.
			resumedCfg := configs[(ci+1)%len(configs)]
			resumed, err := resumedCfg.New(nl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(loaded, tests[:cut]); err != nil {
				t.Fatalf("%s: Restore: %v", label, err)
			}
			if resumed.Applied() != cut {
				t.Fatalf("%s: Applied() after restore = %d, want %d", label, resumed.Applied(), cut)
			}
			if _, err := resumed.Append(tests[cut:]); err != nil {
				t.Fatal(err)
			}
			got := resumed.Current().Clone()
			assertSameProfile(t, label, got, want)
		}
	}
}

// TestRestoreRejectsWrongStimulus pins the integrity check: restoring a
// checkpoint against stimulus it was not taken under must fail (the
// replay detects a frontier fault), not silently continue from the
// wrong machine state.
func TestRestoreRejectsWrongStimulus(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	tests := randPatterns(len(nl.PIs), 80, 3)
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(tests[:40]); err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint()

	other, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrong := randPatterns(len(nl.PIs), 40, 99)
	if err := other.Restore(ck, wrong); err == nil {
		t.Fatal("Restore accepted a checkpoint paired with the wrong stimulus")
	}
	if err := other.Restore(ck, tests[:10]); err == nil {
		t.Fatal("Restore accepted a truncated stimulus prefix")
	}
}

// TestRestoreValidation covers the structural rejects.
func TestRestoreValidation(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b01"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(nil, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if err := s.Restore(&Checkpoint{FirstDetected: []int{1}}, nil); err == nil {
		t.Error("short FirstDetected accepted")
	}
	n := len(s.Faults())
	bad := &Checkpoint{FirstDetected: make([]int, n), Frontier: []int{n + 3}}
	for i := range bad.FirstDetected {
		bad.FirstDetected[i] = -1
	}
	if err := s.Restore(bad, nil); err == nil {
		t.Error("out-of-range frontier index accepted")
	}
	both := &Checkpoint{FirstDetected: make([]int, n), Frontier: []int{0}}
	for i := range both.FirstDetected {
		both.FirstDetected[i] = -1
	}
	both.FirstDetected[0] = 5
	both.Applied = 6
	if err := s.Restore(both, make([]Pattern, 6)); err == nil {
		t.Error("fault listed both detected and on the frontier accepted")
	}

	// A detection index outside [-1, Applied) would index past the
	// coverage curve once the session continues.
	tests := randPatterns(len(nl.PIs), 20, 5)
	if _, err := s.Run(tests); err != nil {
		t.Fatal(err)
	}
	good := s.Checkpoint()
	det := -1
	for i, d := range good.FirstDetected {
		if d >= 0 {
			det = i
			break
		}
	}
	if det < 0 {
		t.Fatal("20 random cycles detected nothing on b01")
	}
	for _, d := range []int{1 << 40, -7} {
		ck := *good
		ck.FirstDetected = append([]int(nil), good.FirstDetected...)
		ck.FirstDetected[det] = d
		if err := s.Restore(&ck, tests); err == nil {
			t.Errorf("detection index %d accepted for %d applied cycles", d, ck.Applied)
		}
	}
	if err := s.Restore(good, tests); err != nil {
		t.Fatalf("uncorrupted checkpoint rejected: %v", err)
	}
}
