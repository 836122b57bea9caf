package atpg

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultsim"
)

// Edge cases for Generate and GenerateSequential: non-positive and
// depth-1 unrolls, zero-fault and already-detected fault lists, and
// cancellation, on both engines where the knob applies.

// TestGenerateSequentialNonPositiveFrames pins the depth default end to
// end: frames <= 0 means "unset" (default depth 8).
func TestGenerateSequentialNonPositiveFrames(t *testing.T) {
	nl := buildToggle(t)
	for _, frames := range []int{0, -1} {
		rep, err := GenerateSequential(nl, frames, nil, nil)
		if err != nil {
			t.Fatalf("Frames=%d: %v", frames, err)
		}
		if rep.Frames != 8 {
			t.Errorf("Frames=%d: ran at depth %d, want default 8", frames, rep.Frames)
		}
	}
}

func TestGenerateSequentialZeroFaults(t *testing.T) {
	nl := buildToggle(t)
	for _, workers := range []int{0, 1} {
		rep, err := GenerateSequential(nl, 2, []faultsim.Fault{}, &Options{
			Options: engine.Options{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 0 || len(rep.Tests) != 0 || rep.PodemCalls != 0 {
			t.Errorf("workers=%d: empty fault list produced %+v", workers, rep)
		}
		if rep.Coverage() != 0 {
			t.Errorf("workers=%d: empty coverage %v", workers, rep.Coverage())
		}
	}
}

// TestGenerateSequentialDepthOne pins the degenerate single-frame unroll
// on both engines: frame 0 is the power-on state, so only faults
// observable in the very first cycle are detectable, and the engines must
// agree on exactly which.
func TestGenerateSequentialDepthOne(t *testing.T) {
	nl := buildShift2(t)
	legacy, err := GenerateSequential(nl, 1, nil, &Options{Options: engine.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := GenerateSequential(nl, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Detected != compiled.Detected || legacy.Untestable != compiled.Untestable ||
		len(legacy.Tests) != len(compiled.Tests) {
		t.Fatalf("depth-1 engines disagree: legacy %+v compiled %+v", legacy, compiled)
	}
	for ti := range legacy.Tests {
		if len(legacy.Tests[ti]) != 1 || len(compiled.Tests[ti]) != 1 {
			t.Fatalf("depth-1 test %d has %d/%d cycles", ti, len(legacy.Tests[ti]), len(compiled.Tests[ti]))
		}
	}
}

// TestGenerateSequentialAlreadyDetectedList targets a fault list whose
// members are all detected by the first generated test: one PODEM call
// must suffice and every later target is dropped, on both engines.
func TestGenerateSequentialAlreadyDetectedList(t *testing.T) {
	nl := buildToggle(t)
	all := faultsim.Faults(nl)
	base, err := GenerateSequential(nl, 4, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Tests) == 0 {
		t.Fatal("no tests generated")
	}
	// Find the faults the first test alone detects and re-run ATPG over
	// just that list: the first target's test drops all of them.
	fs, err := faultsim.New(nl, all)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fs.Run(base.Tests[0])
	if err != nil {
		t.Fatal(err)
	}
	var detected []faultsim.Fault
	for i, d := range res.FirstDetected {
		if d >= 0 {
			detected = append(detected, all[i])
		}
	}
	if len(detected) < 2 {
		t.Skip("first test detects too few faults to be interesting")
	}
	for _, workers := range []int{0, 1} {
		rep, err := GenerateSequential(nl, 4, detected, &Options{
			Options: engine.Options{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected != len(detected) {
			t.Errorf("workers=%d: %d of %d pre-detectable faults detected", workers, rep.Detected, len(detected))
		}
	}
}

func TestGenerateZeroFaults(t *testing.T) {
	nl := buildMux(t)
	for _, workers := range []int{0, 1} {
		rep, err := Generate(nl, []faultsim.Fault{}, &Options{Options: engine.Options{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total != 0 || len(rep.Vectors) != 0 {
			t.Errorf("workers=%d: empty fault list produced %+v", workers, rep)
		}
	}
}

// TestATPGCancellation pins cooperative cancellation through the shared
// engine surface: a cancelled context stops both generators with
// context.Canceled.
func TestATPGCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nl := buildToggle(t)
	if _, err := GenerateSequential(nl, 2, nil, &Options{
		Options: engine.Options{Ctx: ctx},
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential cancellation returned %v", err)
	}
	comb := buildMux(t)
	if _, err := Generate(comb, nil, &Options{Options: engine.Options{Ctx: ctx}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("combinational cancellation returned %v", err)
	}
}
