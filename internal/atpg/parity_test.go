package atpg

import (
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// packWidths is the pack-scheduler matrix every parity anchor runs: a
// single pair, a narrow pack that forces heavy pair turnover, and the
// full-capacity auto setting. Detection order is defined by target
// index, so every width must reproduce the serial reference's reports
// byte for byte.
var packWidths = []int{1, 4, 0}

// replayDetected applies each test from power-on to a fresh fault-sim
// session over nl's full fault list and returns how many faults the set
// detects — a count that never goes through the generators' commit.
func replayDetected(t *testing.T, nl *netlist.Netlist, tests [][]faultsim.Pattern) int {
	t.Helper()
	fs, err := faultsim.New(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for _, test := range tests {
		res, err := fs.AppendTest(test)
		if err != nil {
			t.Fatal(err)
		}
		detected = res.DetectedCount()
	}
	return detected
}

// checkAccounting checks a report's bookkeeping independently of the
// commit that produced it: every target has exactly one outcome, and
// the replayed test set detects every fault counted as detected and,
// beyond those, at most the aborted ones — a fault proven undetectable
// must stay undetected.
func checkAccounting(t *testing.T, label string, detected, undetectable, aborted, total, replayed int) {
	t.Helper()
	if detected+undetectable+aborted != total {
		t.Errorf("%s: %d detected + %d undetectable + %d aborted != %d targets",
			label, detected, undetectable, aborted, total)
	}
	if replayed < detected || replayed > detected+aborted {
		t.Errorf("%s: replay detects %d faults, want %d..%d", label, replayed, detected, detected+aborted)
	}
}

// TestGenerateParityBenchmarks pins the compiled combinational engine to
// the serial reference on the paper's benchmark circuits at every pack
// width: identical vectors and effort counters, with accounting that
// replays. The difftest fuzz covers the random-circuit space; this is
// the named-circuit anchor.
func TestGenerateParityBenchmarks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		backtracks int // 0 = default; capped where aborts dominate runtime
	}{
		{"c17", 0}, {"c432", 128}, {"c499", 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			check := func(label string, r *Report) {
				// Combinational patterns are independent, so the whole
				// vector set replays as one window.
				checkAccounting(t, label, r.Detected, r.Redundant, r.Aborted, r.Total,
					replayDetected(t, nl, [][]faultsim.Pattern{r.Vectors}))
			}
			serial, err := Generate(nl, nil, &Options{MaxBacktracks: tc.backtracks,
				FillSeed: 7, Options: engine.Options{Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			check("serial", serial)
			for _, pairs := range packWidths {
				compiled, err := Generate(nl, nil, &Options{MaxBacktracks: tc.backtracks, FillSeed: 7,
					PackPairs: pairs})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(compiled, serial) {
					t.Fatalf("packpairs=%d disagrees with serial:\ncompiled %+v\nserial   %+v",
						pairs, compiled, serial)
				}
				check("compiled", compiled)
			}
		})
	}
}

// TestGenerateSequentialParityBenchmarks is the sequential anchor: the
// pack scheduler on the compiled dual-rail twin must reproduce the
// serial interpreter on every sequential benchmark circuit, test set
// and all, and the report's accounting must replay.
func TestGenerateSequentialParityBenchmarks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		frames     int
		backtracks int // 0 = default; capped where aborts dominate runtime
	}{
		{"b01", 6, 48}, {"b02", 6, 0}, {"b03", 4, 48},
		{"b04", 3, 32}, {"b06", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			opts := func(workers, pairs int) *Options {
				return &Options{MaxBacktracks: tc.backtracks,
					FillSeed: 3, PackPairs: pairs, Options: engine.Options{Workers: workers}}
			}
			check := func(label string, r *SeqReport) {
				checkAccounting(t, label, r.Detected, r.Untestable, r.Aborted, r.Total,
					replayDetected(t, nl, r.Tests))
			}
			serial, err := GenerateSequential(nl, tc.frames, nil, opts(1, 0))
			if err != nil {
				t.Fatal(err)
			}
			check("serial", serial)
			for _, pairs := range packWidths {
				compiled, err := GenerateSequential(nl, tc.frames, nil, opts(0, pairs))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(compiled, serial) {
					t.Fatalf("packpairs=%d disagrees with serial:\ncompiled %+v\nserial   %+v",
						pairs, compiled, serial)
				}
				check("compiled", compiled)
			}
		})
	}
}
