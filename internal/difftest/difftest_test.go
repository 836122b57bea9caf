// Package difftest is the cross-engine differential fuzz harness: random
// behavioral circuits (randcirc) × random stimuli, asserting that every
// engine configuration — the serial reference engines, and the compiled
// engines at every lane width × several worker counts — produces
// identical FirstDetected (fault simulation) and FirstKill (mutant
// scoring) profiles. CI runs this under -race, so the harness also
// shakes out data races in the batch schedulers.
//
// The package-level parity tests in faultsim and mutscore pin the engines
// on the paper's benchmark circuits; this harness covers the circuit
// space those benchmarks don't: generated corner cases with odd widths,
// degenerate blocks, and whatever else randcirc mutates into existence.
package difftest

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/randcirc"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// engineConfigs spans the serial reference (Workers 1) and the compiled
// engines at {W=1, W=4, W=8, auto} × worker counts. Both Config types
// share the same knob shape, so one table drives both harnesses.
type engineConfig struct {
	workers   int
	laneWords int
	packPairs int // ATPG pack width (atpg.Options/SeqOptions.PackPairs)
}

var engineConfigs = []engineConfig{
	{workers: 1, laneWords: 1}, // serial reference (LaneWords ignored)
	{workers: 2, laneWords: 1},
	{workers: 0, laneWords: 1},
	{workers: 2, laneWords: 4},
	{workers: 3, laneWords: 4},
	{workers: 0, laneWords: 4},
	{workers: 2, laneWords: 8},
	{workers: 0, laneWords: 8},
	{workers: 0, laneWords: 0}, // production auto setting
}

// options projects the table entry onto the shared engine surface.
func (e engineConfig) options() engine.Options {
	return engine.Options{Workers: e.workers, LaneWords: e.laneWords}
}

func (e engineConfig) String() string {
	return fmt.Sprintf("workers=%d/lanewords=%d/packpairs=%d", e.workers, e.laneWords, e.packPairs)
}

// fuzzCircuit generates one deterministic random circuit. Sequential and
// combinational shapes alternate by seed so both fault-sim schedulers are
// fuzzed.
func fuzzCircuit(t *testing.T, seed int64) *hdl.Circuit {
	t.Helper()
	cfg := randcirc.Config{
		Seed:       seed,
		Inputs:     2 + int(seed%3),
		Outputs:    2,
		Wires:      3,
		ExtraStmts: 5,
	}
	if seed%2 == 1 {
		cfg.Regs = -1 // combinational
	} else {
		cfg.Regs = 3
	}
	c, err := randcirc.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return c
}

// TestFaultSimProfiles fuzzes the fault simulator: every engine
// configuration must reproduce the serial reference's FirstDetected
// profile exactly, on random circuits × random gate-level test sets.
func TestFaultSimProfiles(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := fuzzCircuit(t, seed)
			nl, err := synth.Synthesize(c)
			if err != nil {
				t.Fatal(err)
			}
			pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 96, seed+500))
			var ref *faultsim.Result
			var refCfg engineConfig
			for _, ec := range engineConfigs {
				s, err := faultsim.Config{Options: ec.options()}.New(nl, nil)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				res, err := s.Run(pats)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				if ref == nil {
					ref, refCfg = res, ec
					continue
				}
				for i := range ref.FirstDetected {
					if res.FirstDetected[i] != ref.FirstDetected[i] {
						t.Errorf("%s: fault %d (%s) first detected at %d, %s says %d",
							ec, i, s.Faults()[i].Desc, res.FirstDetected[i], refCfg, ref.FirstDetected[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestFirstKillProfiles fuzzes mutant scoring: every engine configuration
// must reproduce the serial interpreter's FirstKillCycles profile
// exactly, on random circuits × random behavioral sequences.
func TestFirstKillProfiles(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := fuzzCircuit(t, seed)
			ms := mutation.Generate(c)
			if len(ms) == 0 {
				t.Skip("population empty for this circuit")
			}
			seq := tpg.RandomSequence(c, 80, seed+900)
			var ref []int
			var refCfg engineConfig
			for _, ec := range engineConfigs {
				s, err := mutscore.Config{Options: ec.options()}.NewScorer(c, ms)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				cycles, err := s.FirstKillCycles(seq)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				if ref == nil {
					ref, refCfg = cycles, ec
					continue
				}
				for i := range ref {
					if cycles[i] != ref[i] {
						t.Errorf("%s: mutant %d (%s) first-kill %d, %s says %d",
							ec, i, ms[i].Desc, cycles[i], refCfg, ref[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestCrossSubstrateCoverage is the harness's end-to-end anchor: for a
// sequential random circuit, the behavioral sequence that kills mutants
// must fault-simulate identically through every engine configuration all
// the way to the coverage curve (the quantity the paper's tables are
// built from).
func TestCrossSubstrateCoverage(t *testing.T) {
	c := fuzzCircuit(t, 2) // sequential shape
	nl, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	seq := tpg.RandomSequence(c, 64, 7)
	pats := tpg.ToPatterns(c, seq)
	var refCurve []float64
	for _, ec := range engineConfigs {
		s, err := faultsim.Config{Options: ec.options()}.New(nl, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(pats)
		if err != nil {
			t.Fatal(err)
		}
		curve := res.Curve()
		if refCurve == nil {
			refCurve = curve
			continue
		}
		for k := range refCurve {
			if curve[k] != refCurve[k] {
				t.Fatalf("%s: coverage after %d cycles %.6f, reference %.6f",
					ec, k+1, curve[k], refCurve[k])
			}
		}
	}
}
