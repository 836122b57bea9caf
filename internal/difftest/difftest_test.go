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
// engines at several worker counts. Both Config types share the same
// knob shape, so one table drives both harnesses. The fault simulator
// picks its own lane widths (faultsim's parity and re-plan tests arm
// each of them).
type engineConfig struct {
	workers   int
	packPairs int // ATPG pack width (atpg.Options.PackPairs)
}

var engineConfigs = []engineConfig{
	{workers: 1}, // serial reference
	{workers: 2},
	{workers: 3},
	{workers: 0}, // production setting
}

// options projects the table entry onto the shared engine surface.
func (e engineConfig) options() engine.Options {
	return engine.Options{Workers: e.workers}
}

func (e engineConfig) String() string {
	return fmt.Sprintf("workers=%d/packpairs=%d", e.workers, e.packPairs)
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

// wideCircuit generates a shape with eight outputs, so that more of its
// logic reaches one; odd seeds are combinational. The fault simulator
// gives lanes only to faults whose site reaches a primary output, and
// fuzzCircuit's shapes keep 1 to 112 of those, which plan W1 and W4
// batches only. Wide seeds 0 and 2 keep 555 and 668: a full W8 batch
// plus a W1 and a W4 tail.
func wideCircuit(t *testing.T, seed int64) *hdl.Circuit {
	t.Helper()
	cfg := randcirc.Config{Seed: seed, Inputs: 4, Outputs: 8, Regs: 6, Wires: 4, ExtraStmts: 6}
	if seed%2 == 1 {
		cfg.Regs = -1
	}
	c, err := randcirc.Generate(cfg)
	if err != nil {
		t.Fatalf("wide seed %d: %v", seed, err)
	}
	return c
}

// TestFaultSimProfiles fuzzes the fault simulator: every engine
// configuration must reproduce the serial reference's FirstDetected
// profile exactly, on random circuits × random gate-level test sets.
// The compiled sequential batches must come in every lane width.
func TestFaultSimProfiles(t *testing.T) {
	type fuzzCase struct {
		name string
		c    *hdl.Circuit
		seed int64
	}
	var cases []fuzzCase
	for seed := int64(0); seed < 6; seed++ {
		cases = append(cases, fuzzCase{fmt.Sprintf("seed=%d", seed), fuzzCircuit(t, seed), seed})
	}
	for _, seed := range []int64{0, 2} {
		cases = append(cases, fuzzCase{fmt.Sprintf("wide=%d", seed), wideCircuit(t, seed), seed})
	}
	widths := map[int]bool{}
	for _, fc := range cases {
		t.Run(fc.name, func(t *testing.T) {
			c := fc.c
			nl, err := synth.Synthesize(c)
			if err != nil {
				t.Fatal(err)
			}
			pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 96, fc.seed+500))
			var ref *faultsim.Result
			var refCfg engineConfig
			for _, ec := range engineConfigs {
				s, err := faultsim.Config{Options: ec.options()}.New(nl, nil)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				for _, w := range s.BatchWidths() {
					widths[w] = true
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
	for _, w := range []int{8, 4, 1} {
		if !widths[w] {
			t.Errorf("no compiled batch ran at W%d (saw %v); the parity would not cover it", w, widths)
		}
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
			ts, err := tpg.NewSession(c, ms, nil)
			if err != nil {
				t.Fatal(err)
			}
			var ref []int
			var refCfg engineConfig
			for _, ec := range engineConfigs {
				s := mutscore.Config{Options: ec.options()}.NewScorer(ts)
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
