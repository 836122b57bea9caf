package mutscore

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/sim"
	"repro/internal/tpg"
)

// parityConfigs spans the interesting engine settings: the legacy serial
// interpreter (Workers 1), and the compiled engine at every lane width ×
// {fixed pools, the all-cores default}.
var parityConfigs = []Config{
	cfgOf(1, 0),
	cfgOf(2, 1), cfgOf(5, 1), cfgOf(0, 1),
	cfgOf(2, 4), cfgOf(0, 4),
	cfgOf(2, 8), cfgOf(0, 8),
	cfgOf(0, 0), // LaneWords 0: the lane.DefaultWords production setting
}

// cfgOf abbreviates the embedded engine.Options literal in test tables.
func cfgOf(workers, laneWords int) Config {
	return Config{Options: engine.Options{Workers: workers, LaneWords: laneWords}}
}

// TestEngineParity is the differential guarantee the ISSUE demands:
// Workers: 1 (legacy serial interpreter) and every parallel compiled
// configuration produce identical FirstKillCycles, Kills and
// EstimateEquivalence results, on a combinational and a sequential
// benchmark.
func TestEngineParity(t *testing.T) {
	for _, name := range []string{"c17", "b01", "b06"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustLoad(name)
			ms := mutation.Generate(c)
			if len(ms) == 0 {
				t.Fatal("no mutants")
			}
			seq := tpg.RandomSequence(c, 150, 21)

			var refCycles []int
			var refKills []bool
			var refEquiv []bool
			for _, cfg := range parityConfigs {
				label := fmt.Sprintf("workers=%d/lanewords=%d", cfg.Workers, cfg.LaneWords)
				cycles, err := newScorer(t, cfg, c, ms).FirstKillCycles(seq)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				kills, err := newScorer(t, cfg, c, ms).Kills(seq)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				equiv, err := newScorer(t, cfg, c, ms).EstimateEquivalence(nil, &EquivalenceOptions{Budget: 256, Seed: 9})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if refCycles == nil {
					refCycles, refKills, refEquiv = cycles, kills, equiv
					continue
				}
				for i := range ms {
					if cycles[i] != refCycles[i] {
						t.Errorf("%s: mutant %d (%s) first-kill %d, serial %d",
							label, i, ms[i].Desc, cycles[i], refCycles[i])
					}
					if kills[i] != refKills[i] {
						t.Errorf("%s: mutant %d kill flag %v, serial %v", label, i, kills[i], refKills[i])
					}
					if equiv[i] != refEquiv[i] {
						t.Errorf("%s: mutant %d equivalence flag %v, serial %v", label, i, equiv[i], refEquiv[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestEstimateEquivalenceParityWithExtras exercises the early-drop
// campaign path (mutants killed by the random budget are skipped for the
// extra sequences) on the compiled pool against the serial reference.
func TestEstimateEquivalenceParityWithExtras(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.CR, mutation.LOR)
	res, err := tpg.MutationTests(c, ms, &tpg.Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opts := &EquivalenceOptions{Budget: 64, Seed: 17}
	serial, err := newScorer(t, cfgOf(1, 0), c, ms).EstimateEquivalence([]sim.Sequence{res.Seq}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := newScorer(t, cfgOf(0, 0), c, ms).EstimateEquivalence([]sim.Sequence{res.Seq}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Errorf("mutant %d: serial %v, pooled %v", i, serial[i], pooled[i])
		}
	}
}
