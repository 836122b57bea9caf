package mutscore

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/mutation"
	"repro/internal/tpg"
)

// parityConfigs spans the interesting engine settings: the legacy serial
// interpreter (Workers 1), and the compiled engine on fixed pools and on
// the all-cores default (the production setting).
var parityConfigs = []Config{cfgOf(1), cfgOf(2), cfgOf(3), cfgOf(5), cfgOf(0)}

// cfgOf abbreviates the embedded engine.Options literal in test tables.
func cfgOf(workers int) Config {
	return Config{Options: engine.Options{Workers: workers}}
}

// TestEngineParity is the differential guarantee the ISSUE demands:
// Workers: 1 (legacy serial interpreter) and every parallel compiled
// configuration produce identical FirstKillCycles, Kills and
// EstimateEquivalence results, on a combinational and a sequential
// benchmark. A scorer on a session whose own machines already ran
// generation campaigns must score the same too: it shares the session's
// programs, not their machine state.
func TestEngineParity(t *testing.T) {
	for _, name := range []string{"c17", "b01", "b06"} {
		t.Run(name, func(t *testing.T) {
			c := circuits.MustLoad(name)
			ms := mutation.Generate(c)
			if len(ms) == 0 {
				t.Fatal("no mutants")
			}
			seq := tpg.RandomSequence(c, 150, 21)
			equivOpts := &EquivalenceOptions{Budget: 256, Seed: 9}
			used, err := tpg.NewSession(c, ms, nil)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				if _, err := used.Generate(nil, &tpg.Options{Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
			onUsed := func(cfg Config) *Scorer { return cfg.NewScorer(used) }

			var refCycles []int
			var refKills []bool
			var refEquiv []bool
			for _, cfg := range parityConfigs {
				label := fmt.Sprintf("workers=%d", cfg.Workers)
				cycles, err := newScorer(t, cfg, c, ms).FirstKillCycles(seq)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				kills, err := newScorer(t, cfg, c, ms).Kills(seq)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				equiv, err := newScorer(t, cfg, c, ms).EstimateEquivalence(equivOpts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				usedCycles, err := onUsed(cfg).FirstKillCycles(seq)
				if err != nil {
					t.Fatalf("%s on a used session: %v", label, err)
				}
				usedEquiv, err := onUsed(cfg).EstimateEquivalence(equivOpts)
				if err != nil {
					t.Fatalf("%s on a used session: %v", label, err)
				}
				if refCycles == nil {
					refCycles, refKills, refEquiv = cycles, kills, equiv
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
					if usedCycles[i] != refCycles[i] {
						t.Errorf("%s on a used session: mutant %d (%s) first-kill %d, serial %d",
							label, i, ms[i].Desc, usedCycles[i], refCycles[i])
					}
					if usedEquiv[i] != refEquiv[i] {
						t.Errorf("%s on a used session: mutant %d equivalence flag %v, serial %v",
							label, i, usedEquiv[i], refEquiv[i])
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
// campaign path (an extra sequence Narrow scores against the random
// budget's survivors only) on the compiled pool against the serial
// reference.
func TestEstimateEquivalenceParityWithExtras(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c, mutation.CR, mutation.LOR)
	res, err := tpg.MutationTests(c, ms, &tpg.Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	estimate := func(cfg Config) []bool {
		s := newScorer(t, cfg, c, ms)
		eq, err := s.EstimateEquivalence(&EquivalenceOptions{Budget: 64, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Narrow(eq, res.Seq); err != nil {
			t.Fatal(err)
		}
		return eq
	}
	serial, pooled := estimate(cfgOf(1)), estimate(cfgOf(0))
	for i := range serial {
		if serial[i] != pooled[i] {
			t.Errorf("mutant %d: serial %v, pooled %v", i, serial[i], pooled[i])
		}
	}
}
