package repro

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// The digests below pin the exact output of the paper flow and of the
// engines under it. Every engine setting must print the same bytes, so
// each digest is checked at Workers 0 (compiled pools, as many workers as
// cores), Workers 1 (serial references) and Workers 2 (compiled pools on
// two workers, so the flow's concurrent sections run on one-core hosts
// too). A change that alters any of them changes what the repository
// reports and must say so.

func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v))))
}

var digestWorkers = []int{0, 1, 2}

// TestFlowTablesDigest pins the Table 1 and Table 2 text of a short
// flow: operator profiling (PerMutantSkip with the PerMutant fallback),
// weighted and random sampling, TG, equivalence and mutation scoring.
//
// c432 is the exception to "every setting prints the same bytes": its
// random-strategy MS% reads 97.35 on the compiled engines and 96.97 on
// the serial reference. A compiled machine's Reset restores registers
// only, so an output a mutant leaves unassigned keeps its value from the
// machine's previous campaign, while the reference interprets every
// sequence on fresh simulators (the power-on reset item in ROADMAP.md).
// Its compiled digest so depends on the order in which each machine runs
// its campaigns, which the flow's concurrent sections must keep serial.
func TestFlowTablesDigest(t *testing.T) {
	want := map[string]string{
		"b01":  "c8337c704e516f37f1456f6780b5552033774fcf6b090e911ad7df7d66367079",
		"c17":  "2807a900f93866845d7dd82b54ac861ec9cbec6b25abca3487dadde6190fd82b",
		"c432": "a23edba4482f4ca1d6a8aea4bd90d374a3671e36193db7233d4b993f52ac1171",
	}
	wantSerial := map[string]string{
		"c432": "250b0d3c9408f169f876c640120414ee277223ea055bdfa81017c4d705a15145",
	}
	for _, name := range []string{"b01", "c17", "c432"} {
		for _, w := range digestWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				cfg := core.Config{Seed: 1, Repeats: 1, RandHorizon: 256, EquivBudget: 128,
					Options: engine.Options{Workers: w}}
				f, err := core.NewFlow(circuits.MustLoad(name), cfg)
				if err != nil {
					t.Fatal(err)
				}
				profiles, err := f.ProfileOperators()
				if err != nil {
					t.Fatal(err)
				}
				cmp, err := f.CompareSampling()
				if err != nil {
					t.Fatal(err)
				}
				text := core.FormatTable1([]core.Table1Row{{Circuit: name, Profiles: profiles}}) +
					core.FormatTable2([]*core.SamplingComparison{cmp})
				wantDigest := want[name]
				if d, ok := wantSerial[name]; ok && w == 1 {
					wantDigest = d
				}
				if got := digest(text); got != wantDigest {
					t.Errorf("tables digest %s, want %s\n%s", got, wantDigest, text)
				}
			})
		}
	}
}

// TestEquivalenceDigest pins the probable-equivalence flags of b01 under
// a random budget narrowed by one extra sequence, which scores only the
// mutants the budget left alive. The extra toggles reset at random, so it
// kills mutants the budget leaves alive.
func TestEquivalenceDigest(t *testing.T) {
	const want = "486f714479fc95c1f45e81dc96c5097a4db8783b23463dfef46adea93ebdde74"
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c)
	extra := tpg.RawRandomSequence(c, 256, 77)
	ts, err := tpg.NewSession(c, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range digestWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			s := mutscore.Config{Options: engine.Options{Workers: w}}.NewScorer(ts)
			eq, err := s.EstimateEquivalence(&mutscore.EquivalenceOptions{Budget: 256, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Narrow(eq, extra); err != nil {
				t.Fatal(err)
			}
			if got := digest(eq); got != want {
				t.Errorf("equivalence digest %s, want %s", got, want)
			}
		})
	}
}

// TestFaultSimDigest pins first-detection profiles over 1024 random
// cycles (b03) and patterns (c880), appended in 64-long windows so the
// sequential scheduler runs ragged tails and re-plans.
func TestFaultSimDigest(t *testing.T) {
	want := map[string]string{
		"b03":  "a67d9bdedf1d6dfa2ac19b3657b8a93667aed5082d54a1576972081f0dab8b01",
		"c880": "938f039bf172a4af5e31a864e9dcb2d5d7c3c278169a1be30736777ef066d4d1",
	}
	for _, name := range []string{"b03", "c880"} {
		c := circuits.MustLoad(name)
		nl, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 1024, 5))
		for _, w := range digestWorkers {
			t.Run(fmt.Sprintf("%s/workers=%d", name, w), func(t *testing.T) {
				fs, err := faultsim.Config{Options: engine.Options{Workers: w}}.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				var res *faultsim.Result
				for lo := 0; lo < len(pats); lo += 64 {
					if res, err = fs.Append(pats[lo : lo+64]); err != nil {
						t.Fatal(err)
					}
				}
				if got := digest(res.FirstDetected); got != want[name] {
					t.Errorf("first-detection digest %s, want %s", got, want[name])
				}
			})
		}
	}
}

// TestTopoffDigest pins the E3 and E4 top-off text: FormatTopoff on c17,
// c432 and c880 and FormatSeqTopoff at 8 frames on b02 and b06, the
// atpg-topoff workload's circuits plus c17. Serial PODEM takes seconds on
// the larger circuits, so the serial reference (Workers 1) runs c17 and
// b02 only. Top-off text never reads the random curve, so the short
// horizon changes no byte.
func TestTopoffDigest(t *testing.T) {
	cases := []struct {
		name    string
		workers []int
		want    string
	}{
		{"c17", digestWorkers, "488e3ebc7468ae19148726ad94e83838ff54be4cda149e867864edbcae5a9239"},
		{"c432", []int{0, 2}, "e086925d9ffb07194e8427c72a9d2e206172a90818449eff8c3b03d05f7c6c97"},
		{"c880", []int{0, 2}, "30b3c6e556fd1eaec0d3813da5d34e028a82e51eeaddc48b0ba16c36093d4918"},
		{"b02", digestWorkers, "8afe897b40ae05f8f70d122a7676f27e9f37a229e4adfd71d45a1cc525f8ea88"},
		{"b06", []int{0, 2}, "ae2472a435bcbff8d5ac799c595ec2afe100cae40cc611437438669a9c468682"},
	}
	for _, tc := range cases {
		for _, w := range tc.workers {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(t *testing.T) {
				cfg := core.Config{Seed: 1, RandHorizon: 256, Options: engine.Options{Workers: w}}
				f, err := core.NewFlow(circuits.MustLoad(tc.name), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var text string
				if f.Netlist.IsSequential() {
					r, err := f.SequentialATPGTopoff(8)
					if err != nil {
						t.Fatal(err)
					}
					text = core.FormatSeqTopoff([]*core.SeqTopoffResult{r})
				} else {
					r, err := f.ATPGTopoff()
					if err != nil {
						t.Fatal(err)
					}
					text = core.FormatTopoff([]*core.TopoffResult{r})
				}
				if got := digest(text); got != tc.want {
					t.Errorf("top-off digest %s, want %s\n%s", got, tc.want, text)
				}
			})
		}
	}
}
