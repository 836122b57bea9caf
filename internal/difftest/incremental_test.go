package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/mutation"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// chunkLens carves total cycles into random Append chunk lengths,
// deliberately mixing empty and 1-cycle chunks in with larger ones.
func chunkLens(total int, rng *rand.Rand) []int {
	var out []int
	left := total
	for left > 0 {
		var n int
		switch rng.Intn(5) {
		case 0:
			n = 0
		case 1:
			n = 1
		default:
			n = 1 + rng.Intn(left)
		}
		out = append(out, n)
		left -= n
	}
	return append(out, 0) // trailing empty Append
}

// TestIncrementalAppendParity fuzzes the session contract across the
// whole engine matrix: for random circuits × random stimuli × random
// split points (empty and 1-cycle chunks included), the final Append
// result must be bit-identical to the one-shot Run of the whole set, at
// every lane width and worker count — and each intermediate result must
// equal a one-shot Run of its prefix.
func TestIncrementalAppendParity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := fuzzCircuit(t, seed)
			nl, err := synth.Synthesize(c)
			if err != nil {
				t.Fatal(err)
			}
			pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 90, seed+1700))
			rng := rand.New(rand.NewSource(seed + 31))
			lens := chunkLens(len(pats), rng)
			// One randomly chosen intermediate boundary gets the full
			// prefix-equality check (checking all of them at every config
			// would square the test's cost for no extra coverage).
			checkAt := rng.Intn(len(lens))
			for _, ec := range engineConfigs {
				oneshot, err := faultsim.Config{Options: ec.options()}.New(nl, nil)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				want, err := oneshot.Run(pats)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				inc, err := faultsim.Config{Options: ec.options()}.New(nl, nil)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				var got *faultsim.Result
				lo := 0
				for k, n := range lens {
					if got, err = inc.Append(pats[lo : lo+n]); err != nil {
						t.Fatalf("%s: Append: %v", ec, err)
					}
					lo += n
					if k == checkAt {
						prefix, err := oneshot.Run(pats[:lo])
						if err != nil {
							t.Fatalf("%s: %v", ec, err)
						}
						for i := range prefix.FirstDetected {
							if got.FirstDetected[i] != prefix.FirstDetected[i] {
								t.Fatalf("%s: after %d cycles fault %d detected at %d, prefix run says %d",
									ec, lo, i, got.FirstDetected[i], prefix.FirstDetected[i])
							}
						}
					}
				}
				if got.Patterns != want.Patterns {
					t.Fatalf("%s: applied %d, one-shot %d", ec, got.Patterns, want.Patterns)
				}
				for i := range want.FirstDetected {
					if got.FirstDetected[i] != want.FirstDetected[i] {
						t.Errorf("%s: fault %d detected at %d via Append, one-shot %d",
							ec, i, got.FirstDetected[i], want.FirstDetected[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
				// Second campaign on the same session: Reset recycles the
				// armed machines, stimulus buffers and the result view
				// instead of allocating fresh ones, and the replay must
				// stay bit-identical to the first pass.
				inc.Reset()
				lo = 0
				for _, n := range lens {
					if got, err = inc.Append(pats[lo : lo+n]); err != nil {
						t.Fatalf("%s: recycled Append: %v", ec, err)
					}
					lo += n
				}
				for i := range want.FirstDetected {
					if got.FirstDetected[i] != want.FirstDetected[i] {
						t.Errorf("%s: fault %d detected at %d on the recycled session, want %d",
							ec, i, got.FirstDetected[i], want.FirstDetected[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
				// Same chunked campaign with mid-campaign re-planning
				// pinned off: the scheduler's lane compaction (see
				// faultsim.Config.StaticPlan) must be invisible in the
				// results at every engine setting and chunking.
				stat, err := faultsim.Config{StaticPlan: true, Options: ec.options()}.New(nl, nil)
				if err != nil {
					t.Fatalf("%s: %v", ec, err)
				}
				lo = 0
				for _, n := range lens {
					if got, err = stat.Append(pats[lo : lo+n]); err != nil {
						t.Fatalf("%s: StaticPlan Append: %v", ec, err)
					}
					lo += n
				}
				for i := range want.FirstDetected {
					if got.FirstDetected[i] != want.FirstDetected[i] {
						t.Errorf("%s: fault %d detected at %d under StaticPlan, want %d",
							ec, i, got.FirstDetected[i], want.FirstDetected[i])
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		})
	}
}

// TestSessionGenerateAcrossEngines pins the second acceptance surface:
// tpg.Session (and so MutationTests, which is built on it) produces the
// same sequence, kill flags and rounds at every Workers/LaneWords
// setting.
func TestSessionGenerateAcrossEngines(t *testing.T) {
	c := fuzzCircuit(t, 2) // sequential shape
	ms := mutation.Generate(c)
	if len(ms) == 0 {
		t.Skip("population empty for this circuit")
	}
	if len(ms) > 24 {
		ms = ms[:24] // enough targets to accept several segments cheaply
	}
	var refSeq []int // per-cycle hash stand-in: sequence lengths + kills
	var refKilled []bool
	for _, ec := range engineConfigs {
		opts := &tpg.Options{Seed: 23, MaxLen: 96}
		opts.Options = ec.options()
		s, err := tpg.NewSession(c, ms, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Generate(nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", ec, err)
		}
		lens := []int{len(res.Seq), res.Rounds, len(res.Segments)}
		if refSeq == nil {
			refSeq, refKilled = lens, res.Killed
			continue
		}
		for i := range lens {
			if lens[i] != refSeq[i] {
				t.Fatalf("%s: shape %v, reference %v", ec, lens, refSeq)
			}
		}
		for i := range refKilled {
			if res.Killed[i] != refKilled[i] {
				t.Errorf("%s: kill flag %d = %v, reference %v", ec, i, res.Killed[i], refKilled[i])
			}
		}
	}
}
