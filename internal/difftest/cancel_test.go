// Cancellation contract tests: a Ctx cancelled mid-campaign must surface
// context.Canceled promptly from every engine — fault simulation, mutant
// scoring and test generation — and must not leak pool goroutines (CI
// runs this file under -race, which also shakes out unsynchronized
// shutdown paths).
package difftest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// checkGoroutines asserts the goroutine count settles back to the
// baseline after a cancelled run; pool workers must always be joined
// before the engines return.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// cancelConfigs covers the serial reference engines and a pooled
// compiled setting — cancellation must work on every path, not just the
// worker pool's dispatch loop.
var cancelConfigs = []engineConfig{
	{workers: 1, laneWords: 1}, // serial reference
	{workers: 2, laneWords: 1},
	{workers: 0, laneWords: 0}, // production setting
}

func TestFaultSimCancellation(t *testing.T) {
	for _, seed := range []int64{2, 3} { // sequential and combinational shapes
		c := fuzzCircuit(t, seed)
		nl, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 2048, seed+50))
		for _, ec := range cancelConfigs {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, ec), func(t *testing.T) {
				baseline := runtime.NumGoroutine()

				// Pre-cancelled: nothing runs, the error is immediate.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				opts := ec.options()
				opts.Ctx = ctx
				s, err := faultsim.Config{Options: opts}.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Run(pats); !errors.Is(err, context.Canceled) {
					t.Fatalf("pre-cancelled Run returned %v", err)
				}

				// Mid-campaign: the first progress report pulls the plug.
				ctx2, cancel2 := context.WithCancel(context.Background())
				defer cancel2()
				var fired atomic.Bool
				opts = ec.options()
				opts.Ctx = ctx2
				opts.Progress = func(engine.Stats) {
					if fired.CompareAndSwap(false, true) {
						cancel2()
					}
				}
				s2, err := faultsim.Config{Options: opts}.New(nl, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s2.Run(pats); !errors.Is(err, context.Canceled) {
					t.Fatalf("mid-campaign cancel returned %v", err)
				}
				checkGoroutines(t, baseline)
			})
		}
	}
}

func TestMutScoreCancellation(t *testing.T) {
	c := fuzzCircuit(t, 2)
	ms := mutation.Generate(c)
	if len(ms) == 0 {
		t.Skip("population empty for this circuit")
	}
	seq := tpg.RandomSequence(c, 1024, 7)
	for _, ec := range cancelConfigs {
		t.Run(ec.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := ec.options()
			opts.Ctx = ctx
			s, err := mutscore.Config{Options: opts}.NewScorer(c, ms)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Kills(seq); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled Kills returned %v", err)
			}

			ctx2, cancel2 := context.WithCancel(context.Background())
			defer cancel2()
			var fired atomic.Bool
			opts = ec.options()
			opts.Ctx = ctx2
			opts.Progress = func(engine.Stats) {
				if fired.CompareAndSwap(false, true) {
					cancel2()
				}
			}
			s, err = mutscore.Config{Options: opts}.NewScorer(c, ms)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.EstimateEquivalence(nil, &mutscore.EquivalenceOptions{Budget: 2048, Seed: 3})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-campaign EstimateEquivalence returned %v", err)
			}
			checkGoroutines(t, baseline)
		})
	}
}

func TestTPGCancellation(t *testing.T) {
	c := fuzzCircuit(t, 2)
	ms := mutation.Generate(c)
	if len(ms) == 0 {
		t.Skip("population empty for this circuit")
	}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := &tpg.Options{Seed: 5}
	opts.Ctx = ctx
	if _, err := tpg.MutationTests(c, ms, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled MutationTests returned %v", err)
	}

	// Mid-campaign: cancel after the first target completes; the next
	// round's poll must stop the run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var fired atomic.Bool
	opts2 := &tpg.Options{Seed: 5}
	opts2.Ctx = ctx2
	opts2.Progress = func(engine.Stats) {
		if fired.CompareAndSwap(false, true) {
			cancel2()
		}
	}
	s, err := tpg.NewSession(c, ms, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-campaign Generate returned %v", err)
	}
	checkGoroutines(t, baseline)
}
