// Cancellation contract tests: a Ctx cancelled mid-campaign must surface
// context.Canceled promptly from every engine — fault simulation, mutant
// scoring and test generation — and from the paper flow that runs them
// side by side, and must not leak pool goroutines (CI runs this file
// under -race, which also shakes out unsynchronized shutdown paths).
package difftest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
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
	{workers: 1}, // serial reference
	{workers: 2},
	{workers: 0}, // production setting
}

// TestFaultSimCancellation cancels at the first progress report, which
// must leave work undone, on the wide shapes: fuzzCircuit's seeds 2 and
// 3 give lanes to one batch and to one fault, so their first report was
// also their last. Seed 2 is sequential and plans two batches; seed 3
// is combinational and reports after each of its 32 pattern batches.
func TestFaultSimCancellation(t *testing.T) {
	for _, seed := range []int64{2, 3} {
		c := wideCircuit(t, seed)
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
				var first engine.Stats
				opts = ec.options()
				opts.Ctx = ctx2
				opts.Progress = func(st engine.Stats) {
					if fired.CompareAndSwap(false, true) {
						first = st
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
				if first.Done >= first.Total {
					t.Errorf("the first report (%+v) ended the run; the cancel is not mid-campaign", first)
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
	ts, err := tpg.NewSession(c, ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range cancelConfigs {
		t.Run(ec.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := ec.options()
			opts.Ctx = ctx
			s := mutscore.Config{Options: opts}.NewScorer(ts)
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
			s = mutscore.Config{Options: opts}.NewScorer(ts)
			_, err = s.EstimateEquivalence(&mutscore.EquivalenceOptions{Budget: 2048, Seed: 3})
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

// flowHook is a core.Flow progress hook that records every report and,
// once armed, cancels the flow's Ctx on the first report it sees.
type flowHook struct {
	ctx    context.Context
	cancel context.CancelFunc
	armed  atomic.Bool
	mu     sync.Mutex
	seen   []engine.Stats
}

func (h *flowHook) report(s engine.Stats) {
	h.mu.Lock()
	h.seen = append(h.seen, s)
	h.mu.Unlock()
	if h.armed.Load() {
		h.cancel()
	}
}

func (h *flowHook) reports() []engine.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]engine.Stats(nil), h.seen...)
}

// TestFlowCancellation extends the contract to core.Flow, whose sections
// run concurrently: ProfileOperators' class jobs, Equivalent's campaign
// beside FullTG, CompareSampling's scoring lane beside its strategy
// campaigns, and SequentialATPGTopoff's baseline ATPG beside the
// pre-test and top-off. A cancelled Ctx must surface context.Canceled
// from each, with every goroutine joined, and a repeated call must fail
// again rather than return profiles or equivalence flags cached from a
// partial run.
func TestFlowCancellation(t *testing.T) {
	c := circuits.MustLoad("b06")
	for _, ec := range cancelConfigs {
		t.Run(ec.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			newFlow := func() (*core.Flow, *flowHook) {
				h := &flowHook{}
				h.ctx, h.cancel = context.WithCancel(context.Background())
				t.Cleanup(h.cancel)
				opts := ec.options()
				opts.Ctx, opts.Progress = h.ctx, h.report
				f, err := core.NewFlow(c, core.Config{Seed: 1, Repeats: 1, RandHorizon: 128, EquivBudget: 64, Options: opts})
				if err != nil {
					t.Fatal(err)
				}
				return f, h
			}
			profile := func(f *core.Flow) error { _, err := f.ProfileOperators(); return err }
			equivalent := func(f *core.Flow) error { _, err := f.Equivalent(); return err }
			compare := func(f *core.Flow) error { _, err := f.CompareSampling(); return err }
			topoff := func(f *core.Flow) error { _, err := f.SequentialATPGTopoff(8); return err }
			wantCanceled := func(label string, err error) {
				t.Helper()
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s returned %v, want context.Canceled", label, err)
				}
			}

			// Cancelled before the calls.
			f, h := newFlow()
			h.cancel()
			wantCanceled("pre-cancelled ProfileOperators", profile(f))
			wantCanceled("pre-cancelled Equivalent", equivalent(f))
			wantCanceled("pre-cancelled CompareSampling", compare(f))
			wantCanceled("pre-cancelled SequentialATPGTopoff", topoff(f))

			// Cancelled by ProfileOperators' first report.
			f, h = newFlow()
			h.armed.Store(true)
			wantCanceled("ProfileOperators cancelled mid-run", profile(f))
			wantCanceled("ProfileOperators after a cancelled run", profile(f))
			wantCanceled("CompareSampling after a cancelled profile", compare(f))

			// Cancelled by FullTG's first report, beside the equivalence
			// campaign.
			f, h = newFlow()
			h.armed.Store(true)
			wantCanceled("Equivalent cancelled mid-run", equivalent(f))
			wantCanceled("Equivalent after a cancelled run", equivalent(f))

			// Cancelled by FullTG's first report in the pre-test, while
			// the quiet baseline ATPG runs beside it. On one worker the
			// baseline runs to its end before FullTG starts (serial
			// PODEM, seconds on 8 frames and half a minute under -race),
			// and the leg would only repeat Equivalent's FullTG cancel.
			if ec.workers != 1 {
				f, h = newFlow()
				h.armed.Store(true)
				wantCanceled("SequentialATPGTopoff cancelled mid-run", topoff(f))
			}

			// ProfileOperators reports the classes finished, in order;
			// then the first strategy campaign's first report cancels the
			// campaigns and their scoring lane.
			f, h = newFlow()
			profiles, err := f.ProfileOperators()
			if err != nil {
				t.Fatal(err)
			}
			got := h.reports()
			if len(got) != len(profiles) {
				t.Errorf("ProfileOperators made %d reports for %d classes: %v", len(got), len(profiles), got)
			}
			for i, s := range got {
				if s != (engine.Stats{Done: i + 1, Total: len(profiles)}) {
					t.Errorf("ProfileOperators report %d is %+v, want Done %d of %d", i, s, i+1, len(profiles))
				}
			}
			if err := equivalent(f); err != nil {
				t.Fatal(err)
			}
			h.armed.Store(true)
			wantCanceled("CompareSampling cancelled in a strategy campaign", compare(f))
			wantCanceled("CompareSampling after a cancelled campaign", compare(f))

			checkGoroutines(t, baseline)
		})
	}
}
