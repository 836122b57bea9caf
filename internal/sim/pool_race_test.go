package sim_test

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

// TestFirstKillBatchConcurrentPool hammers the package-level scratch
// pool (lockstepScratch recycles through an engine.Pool because batch
// jobs land on arbitrary worker goroutines): several scorings run
// concurrently, each fanning many narrow batches over its own worker
// pool, so pooled buffers are constantly handed between goroutines. The
// CI -race pass pins that no buffer is ever live in two jobs at once;
// every scoring must still reproduce the serial reference profile.
func TestFirstKillBatchConcurrentPool(t *testing.T) {
	fx := newScoringFixture(t)
	ref, err := sim.FirstKillBatchMachines(machinesOf(fx.progs), fx.seq, fx.goodOuts, engine.Options{Workers: 1, LaneWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate programs well past one lane batch so each scoring cycles
	// the pool many times (LaneWords 1 → 64 machines per batch).
	n := 3*64 + 17
	progs := make([]*sim.Program, n)
	for i := range progs {
		progs[i] = fx.progs[i%len(fx.progs)]
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, engine.Options{Workers: 3, LaneWords: 1})
			if err != nil {
				t.Error(err)
				return
			}
			for i, cyc := range got {
				if want := ref[i%len(fx.progs)]; cyc != want {
					t.Errorf("program %d: first-kill %d, want %d", i, cyc, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
