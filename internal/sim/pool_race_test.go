package sim_test

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

// TestFirstKillBatchConcurrentPool runs six scorings of b01's whole
// population at once, each on a pool of three workers with step-output
// buffers of its own, indexed by worker number. The CI -race pass pins
// that no buffer or machine is ever live in two jobs at once; every
// scoring must still reproduce the serial reference profile.
func TestFirstKillBatchConcurrentPool(t *testing.T) {
	fx := newScoringFixture(t)
	ref, err := sim.FirstKillBatchMachines(machinesOf(fx.progs), fx.seq, fx.goodOuts, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := sim.FirstKillBatchMachines(machinesOf(fx.progs), fx.seq, fx.goodOuts, engine.Options{Workers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			for i, cyc := range got {
				if cyc != ref[i] {
					t.Errorf("program %d: first-kill %d, want %d", i, cyc, ref[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
