package sim_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
	"repro/internal/tpg"
)

// scoringFixture compiles a mutant population and the good trace once for
// the ragged-tail batch tests.
type scoringFixture struct {
	progs    []*sim.Program
	seq      sim.Sequence
	goodOuts []sim.Vector
}

func newScoringFixture(t *testing.T) *scoringFixture {
	t.Helper()
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c)
	if len(ms) == 0 {
		t.Fatal("no mutants")
	}
	cs := make([]*hdl.Circuit, len(ms))
	for i, m := range ms {
		cs[i] = m.Circuit
	}
	progs, err := sim.CompileBatch(cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	seq := tpg.RandomSequence(c, 60, 3)
	good, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	goodOuts, err := good.NewMachine().Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	return &scoringFixture{progs: progs, seq: seq, goodOuts: goodOuts}
}

// machinesOf arms one fresh machine per program (a program listed twice
// gets two machines, as FirstKillBatchMachines requires).
func machinesOf(progs []*sim.Program) []*sim.Machine {
	ms := make([]*sim.Machine, len(progs))
	for i, p := range progs {
		ms[i] = p.NewMachine()
	}
	return ms
}

// TestFirstKillBatchRaggedTails pins the one-job-per-machine pool on
// populations of 0, 1, 2, 63, 64, 65 and 257 machines (cycling through
// 61 distinct programs, each listing with a machine of its own) at
// Workers 1, 2, 3 and 0: every size at every pool width must reproduce
// the per-program profile of the single-worker run.
func TestFirstKillBatchRaggedTails(t *testing.T) {
	fx := newScoringFixture(t)
	distinct := fx.progs[:61]

	// Reference profile per distinct program.
	ref, err := sim.FirstKillBatchMachines(machinesOf(distinct), fx.seq, fx.goodOuts, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 257} {
		progs := make([]*sim.Program, n)
		for i := range progs {
			progs[i] = distinct[i%len(distinct)]
		}
		for _, workers := range []int{1, 2, 3, 0} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				got, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%d results for %d programs", len(got), n)
				}
				for i, cyc := range got {
					if want := ref[i%len(distinct)]; cyc != want {
						t.Errorf("program %d: first-kill %d, want %d", i, cyc, want)
					}
				}
			})
		}
	}
}

// TestFirstKillBatchProgress pins the progress contract: one report per
// machine scored, Total the population size, Done never going backwards
// and ending at (n, n), on the inline path and on a pool.
func TestFirstKillBatchProgress(t *testing.T) {
	fx := newScoringFixture(t)
	n := 70
	progs := make([]*sim.Program, n)
	for i := range progs {
		progs[i] = fx.progs[i%len(fx.progs)]
	}
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var mu sync.Mutex
			var reports []engine.Stats
			opts := engine.Options{Workers: workers, Progress: func(s engine.Stats) {
				mu.Lock()
				reports = append(reports, s)
				mu.Unlock()
			}}
			if _, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, opts); err != nil {
				t.Fatal(err)
			}
			if len(reports) != n {
				t.Fatalf("%d reports for %d machines", len(reports), n)
			}
			for i, s := range reports {
				if s.Total != n {
					t.Fatalf("report %d: total %d, want %d", i, s.Total, n)
				}
				if i > 0 && s.Done < reports[i-1].Done {
					t.Fatalf("report %d went backwards: %d after %d", i, s.Done, reports[i-1].Done)
				}
			}
			if last := reports[n-1]; last != (engine.Stats{Done: n, Total: n}) {
				t.Fatalf("last report %+v, want {%d %d}", last, n, n)
			}
		})
	}
}

// TestFirstKillBatchErrors pins the error contract: when machines fail
// to step (here c17 programs, whose inputs the b01 sequence does not
// fit), the lowest-index failure comes back as a *BatchError; a context
// cancelled during the call is the call's error even when machines
// failed too.
func TestFirstKillBatchErrors(t *testing.T) {
	fx := newScoringFixture(t)
	bad, err := sim.Compile(circuits.MustLoad("c17"))
	if err != nil {
		t.Fatal(err)
	}
	progs := append([]*sim.Program(nil), fx.progs[:40]...)
	progs[29], progs[7] = bad, bad
	for _, workers := range []int{1, 3} {
		_, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, engine.Options{Workers: workers})
		var be *sim.BatchError
		if !errors.As(err, &be) || be.Index != 7 {
			t.Errorf("workers=%d: error %v, want a *BatchError at index 7", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		// Cancel once machine 7 has failed.
		opts := engine.Options{Workers: workers, Ctx: ctx, Progress: func(s engine.Stats) {
			if s.Done == 10 {
				cancel()
			}
		}}
		if _, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, opts); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled call returned %v", workers, err)
		}
		cancel()
	}
}
