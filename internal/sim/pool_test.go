package sim_test

import (
	"fmt"
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

// TestFirstKillBatchRaggedTails pins lane batching on mutant counts of
// 0, 1, 63, 64, 65 and W×64±1 (duplicating programs past the population
// size — the same program may ride in many lanes): every count at every
// width must reproduce the per-program profile of the W=1 single-worker
// run.
func TestFirstKillBatchRaggedTails(t *testing.T) {
	fx := newScoringFixture(t)

	// Reference profile per distinct program.
	ref, err := sim.FirstKillBatchMachines(machinesOf(fx.progs), fx.seq, fx.goodOuts, engine.Options{Workers: 1, LaneWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, W := range []int{1, 4, 8} {
		L := W * 64
		for _, n := range []int{0, 1, 63, 64, 65, L - 1, L, L + 1} {
			t.Run(fmt.Sprintf("W=%d/n=%d", W, n), func(t *testing.T) {
				progs := make([]*sim.Program, n)
				for i := range progs {
					progs[i] = fx.progs[i%len(fx.progs)]
				}
				got, err := sim.FirstKillBatchMachines(machinesOf(progs), fx.seq, fx.goodOuts, engine.Options{Workers: 2, LaneWords: W})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("%d results for %d programs", len(got), n)
				}
				for i, cyc := range got {
					if want := ref[i%len(fx.progs)]; cyc != want {
						t.Errorf("program %d: first-kill %d, want %d", i, cyc, want)
					}
				}
			})
		}
	}
}
