package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
)

// randomSeq builds stimulus directly (tpg depends on sim, so the test
// rolls its own to avoid an import cycle), with the reset input asserted
// on cycle 0 only.
func randomSeq(c *hdl.Circuit, n int, seed int64) sim.Sequence {
	rng := rand.New(rand.NewSource(seed))
	ins := c.Inputs()
	seq := make(sim.Sequence, n)
	for cyc := range seq {
		v := make(sim.Vector, len(ins))
		for i, p := range ins {
			if p.Name == "reset" {
				v[i] = bitvec.New(0, p.Width)
				if cyc == 0 {
					v[i] = bitvec.New(1, p.Width)
				}
				continue
			}
			v[i] = bitvec.New(rng.Uint64(), p.Width)
		}
		seq[cyc] = v
	}
	return seq
}

func diffStep(t *testing.T, label string, cyc int, want, got sim.Vector) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s cycle %d: %d outputs interpreted, %d compiled", label, cyc, len(want), len(got))
	}
	for j := range want {
		if !want[j].Equal(got[j]) {
			t.Fatalf("%s cycle %d output %d: interpreter %s, compiled %s",
				label, cyc, j, want[j], got[j])
		}
	}
}

// TestMachineMatchesSimulator locks the compiled engine to the AST
// interpreter, cycle by cycle, over every circuit in the inventory.
func TestMachineMatchesSimulator(t *testing.T) {
	for _, name := range circuits.Names() {
		c := circuits.MustLoad(name)
		s, err := sim.New(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := sim.Compile(c)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		m := p.NewMachine()
		seq := randomSeq(c, 200, 7)
		s.Reset()
		m.Reset()
		for cyc, v := range seq {
			want, err := s.Step(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Step(v)
			if err != nil {
				t.Fatal(err)
			}
			diffStep(t, name, cyc, want, got)
		}
		// Register state must agree too, not just the sampled outputs.
		snapS, snapM := s.Snapshot(), m.Snapshot()
		for i := range snapS {
			if !snapS[i].Equal(snapM[i]) {
				t.Fatalf("%s: register %d differs after run: %s vs %s", name, i, snapS[i], snapM[i])
			}
		}
	}
}

// TestMachineMatchesSimulatorOnMutants is the load-bearing parity test:
// relaxed-mode mutants exercise every defensive path (missing names,
// width mismatches, unchecked literals), so the whole population of every
// sequential benchmark runs differentially on both engines.
func TestMachineMatchesSimulatorOnMutants(t *testing.T) {
	for _, name := range []string{"b01", "b02", "b06"} {
		c := circuits.MustLoad(name)
		ms := mutation.Generate(c)
		if len(ms) == 0 {
			t.Fatalf("%s: no mutants", name)
		}
		seq := randomSeq(c, 60, 11)
		for _, mut := range ms {
			s, err := sim.New(mut.Circuit)
			if err != nil {
				t.Fatalf("%s mutant %d: %v", name, mut.ID, err)
			}
			p, err := sim.Compile(mut.Circuit)
			if err != nil {
				t.Fatalf("%s mutant %d: compile: %v", name, mut.ID, err)
			}
			m := p.NewMachine()
			label := fmt.Sprintf("%s mutant %d (%s)", name, mut.ID, mut.Desc)
			for cyc, v := range seq {
				want, err := s.Step(v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Step(v)
				if err != nil {
					t.Fatal(err)
				}
				diffStep(t, label, cyc, want, got)
			}
		}
	}
}

// TestMachineSnapshotRestore verifies the pool's exploration contract:
// restoring a snapshot rewinds a machine to the exact trajectory the
// interpreter produces from the same state.
func TestMachineSnapshotRestore(t *testing.T) {
	c := circuits.MustLoad("b03")
	p, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	m := p.NewMachine()
	seq := randomSeq(c, 50, 3)
	if _, err := m.Run(seq); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	tail := randomSeq(c, 20, 4)
	first := make([]sim.Vector, 0, len(tail))
	for _, v := range tail {
		o, err := m.Step(v)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, o)
	}
	m.Restore(snap)
	for cyc, v := range tail {
		o, err := m.Step(v)
		if err != nil {
			t.Fatal(err)
		}
		diffStep(t, "replay", cyc, first[cyc], o)
	}
}

// TestFirstKillBatchDeterministic locks batch scoring results across
// worker counts.
func TestFirstKillBatchDeterministic(t *testing.T) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c)
	cs := make([]*hdl.Circuit, len(ms))
	for i, mut := range ms {
		cs[i] = mut.Circuit
	}
	seq := randomSeq(c, 100, 5)
	good, err := sim.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	goodOuts, err := good.NewMachine().Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := sim.CompileBatch(cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ref []int
	for _, workers := range []int{1, 2, 7, 0} {
		got, err := sim.FirstKillBatchMachines(machinesOf(progs), seq, goodOuts, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: mutant %d first-kill %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}
