package netlist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lane"
)

// randomNetlist builds a random levelizable netlist with nPIs inputs,
// nFFs flip-flops (with feedback through the combinational cloud) and
// nGates gates drawn from every combinational type with arities 1..4, so
// the compiled program exercises every opcode including the N-ary forms.
func randomNetlist(t *testing.T, seed int64, nPIs, nFFs, nGates int) *Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := New(fmt.Sprintf("rand%d", seed))
	for i := 0; i < nPIs; i++ {
		n.AddInput(fmt.Sprintf("i%d", i))
	}
	for i := 0; i < nFFs; i++ {
		n.AddDFF(fmt.Sprintf("ff%d", i), uint64(rng.Intn(2)))
	}
	if rng.Intn(2) == 0 {
		n.AddGate(Const0)
	}
	if rng.Intn(2) == 0 {
		n.AddGate(Const1)
	}
	comb := []GateType{Buf, Not, And, Or, Nand, Nor, Xor, Xnor}
	for i := 0; i < nGates; i++ {
		t1 := comb[rng.Intn(len(comb))]
		arity := 2 + rng.Intn(3)
		if t1 == Buf || t1 == Not {
			arity = 1
		}
		fanin := make([]int, arity)
		for j := range fanin {
			fanin[j] = rng.Intn(len(n.Gates)) // only existing gates: acyclic
		}
		n.AddGate(t1, fanin...)
	}
	// Feedback: every FF's D comes from anywhere in the cloud.
	for _, ff := range n.FFs {
		n.SetDFFInput(ff, rng.Intn(len(n.Gates)))
	}
	// Observe a handful of random gates plus the last one.
	for i := 0; i < 3; i++ {
		id := rng.Intn(len(n.Gates))
		n.MarkOutput(id, fmt.Sprintf("o%d", i))
	}
	n.MarkOutput(len(n.Gates)-1, "olast")
	if err := n.Validate(); err != nil {
		t.Fatalf("random netlist invalid: %v", err)
	}
	return n
}

// allSites enumerates every stem and pin fault site of a netlist, both
// polarities — a superset of the collapsed fault list, so the differential
// tests also cover sites the fault simulator would normally skip.
func allSites(nl *Netlist) []FaultSite {
	var out []FaultSite
	for _, g := range nl.Gates {
		for v := uint64(0); v <= 1; v++ {
			out = append(out, FaultSite{Gate: g.ID, Pin: -1, Stuck: v})
			for j := range g.Fanin {
				out = append(out, FaultSite{Gate: g.ID, Pin: j, Stuck: v})
			}
		}
	}
	return out
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// w1 lifts single-word PI values into W=1 lane vectors.
func w1(words []uint64) []lane.W1 {
	out := make([]lane.W1, len(words))
	for i, w := range words {
		out[i] = lane.W1{w}
	}
	return out
}

// TestMachineMatchesEvaluatorFaultFree pins the compiled fast path
// against the Evaluator over multiple clocked cycles of random stimuli.
func TestMachineMatchesEvaluatorFaultFree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		nl := randomNetlist(t, seed, 3+int(seed%4), int(seed%5), 12+int(seed)*3)
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine[lane.W1](prog)
		rng := rand.New(rand.NewSource(seed + 100))
		for cyc := 0; cyc < 8; cyc++ {
			pis := randWords(rng, len(nl.PIs))
			want, err := ev.Eval(pis)
			if err != nil {
				t.Fatal(err)
			}
			got := m.Eval(w1(pis))
			for po := range want {
				if got[po][0] != want[po] {
					t.Fatalf("seed %d cyc %d PO %d: machine %x, evaluator %x", seed, cyc, po, got[po][0], want[po])
				}
			}
			ev.Clock()
			m.Clock()
			for i, s := range ev.State() {
				if m.State()[i][0] != s {
					t.Fatalf("seed %d cyc %d FF %d: state %x, evaluator %x", seed, cyc, i, m.State()[i][0], s)
				}
			}
		}
	}
}

// TestMachineMatchesEvaluatorSingleFault checks that injecting one fault
// into an arbitrary lane subset reproduces EvalWith/ClockWith exactly, for
// every fault site of random sequential netlists.
func TestMachineMatchesEvaluatorSingleFault(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		nl := randomNetlist(t, seed, 4, 3, 15)
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine[lane.W1](prog)
		rng := rand.New(rand.NewSource(seed + 500))
		for _, site := range allSites(nl) {
			mask := rng.Uint64()
			stim := make([][]uint64, 4)
			for c := range stim {
				stim[c] = randWords(rng, len(nl.PIs))
			}
			ev.Reset()
			m.ClearFaults()
			m.InjectFault(site, lane.W1{mask})
			m.Reset()
			for cyc, pis := range stim {
				want := ev.EvalWith(pis, site, mask)
				got := m.Eval(w1(pis))
				for po := range want {
					if got[po][0] != want[po] {
						t.Fatalf("seed %d site %+v mask %x cyc %d PO %d: machine %x, evaluator %x",
							seed, site, mask, cyc, po, got[po][0], want[po])
					}
				}
				ev.ClockWith(site, mask)
				m.Clock()
			}
		}
	}
}

// machineMultiFaultLanes is the parallel-fault guarantee at width W: up
// to W×64 distinct faults injected one per lane evolve as independent
// fault machines. Each lane must match a dedicated single-fault Evaluator
// run.
func machineMultiFaultLanes[W lane.Word](t *testing.T, seedBase int64) {
	t.Helper()
	L := lane.Count[W]()
	for seed := seedBase; seed < seedBase+5; seed++ {
		// Bigger clouds for wider machines, so wide batches actually fill
		// lanes beyond the first word.
		nl := randomNetlist(t, seed+50, 4, 4, 20+L/4)
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		sites := allSites(nl)
		batch := sites
		if len(batch) > L {
			batch = batch[:L]
		}
		m := NewMachine[W](prog)
		for ln, site := range batch {
			m.InjectFault(site, lane.Bit[W](ln))
		}
		m.Reset()
		rng := rand.New(rand.NewSource(seed + 900))
		stim := make([][]uint64, 6)
		for c := range stim {
			// Broadcast stimuli: every lane sees the same 0/1 input.
			stim[c] = make([]uint64, len(nl.PIs))
			for i := range stim[c] {
				if rng.Intn(2) == 1 {
					stim[c][i] = ^uint64(0)
				}
			}
		}
		got := make([][]W, len(stim))
		for cyc, pis := range stim {
			wide := make([]W, len(pis))
			for i, w := range pis {
				wide[i] = lane.Broadcast[W](w)
			}
			got[cyc] = append([]W(nil), m.Eval(wide)...)
			m.Clock()
		}
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		for ln, site := range batch {
			ev.Reset()
			for cyc, pis := range stim {
				want := ev.EvalWith(pis, site, ^uint64(0))
				for po := range want {
					wbit := want[po] >> 0 & 1
					gbit := got[cyc][po][ln>>6] >> uint(ln&63) & 1
					if gbit != wbit {
						t.Fatalf("W=%d seed %d lane %d site %+v cyc %d PO %d: lane bit %d, reference %d",
							L/64, seed, ln, site, cyc, po, gbit, wbit)
					}
				}
				ev.ClockWith(site, ^uint64(0))
			}
		}
	}
}

// TestMachineMultiFaultLanes pins the per-lane independence at every
// supported width against the Evaluator.
func TestMachineMultiFaultLanes(t *testing.T) {
	t.Run("W=1", func(t *testing.T) { machineMultiFaultLanes[lane.W1](t, 0) })
	t.Run("W=4", func(t *testing.T) { machineMultiFaultLanes[lane.W4](t, 10) })
	t.Run("W=8", func(t *testing.T) { machineMultiFaultLanes[lane.W8](t, 20) })
}

// TestMachineWidthAgreement runs identical fault batches on all three
// widths (faults confined to the first 64 lanes) and demands bit-identical
// first-word trajectories — the W=1 machine is the pinned reference, so
// this transitively pins W=4/8 against the Evaluator too.
func TestMachineWidthAgreement(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nl := randomNetlist(t, seed+300, 5, 3, 30)
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		m1 := NewMachine[lane.W1](prog)
		m4 := NewMachine[lane.W4](prog)
		m8 := NewMachine[lane.W8](prog)
		sites := allSites(nl)
		if len(sites) > 64 {
			sites = sites[:64]
		}
		for ln, site := range sites {
			m1.InjectFault(site, lane.Bit[lane.W1](ln))
			m4.InjectFault(site, lane.Bit[lane.W4](ln))
			m8.InjectFault(site, lane.Bit[lane.W8](ln))
		}
		m1.Reset()
		m4.Reset()
		m8.Reset()
		rng := rand.New(rand.NewSource(seed + 77))
		for cyc := 0; cyc < 8; cyc++ {
			word := make([]uint64, len(nl.PIs))
			for i := range word {
				if rng.Intn(2) == 1 {
					word[i] = ^uint64(0)
				}
			}
			pis4 := make([]lane.W4, len(word))
			pis8 := make([]lane.W8, len(word))
			for i, w := range word {
				pis4[i] = lane.Broadcast[lane.W4](w)
				pis8[i] = lane.Broadcast[lane.W8](w)
			}
			o1 := m1.Eval(w1(word))
			o4 := m4.Eval(pis4)
			o8 := m8.Eval(pis8)
			for po := range o1 {
				if o4[po][0] != o1[po][0] || o8[po][0] != o1[po][0] {
					t.Fatalf("seed %d cyc %d PO %d: W1 %x, W4 %x, W8 %x",
						seed, cyc, po, o1[po][0], o4[po][0], o8[po][0])
				}
			}
			m1.Clock()
			m4.Clock()
			m8.Clock()
		}
	}
}

// TestMachineClearFaults verifies a cleared machine computes the
// fault-free pass bit-identically.
func TestMachineClearFaults(t *testing.T) {
	nl := randomNetlist(t, 7, 4, 2, 15)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(nl)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine[lane.W4](prog)
	for ln, site := range allSites(nl) {
		m.InjectFault(site, lane.Bit[lane.W4](ln%256))
	}
	m.ClearFaults()
	m.Reset()
	rng := rand.New(rand.NewSource(77))
	for cyc := 0; cyc < 4; cyc++ {
		pis := randWords(rng, len(nl.PIs))
		want, err := ev.Eval(pis)
		if err != nil {
			t.Fatal(err)
		}
		wide := make([]lane.W4, len(pis))
		for i, w := range pis {
			wide[i] = lane.Broadcast[lane.W4](w)
		}
		got := m.Eval(wide)
		for po := range want {
			for k := 0; k < 4; k++ {
				if got[po][k] != want[po] {
					t.Fatalf("cyc %d PO %d word %d: cleared machine %x, evaluator %x", cyc, po, k, got[po][k], want[po])
				}
			}
		}
		ev.Clock()
		m.Clock()
	}
}

// machineClearFaultLanes pins the pair-scoped clearing the ATPG pack
// scheduler re-arms through, at width W: clearing one lane subset must
// fully retire those lanes' injections (they compute fault-free values)
// while the other lanes' fault machines evolve untouched, across
// repeated clear/re-inject cycles on the same machine. Each round injects
// its sites in a shuffled order, so the machine's instruction-ordered
// injection list is built from out-of-order inserts.
func machineClearFaultLanes[W lane.Word](t *testing.T, seedBase int64) {
	t.Helper()
	L := lane.Count[W]()
	for seed := seedBase; seed < seedBase+4; seed++ {
		// 15 gates per 64 lanes, so wide machines fill every lane.
		nl := randomNetlist(t, seed+40, 4, 3, 15*L/64)
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine[W](prog)
		sites := allSites(nl)
		if len(sites) > L {
			sites = sites[:L]
		}
		rng := rand.New(rand.NewSource(seed + 33))
		for round := 0; round < 3; round++ {
			for _, ln := range rng.Perm(len(sites)) {
				m.InjectFault(sites[ln], lane.Bit[W](ln))
			}
			// Clear a round-dependent subset lane by lane (the scheduler
			// clears one pair at a time).
			cleared := make([]bool, len(sites))
			for ln := range sites {
				if (ln+round)%3 == 0 {
					m.ClearFaultLanes(lane.Bit[W](ln))
					cleared[ln] = true
				}
			}
			m.Reset()
			stim := make([][]uint64, 4)
			for c := range stim {
				stim[c] = make([]uint64, len(nl.PIs))
				for i := range stim[c] {
					if rng.Intn(2) == 1 {
						stim[c][i] = ^uint64(0)
					}
				}
			}
			got := make([][]W, len(stim))
			for cyc, pis := range stim {
				wide := make([]W, len(pis))
				for i, w := range pis {
					wide[i] = lane.Broadcast[W](w)
				}
				got[cyc] = append([]W(nil), m.Eval(wide)...)
				m.Clock()
			}
			for ln, site := range sites {
				ev.Reset()
				for cyc, pis := range stim {
					var want []uint64
					if cleared[ln] {
						want, err = ev.Eval(pis)
						if err != nil {
							t.Fatal(err)
						}
						ev.Clock()
					} else {
						want = ev.EvalWith(pis, site, ^uint64(0))
						ev.ClockWith(site, ^uint64(0))
					}
					for po := range want {
						wbit := want[po] & 1
						gbit := got[cyc][po][ln>>6] >> uint(ln&63) & 1
						if gbit != wbit {
							t.Fatalf("W=%d seed %d round %d lane %d (cleared=%v) site %+v cyc %d PO %d: lane bit %d, reference %d",
								L/64, seed, round, ln, cleared[ln], site, cyc, po, gbit, wbit)
						}
					}
				}
			}
			// Retire everything before the next round re-injects: the
			// machine must be left with nothing to patch.
			m.ClearFaultLanes(lane.Broadcast[W](^uint64(0)))
		}
	}
}

// TestMachineClearFaultLanes pins lane-scoped clearing at every
// supported width against the Evaluator.
func TestMachineClearFaultLanes(t *testing.T) {
	t.Run("W=1", func(t *testing.T) { machineClearFaultLanes[lane.W1](t, 0) })
	t.Run("W=4", func(t *testing.T) { machineClearFaultLanes[lane.W4](t, 10) })
	t.Run("W=8", func(t *testing.T) { machineClearFaultLanes[lane.W8](t, 20) })
}

// TestMachinePIWordCountPanics pins the documented panic on shape misuse.
func TestMachinePIWordCountPanics(t *testing.T) {
	nl := buildMux(t)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine[lane.W1](prog)
	defer func() {
		if recover() == nil {
			t.Fatal("short PI slice did not panic")
		}
	}()
	m.Eval([]lane.W1{{1}})
}
