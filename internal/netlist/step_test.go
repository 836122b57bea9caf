package netlist

import (
	"math/rand"
	"testing"

	"repro/internal/lane"
)

// stepNetlist is a random sequential netlist that carries every site
// kind Step must handle: beside randomNetlist's gates it has a constant
// read by a gate, an XOR reading one flip-flop on both pins (a branch
// fault on either pin makes it differ), and primary outputs on a PI and
// on a flip-flop.
func stepNetlist(t *testing.T, seed int64, nGates int) *Netlist {
	t.Helper()
	nl := randomNetlist(t, seed, 4, 5, nGates)
	one := nl.AddGate(Const1)
	dup := nl.AddGate(Xor, nl.FFs[0], nl.FFs[0])
	nl.MarkOutput(nl.AddGate(And, one, dup, nl.PIs[1]), "odup")
	nl.MarkOutput(nl.PIs[0], "opi")
	nl.MarkOutput(nl.FFs[1], "off")
	nl.SetDFFInput(nl.FFs[2], dup)
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// stepMatchesEvalClock pins Step at width W against Eval followed by
// Clock. Two machines carry the same injections, one site per lane
// drawn from allSites in a shuffled order (every site of the netlist
// lands in some lane across the chunks), and run 64 cycles of random
// broadcast inputs beside a fault-free W=1 machine that supplies the
// good rows. Every cycle the step's PO-difference lanes must equal the
// lanes where Eval's outputs differ from the good outputs, and the two
// machines must hold the same flip-flop state in every live lane. The
// live mask shrinks at random cycles; mid-run the step machine alone
// clears the dead lanes' injections, and later all three machines are
// Reset, as AppendTest does.
func stepMatchesEvalClock[W lane.Word](t *testing.T) {
	t.Helper()
	L := lane.Count[W]()
	for seed := int64(0); seed < 8; seed++ {
		nl := stepNetlist(t, seed, 12+int(seed)*3)
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 70))
		sites := allSites(nl)
		rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
		sc := NewEventScratch[W](prog)
		for lo := 0; lo < len(sites); lo += L {
			chunk := sites[lo:min(lo+L, len(sites))]
			full, step := NewMachine[W](prog), NewMachine[W](prog)
			for i, ln := range rng.Perm(L)[:len(chunk)] {
				full.InjectFault(chunk[i], lane.Bit[W](ln))
				step.InjectFault(chunk[i], lane.Bit[W](ln))
			}
			good := NewMachine[lane.W1](prog)
			var row []uint64
			live := lane.Broadcast[W](^uint64(0))
			pis1 := make([]lane.W1, len(nl.PIs))
			pis := make([]W, len(nl.PIs))
			for cyc := 0; cyc < 64; cyc++ {
				switch cyc {
				case 24:
					step.ClearFaultLanes(lane.AndNot(lane.Broadcast[W](^uint64(0)), live))
				case 40:
					good.Reset()
					full.Reset()
					step.Reset()
				}
				if rng.Intn(6) == 0 {
					for k := 0; k < len(live); k++ {
						live[k] &= rng.Uint64() | rng.Uint64()
					}
				}
				for i := range pis {
					x := -uint64(rng.Intn(2))
					pis1[i] = lane.W1{x}
					pis[i] = lane.Broadcast[W](x)
				}
				goodOut := good.Eval(pis1)
				row = good.LaneValuesInto(0, row)
				out := full.Eval(pis)
				var want W
				for k := 0; k < len(want); k++ {
					for po := range out {
						want[k] |= out[po][k] ^ goodOut[po][0]
					}
					want[k] &= live[k]
				}
				got, evals := step.Step(row, live, sc)
				if got != want {
					t.Fatalf("W=%d seed %d chunk %d cycle %d: step PO lanes %x, Eval %x", L/64, seed, lo/L, cyc, got, want)
				}
				if evals > prog.Instructions() {
					t.Fatalf("W=%d seed %d: step evaluated %d of %d instructions", L/64, seed, evals, prog.Instructions())
				}
				full.Clock()
				good.Clock()
				fs, ss := full.State(), step.State()
				for i := range fs {
					for k := 0; k < len(live); k++ {
						if d := (fs[i][k] ^ ss[i][k]) & live[k]; d != 0 {
							t.Fatalf("W=%d seed %d chunk %d cycle %d: FF %d differs in live lanes %x of word %d", L/64, seed, lo/L, cyc, i, d, k)
						}
					}
				}
			}
		}
	}
}

func TestStepMatchesEvalClock(t *testing.T) {
	t.Run("W=1", stepMatchesEvalClock[lane.W1])
	t.Run("W=4", stepMatchesEvalClock[lane.W4])
	t.Run("W=8", stepMatchesEvalClock[lane.W8])
}

// TestStepAllocs pins the step allocation-free once its scratch exists.
func TestStepAllocs(t *testing.T) {
	nl := stepNetlist(t, 3, 40)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine[lane.W8](prog)
	for i, site := range allSites(nl) {
		m.InjectFault(site, lane.Bit[lane.W8](i%512))
	}
	good := NewMachine[lane.W1](prog)
	good.Eval(make([]lane.W1, len(nl.PIs)))
	row := good.LaneValuesInto(0, nil)
	sc := NewEventScratch[lane.W8](prog)
	live := lane.Broadcast[lane.W8](^uint64(0))
	if allocs := testing.AllocsPerRun(50, func() { m.Step(row, live, sc) }); allocs != 0 {
		t.Errorf("Step allocates %.1f objects per call, want 0", allocs)
	}
}
