package netlist

import (
	"math/rand"
	"testing"

	"repro/internal/lane"
)

// propagateSites is allSites plus every inert site kind PropagateFault
// must answer with zero lanes: NoFault, a pin one past a gate's fanin,
// and a pin fault on a gate without pins (a PI, a constant).
func propagateSites(nl *Netlist) []FaultSite {
	sites := append(allSites(nl), NoFault, FaultSite{Gate: -1, Pin: 0, Stuck: 1})
	for _, g := range nl.Gates {
		sites = append(sites, FaultSite{Gate: g.ID, Pin: len(g.Fanin), Stuck: 1})
	}
	return sites
}

// propagateMatchesEvaluator pins PropagateFault at width W against the
// Evaluator on random combinational netlists: after one fault-free Eval,
// every site's per-lane result must equal the OR over POs of
// EvalWith(site, all lanes) ^ Eval, word by word, and every net must read
// its fault-free value again afterwards. The netlists observe a PI and
// list one PO twice, so sites that are themselves POs, PI stems feeding
// POs directly and duplicated POs are all covered.
func propagateMatchesEvaluator[W lane.Word](t *testing.T) {
	t.Helper()
	for seed := int64(0); seed < 8; seed++ {
		nl := randomNetlist(t, seed, 3+int(seed%4), 0, 14+int(seed)*4)
		nl.MarkOutput(nl.PIs[0], "pi0")
		nl.MarkOutput(nl.POs[0], "dup")
		prog, err := Compile(nl)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine[W](prog)
		rng := rand.New(rand.NewSource(seed + 40))
		pis := make([]W, len(nl.PIs))
		for i := range pis {
			for k := 0; k < len(pis[i]); k++ {
				pis[i][k] = rng.Uint64()
			}
		}
		m.Eval(pis)
		good := make([]W, len(nl.Gates))
		for id := range good {
			good[id] = m.Value(id)
		}
		word := make([]uint64, len(nl.PIs))
		for _, site := range propagateSites(nl) {
			got := m.PropagateFault(site)
			for k := 0; k < len(got); k++ {
				for i := range pis {
					word[i] = pis[i][k]
				}
				ref := append([]uint64(nil), ev.EvalWith(word, NoFault, 0)...)
				bad := ev.EvalWith(word, site, ^uint64(0))
				var want uint64
				for po := range bad {
					want |= bad[po] ^ ref[po]
				}
				if got[k] != want {
					t.Fatalf("W=%d seed %d site %+v word %d: propagated %x, evaluator %x",
						len(got), seed, site, k, got[k], want)
				}
			}
			for id := range good {
				if m.Value(id) != good[id] {
					t.Fatalf("W=%d seed %d site %+v: gate %d left at %x, fault-free %x",
						len(got), seed, site, id, m.Value(id), good[id])
				}
			}
		}
	}
}

func TestPropagateFaultMatchesEvaluator(t *testing.T) {
	t.Run("W=1", propagateMatchesEvaluator[lane.W1])
	t.Run("W=4", propagateMatchesEvaluator[lane.W4])
	t.Run("W=8", propagateMatchesEvaluator[lane.W8])
}

// TestPropagateFaultAllocs pins the warm method at zero allocations:
// the schedule bitset and undo list are grown on the first call only.
func TestPropagateFaultAllocs(t *testing.T) {
	nl := randomNetlist(t, 5, 6, 0, 60)
	prog, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine[lane.W4](prog)
	m.Eval(make([]lane.W4, len(nl.PIs)))
	sites := allSites(nl)
	m.PropagateFault(sites[0])
	allocs := testing.AllocsPerRun(20, func() {
		for _, site := range sites {
			m.PropagateFault(site)
		}
	})
	if allocs != 0 {
		t.Errorf("warm PropagateFault allocates %.1f objects per sweep, want 0", allocs)
	}
}
