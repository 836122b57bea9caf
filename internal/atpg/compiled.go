package atpg

import (
	"repro/internal/lane"
	"repro/internal/netlist"
)

// Lane assignment of the PODEM planes inside one compiled machine pass:
// search k occupies lane pair k — the fault-free good plane on even lane
// 2k, the fault-injected faulty plane on odd lane 2k+1 right above it.
// The pack scheduler fills up to packMaxPairs pairs of the same W=1
// word, so one instruction-stream pass evaluates up to 32 concurrent
// searches; PackPairs == 1 runs the same scheduler on pair 0 alone.
const (
	goodLane   = 0
	faultyLane = 1
	// packMaxPairs is the lane-pair capacity of one W=1 machine word:
	// 64 lanes / 2 lanes per search.
	packMaxPairs = 32
)

// twin is the pack scheduler's compiled dual-rail backend: the model
// netlist's TriExpand twin (Kleene three-valued logic as two-valued
// rails) compiled once into a flat program, evaluated by one persistent
// W=1 machine, plus the twin PI scratch. Arming a pair translates each
// of its target's fault sites into a rail pair and injects it into that
// pair's faulty lane only; an implication pass is then one gather per
// active pair, a single Machine.Eval, and a rail decode into each
// active cursor's gv/fv arrays, which the search reads exactly as it
// reads the interpreter's.
type twin struct {
	nl  *netlist.Netlist // model netlist (the twin's source)
	tm  *netlist.TriMap
	m   *netlist.Machine[lane.W1]
	pis []lane.W1 // twin PI vectors: rails interleaved in model PI order
}

func newTwin(nl *netlist.Netlist) (*twin, error) {
	tn, tm, err := netlist.TriExpand(nl)
	if err != nil {
		return nil, err
	}
	prog, err := netlist.Compile(tn)
	if err != nil {
		return nil, err
	}
	return &twin{
		nl:  nl,
		tm:  tm,
		m:   netlist.NewMachine[lane.W1](prog),
		pis: make([]lane.W1, len(tn.PIs)),
	}, nil
}

// armPair injects a target's fault sites into pair k's faulty lane,
// leaving every other pair's batch armed.
//
//repro:hotpath
func (t *twin) armPair(k int, sites []netlist.FaultSite) {
	mask := lane.Bit[lane.W1](2*k + faultyLane)
	for _, st := range sites {
		for _, ts := range t.tm.FaultSites(t.nl, st) {
			t.m.InjectFault(ts, mask)
		}
	}
}

// clearPair retires pair k's injections (both of its lanes), leaving the
// other pairs' batches armed — the pair-scoped half of re-arming.
//
//repro:hotpath
func (t *twin) clearPair(k int) {
	both := lane.Or(lane.Bit[lane.W1](2*k+goodLane), lane.Bit[lane.W1](2*k+faultyLane))
	t.m.ClearFaultLanes(both)
}

// gather writes one search's PI assignment into pair k's two lanes of
// the twin PI scratch: the hi rail carries assigned-1 positions, the lo
// rail assigned-0, neither rail set is X. Both of the pair's lanes see
// the same stimulus — the planes differ only through injected faults.
//
//repro:hotpath
func (t *twin) gather(assign []tri, k int) {
	pairLanes := uint64(3) << uint(2*k)
	for i, v := range assign {
		var hw, lw uint64
		switch v {
		case hi:
			hw = pairLanes
		case lo:
			lw = pairLanes
		}
		t.pis[2*i][0] = t.pis[2*i][0]&^pairLanes | hw
		t.pis[2*i+1][0] = t.pis[2*i+1][0]&^pairLanes | lw
	}
}

// decode slices pair k's two planes out of the shared evaluation into the
// cursor's three-valued gv/fv arrays.
//
//repro:hotpath
func (t *twin) decode(c *cursor, k int) {
	gb, fb := uint(2*k+goodLane), uint(2*k+faultyLane)
	for id := range t.nl.Gates {
		hv := t.m.Value(t.tm.Hi[id])[0]
		lv := t.m.Value(t.tm.Lo[id])[0]
		c.gv[id] = railTri(hv>>gb&1, lv>>gb&1)
		c.fv[id] = railTri(hv>>fb&1, lv>>fb&1)
	}
}

// railTri decodes one plane's rail pair: hi rail set means 1, lo rail set
// means 0, neither means X (both set cannot arise — the twin preserves
// the rail invariant and fault injection writes consistent pairs).
func railTri(h, l uint64) tri {
	if h != 0 {
		return hi
	}
	if l != 0 {
		return lo
	}
	return xx
}
