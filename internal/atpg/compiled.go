package atpg

import (
	"repro/internal/lane"
	"repro/internal/netlist"
)

// Lane assignment of the PODEM planes inside one compiled machine pass:
// search k occupies lane pair k — the fault-free good plane on even lane
// 2k, the fault-injected faulty plane on odd lane 2k+1 right above it —
// the same lanes it reads in the run's plane, so one copy of each
// gate's two rail words serves every search. The pack scheduler fills up
// to packMaxPairs pairs of the same W=1 word, so one instruction-stream
// pass evaluates up to 32 concurrent searches; PackPairs == 1 runs the
// same scheduler on pair 0 alone.
const (
	goodLane   = 0
	faultyLane = 1
	// packMaxPairs is the lane-pair capacity of one W=1 machine word:
	// 64 lanes / 2 lanes per search.
	packMaxPairs = 32
)

// twin is one packed run's compiled dual-rail backend: a W=1 machine
// evaluating the model's twin program (the model netlist's TriExpand
// twin, Kleene three-valued logic as two-valued rails, compiled once per
// Model), plus the twin PI scratch. Arming a pair translates each
// of its target's fault sites into a rail pair and injects it into that
// pair's faulty lane only; an implication pass is then one gather per
// active pair, a single Machine.Eval, and one load of every gate's rail
// words into the run's plane, which each search reads on its own
// lanes exactly as it reads the interpreter's.
type twin struct {
	nl  *netlist.Netlist // model netlist (the twin's source)
	tm  *netlist.TriMap
	m   *netlist.Machine[lane.W1]
	pis []lane.W1 // twin PI vectors: rails interleaved in model PI order
	// sent[k] is the assignment pair k's lanes of pis hold, so a gather
	// rewrites only the PIs its search changed since the last one.
	sent [packMaxPairs][]tri
}

// newTwin builds a machine on the twin program prog of model netlist nl
// (tm maps nl's gates to their rails), with no fault armed.
func newTwin(nl *netlist.Netlist, tm *netlist.TriMap, prog *netlist.Program) *twin {
	t := &twin{
		nl:  nl,
		tm:  tm,
		m:   netlist.NewMachine[lane.W1](prog),
		pis: make([]lane.W1, len(prog.Netlist().PIs)),
	}
	// Zero rails are X on every lane, as every sent cube starts.
	for k := range t.sent {
		t.sent[k] = make([]tri, len(nl.PIs))
		for i := range t.sent[k] {
			t.sent[k][i] = xx
		}
	}
	return t
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
// Only the PIs that differ from the pair's last gather are rewritten: a
// round's decision changes one PI, or unassigns a few when it backtracks.
//
//repro:hotpath
func (t *twin) gather(assign []tri, k int) {
	pairLanes := uint64(3) << uint(2*k)
	sent := t.sent[k][:len(assign)]
	for i, v := range assign {
		if v == sent[i] {
			continue
		}
		sent[i] = v
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

// load copies the last evaluation's rail words of every model gate into
// the plane: one pass over the gates serves every pair, each search
// reading its own two lanes.
//
//repro:hotpath
func (t *twin) load(pl *plane) {
	for id := range pl.hi {
		pl.hi[id] = t.m.Value(t.tm.Hi[id])[0]
		pl.lo[id] = t.m.Value(t.tm.Lo[id])[0]
	}
}
