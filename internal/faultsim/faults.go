// Package faultsim implements the single stuck-at fault model and fault
// simulation on gate-level netlists: fault-list generation with classical
// structural equivalence collapsing, parallel-pattern single-fault
// propagation for combinational circuits (one fault-free pass per
// 64-pattern batch, then each live fault re-evaluates only the gates it
// disturbs, with fault dropping between batches), and parallel-fault
// whole-sequence simulation for sequential circuits (one fault machine
// per lane of the compiled netlist engine, up to 512 per pass, with
// per-lane fault dropping at first detection; a batch whose live faults
// disturb few gates per cycle evaluates only those, against one
// fault-free machine shared by every batch). The simulator picks every
// lane width itself: 64-pattern batches for combinational circuits, and
// eight-word fault batches plus the cheapest narrower tail for
// sequential ones, re-planned narrower as lanes drop. A fault whose site
// reaches no primary output gets no lane at all. Both paths run the
// compiled netlist.Program on a worker pool sized by Config.Workers;
// Workers == 1 selects the serial single-fault Evaluator path kept as the
// differential reference. The produced first-detection profile is what
// the paper's coverage metrics (MFC, RFC, ΔFC%, ΔL%, NLFCE) are computed
// from.
package faultsim

import (
	"strconv"

	"repro/internal/netlist"
)

// Fault is one collapsed single stuck-at fault.
type Fault struct {
	Site netlist.FaultSite
	Desc string
}

// Faults generates the collapsed stuck-at fault list for a netlist using
// the standard local-equivalence rules:
//
//   - every gate output (stem) carries s-a-0 and s-a-1, except constant
//     gates' trivially-undetectable same-value fault;
//   - input-pin (branch) faults are listed only where the driving net has
//     fanout greater than one (single-fanout branch faults are equivalent
//     to the driver's stem fault);
//   - branch faults equivalent to the gate's own stem fault are dropped
//     (AND in-0 ≡ out-0, NAND in-0 ≡ out-1, OR in-1 ≡ out-1, NOR in-1 ≡
//     out-0, BUF/NOT all input faults).
func Faults(nl *netlist.Netlist) []Fault {
	fanout := make([]int, len(nl.Gates))
	for _, g := range nl.Gates {
		for _, f := range g.Fanin {
			if f >= 0 {
				fanout[f]++
			}
		}
	}
	// The first pass sizes the list and its descriptions, the second
	// fills them: every Desc is a substring of one string, so the list
	// costs a handful of allocations instead of one or two per fault.
	n, size := 0, 0
	var scratch []byte
	collapsed(nl, fanout, func(site netlist.FaultSite) {
		n++
		scratch = appendDesc(scratch[:0], nl, site)
		size += len(scratch)
	})
	out := make([]Fault, 0, n)
	ends := make([]int, 0, n)
	buf := make([]byte, 0, size)
	collapsed(nl, fanout, func(site netlist.FaultSite) {
		out = append(out, Fault{Site: site})
		buf = appendDesc(buf, nl, site)
		ends = append(ends, len(buf))
	})
	descs, lo := string(buf), 0
	for i, hi := range ends {
		out[i].Desc, lo = descs[lo:hi], hi
	}
	return out
}

// collapsed calls visit on every fault of the collapsed list, in list
// order.
func collapsed(nl *netlist.Netlist, fanout []int, visit func(netlist.FaultSite)) {
	for _, g := range nl.Gates {
		switch g.Type {
		case netlist.Const0:
			visit(netlist.FaultSite{Gate: g.ID, Pin: -1, Stuck: 1})
			continue
		case netlist.Const1:
			visit(netlist.FaultSite{Gate: g.ID, Pin: -1, Stuck: 0})
			continue
		}
		visit(netlist.FaultSite{Gate: g.ID, Pin: -1, Stuck: 0})
		visit(netlist.FaultSite{Gate: g.ID, Pin: -1, Stuck: 1})
		for j, d := range g.Fanin {
			if d < 0 || fanout[d] <= 1 {
				continue // branch ≡ driver stem
			}
			for v := uint64(0); v <= 1; v++ {
				if !branchEquivToStem(g.Type, v) {
					visit(netlist.FaultSite{Gate: g.ID, Pin: j, Stuck: v})
				}
			}
		}
	}
}

// appendDesc appends the fault's description, "<gate>/out s-a-<v>" or
// "<gate>/in<pin> s-a-<v>", where <gate> is the gate's name or n<ID>.
func appendDesc(b []byte, nl *netlist.Netlist, site netlist.FaultSite) []byte {
	if g := nl.Gates[site.Gate]; g.Name != "" {
		b = append(b, g.Name...)
	} else {
		b = strconv.AppendInt(append(b, 'n'), int64(g.ID), 10)
	}
	if site.Pin < 0 {
		b = append(b, "/out"...)
	} else {
		b = strconv.AppendInt(append(b, "/in"...), int64(site.Pin), 10)
	}
	return strconv.AppendUint(append(b, " s-a-"...), site.Stuck, 10)
}

// branchEquivToStem reports whether an input s-a-v of a gate of type t is
// equivalent to one of that gate's own output faults (and hence dropped).
func branchEquivToStem(t netlist.GateType, v uint64) bool {
	switch t {
	case netlist.Buf, netlist.Not:
		return true
	case netlist.And, netlist.Nand:
		return v == 0
	case netlist.Or, netlist.Nor:
		return v == 1
	}
	return false
}
