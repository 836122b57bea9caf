// Package faultsim implements the single stuck-at fault model and fault
// simulation on gate-level netlists: fault-list generation with classical
// structural equivalence collapsing, parallel-pattern single-fault
// propagation for combinational circuits (one fault-free pass per
// 64-pattern batch, then each live fault re-evaluates only the gates it
// disturbs, with fault dropping between batches), and parallel-fault
// whole-sequence simulation for sequential circuits (64 faults per pass,
// one fault machine per lane of the compiled netlist engine, with
// per-lane fault dropping at first detection; a batch whose live faults
// disturb few gates per cycle evaluates only those, against one
// fault-free machine shared by every batch). Both paths run the
// compiled netlist.Program on a worker pool sized by Config.Workers;
// Workers == 1 selects the serial single-fault Evaluator path kept as the
// differential reference. The produced first-detection profile is what
// the paper's coverage metrics (MFC, RFC, ΔFC%, ΔL%, NLFCE) are computed
// from.
package faultsim

import (
	"fmt"

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

	var out []Fault
	stem := func(g *netlist.Gate, v uint64) {
		out = append(out, Fault{
			Site: netlist.FaultSite{Gate: g.ID, Pin: -1, Stuck: v},
			Desc: fmt.Sprintf("%s/out s-a-%d", gateLabel(nl, g), v),
		})
	}
	for _, g := range nl.Gates {
		switch g.Type {
		case netlist.Const0:
			stem(g, 1)
			continue
		case netlist.Const1:
			stem(g, 0)
			continue
		}
		stem(g, 0)
		stem(g, 1)
		for j, d := range g.Fanin {
			if d < 0 || fanout[d] <= 1 {
				continue // branch ≡ driver stem
			}
			for v := uint64(0); v <= 1; v++ {
				if branchEquivToStem(g.Type, v) {
					continue
				}
				out = append(out, Fault{
					Site: netlist.FaultSite{Gate: g.ID, Pin: j, Stuck: v},
					Desc: fmt.Sprintf("%s/in%d s-a-%d", gateLabel(nl, g), j, v),
				})
			}
		}
	}
	return out
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

func gateLabel(nl *netlist.Netlist, g *netlist.Gate) string {
	if g.Name != "" {
		return g.Name
	}
	return fmt.Sprintf("n%d", g.ID)
}
