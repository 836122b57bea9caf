package netlist

import "fmt"

// FaultSite locates a single stuck-at fault on a gate pin. Pin -1 is the
// gate's output (the stem); Pin >= 0 is the connection feeding fanin j of
// that gate (a fanout branch), which faults only this gate's view of the
// driving net. Stuck is 0 or 1.
type FaultSite struct {
	Gate  int
	Pin   int
	Stuck uint64
}

// NoFault is the sentinel passed to EvalWith for fault-free evaluation.
var NoFault = FaultSite{Gate: -1, Pin: -1}

// Evaluator is the 64-pattern-parallel good-machine simulator. Each net
// carries a 64-bit word; bit k of every word belongs to pattern k, so one
// pass evaluates up to 64 independent input patterns. It injects at most
// one fault site per pass (broadcast across the lanes laneMask selects),
// which makes it the single-fault reference engine: the parallel-fault
// sequential fault simulator instead drives the compiled Machine (see
// Compile), which packs 64 independent fault machines into those lanes
// and is pinned bit-identical to this evaluator differentially.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	nl    *Netlist
	order []int    // combinational evaluation order
	vals  []uint64 // current net values, indexed by gate ID
	state []uint64 // DFF stored values, indexed by position in nl.FFs
	out   []uint64 // PO scratch buffer, reused across Eval calls
}

// NewEvaluator builds an evaluator; the netlist must validate.
func NewEvaluator(nl *Netlist) (*Evaluator, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	order, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		nl:    nl,
		order: order,
		vals:  make([]uint64, len(nl.Gates)),
		state: make([]uint64, len(nl.FFs)),
		out:   make([]uint64, len(nl.POs)),
	}
	e.Reset()
	return e, nil
}

// Netlist returns the circuit being evaluated.
func (e *Evaluator) Netlist() *Netlist { return e.nl }

// Reset restores every flip-flop to its power-on value, replicated across
// all 64 pattern lanes.
func (e *Evaluator) Reset() {
	for i, id := range e.nl.FFs {
		if e.nl.Gates[id].Init&1 == 1 {
			e.state[i] = ^uint64(0)
		} else {
			e.state[i] = 0
		}
	}
}

// State returns a copy of the flip-flop state words.
func (e *Evaluator) State() []uint64 {
	out := make([]uint64, len(e.state))
	copy(out, e.state)
	return out
}

// Eval runs one combinational evaluation with the given PI words (ordered
// like nl.PIs) and returns the PO words (ordered like nl.POs). The result
// slice is reused by the next Eval/EvalWith call. For sequential circuits
// the flip-flop state words feed the logic; call Clock afterwards to
// advance state.
func (e *Evaluator) Eval(pis []uint64) ([]uint64, error) {
	if len(pis) != len(e.nl.PIs) {
		return nil, fmt.Errorf("netlist: %d PI words for %d inputs", len(pis), len(e.nl.PIs))
	}
	return e.EvalWith(pis, NoFault, 0), nil
}

// EvalWith evaluates with a stuck-at fault injected on the given site in
// the pattern lanes selected by laneMask. Pass NoFault for fault-free
// evaluation. The result slice is reused by the next Eval/EvalWith call.
func (e *Evaluator) EvalWith(pis []uint64, f FaultSite, laneMask uint64) []uint64 {
	e.evalInto(pis, f, laneMask)
	for i, id := range e.nl.POs {
		e.out[i] = e.vals[id]
	}
	return e.out
}

// Clock latches each flip-flop's D input into its state, using the values
// from the most recent Eval/EvalWith pass.
func (e *Evaluator) Clock() {
	for i, id := range e.nl.FFs {
		e.state[i] = e.vals[e.nl.Gates[id].Fanin[0]]
	}
}

// ClockWith latches like Clock, but if the fault site is a DFF input pin
// it injects the fault into the latched value (a stuck D pin corrupts the
// state the flop captures).
func (e *Evaluator) ClockWith(f FaultSite, laneMask uint64) {
	e.Clock()
	if f.Gate >= 0 && f.Pin == 0 && e.nl.Gates[f.Gate].Type == DFF {
		for i, id := range e.nl.FFs {
			if id == f.Gate {
				stuck := uint64(0)
				if f.Stuck == 1 {
					stuck = ^uint64(0)
				}
				e.state[i] = (e.state[i] &^ laneMask) | (stuck & laneMask)
			}
		}
	}
}

// Value returns the last computed word on a gate's output.
func (e *Evaluator) Value(id int) uint64 { return e.vals[id] }

func (e *Evaluator) evalInto(pis []uint64, f FaultSite, laneMask uint64) {
	nl := e.nl
	vals := e.vals
	stuckWord := uint64(0)
	if f.Stuck == 1 {
		stuckWord = ^uint64(0)
	}
	for i, id := range nl.PIs {
		vals[id] = pis[i]
	}
	for i, id := range nl.FFs {
		vals[id] = e.state[i]
	}
	for _, g := range nl.Gates {
		switch g.Type {
		case Const0:
			vals[g.ID] = 0
		case Const1:
			vals[g.ID] = ^uint64(0)
		}
	}
	// Output faults on non-combinational gates (PIs, FFs, constants) apply
	// before combinational evaluation.
	if f.Gate >= 0 && f.Pin < 0 && !nl.Gates[f.Gate].Type.IsComb() {
		vals[f.Gate] = (vals[f.Gate] &^ laneMask) | (stuckWord & laneMask)
	}
	for _, id := range e.order {
		g := nl.Gates[id]
		var v uint64
		if id == f.Gate && f.Pin >= 0 && f.Pin < len(g.Fanin) {
			v = e.evalGatePinFault(g, f.Pin, stuckWord, laneMask)
		} else {
			v = e.evalGate(g)
		}
		if id == f.Gate && f.Pin < 0 {
			v = (v &^ laneMask) | (stuckWord & laneMask)
		}
		vals[id] = v
	}
}

func (e *Evaluator) evalGate(g *Gate) uint64 {
	vals := e.vals
	var v uint64
	switch g.Type {
	case Buf:
		v = vals[g.Fanin[0]]
	case Not:
		v = ^vals[g.Fanin[0]]
	case And:
		v = ^uint64(0)
		for _, f := range g.Fanin {
			v &= vals[f]
		}
	case Nand:
		v = ^uint64(0)
		for _, f := range g.Fanin {
			v &= vals[f]
		}
		v = ^v
	case Or:
		for _, f := range g.Fanin {
			v |= vals[f]
		}
	case Nor:
		for _, f := range g.Fanin {
			v |= vals[f]
		}
		v = ^v
	case Xor:
		for _, f := range g.Fanin {
			v ^= vals[f]
		}
	case Xnor:
		for _, f := range g.Fanin {
			v ^= vals[f]
		}
		v = ^v
	}
	return v
}

// evalGatePinFault evaluates g with fanin pin's value overridden by the
// stuck word in the masked lanes (a fanout-branch fault: only this gate
// sees the corrupted value).
func (e *Evaluator) evalGatePinFault(g *Gate, pin int, stuckWord, laneMask uint64) uint64 {
	in := func(j int) uint64 {
		v := e.vals[g.Fanin[j]]
		if j == pin {
			v = (v &^ laneMask) | (stuckWord & laneMask)
		}
		return v
	}
	var v uint64
	switch g.Type {
	case Buf:
		v = in(0)
	case Not:
		v = ^in(0)
	case And:
		v = ^uint64(0)
		for j := range g.Fanin {
			v &= in(j)
		}
	case Nand:
		v = ^uint64(0)
		for j := range g.Fanin {
			v &= in(j)
		}
		v = ^v
	case Or:
		for j := range g.Fanin {
			v |= in(j)
		}
	case Nor:
		for j := range g.Fanin {
			v |= in(j)
		}
		v = ^v
	case Xor:
		for j := range g.Fanin {
			v ^= in(j)
		}
	case Xnor:
		for j := range g.Fanin {
			v ^= in(j)
		}
		v = ^v
	}
	return v
}
