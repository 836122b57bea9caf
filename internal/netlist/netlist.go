// Package netlist represents gate-level circuits: the structural view on
// which stuck-at faults are defined. A netlist is a flat graph of primitive
// gates (AND/OR/NAND/NOR/XOR/XNOR/NOT/BUF, constants, D flip-flops) with
// named primary inputs and outputs, in the spirit of the ISCAS/ITC
// benchmark netlists. The package also reads and writes the ISCAS-89
// ".bench" interchange format and provides a 64-pattern-parallel
// good-machine simulator that the fault simulator builds on.
package netlist

import (
	"fmt"
	"sort"
)

// GateType enumerates primitive gate kinds.
type GateType int

// Gate kinds.
const (
	PI GateType = iota // primary input (no fanin)
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	DFF // one fanin (D); output is the stored state
)

var gateNames = map[GateType]string{
	PI: "INPUT", Const0: "CONST0", Const1: "CONST1", Buf: "BUF", Not: "NOT",
	And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR", Xor: "XOR", Xnor: "XNOR",
	DFF: "DFF",
}

func (t GateType) String() string { return gateNames[t] }

// IsComb reports whether the gate computes combinationally from its fanins.
func (t GateType) IsComb() bool {
	switch t {
	case Buf, Not, And, Or, Nand, Nor, Xor, Xnor:
		return true
	}
	return false
}

// Gate is one node of the netlist. Gates are identified by their index in
// Netlist.Gates.
type Gate struct {
	ID    int
	Type  GateType
	Name  string // non-empty for PIs, POs and DFFs; synthesized names elsewhere
	Fanin []int
	Init  uint64 // DFF power-on value (0 or 1)
}

// Netlist is a flat gate-level circuit.
type Netlist struct {
	Name  string
	Gates []*Gate
	// PIs and POs list gate IDs in declaration order. A PO entry may be any
	// gate; its observed value is that gate's output.
	PIs []int
	POs []int
	// PONames parallels POs.
	PONames []string
	// FFs lists DFF gate IDs in creation order.
	FFs []int

	levels    []int // topological levels, computed by Levelize
	levelized bool
}

// New returns an empty netlist.
func New(name string) *Netlist { return &Netlist{Name: name} }

// AddInput creates a primary input gate and returns its ID.
func (n *Netlist) AddInput(name string) int {
	id := n.add(&Gate{Type: PI, Name: name})
	n.PIs = append(n.PIs, id)
	return id
}

// AddGate creates a gate of the given type with the given fanins and
// returns its ID. Fanin IDs must already exist.
func (n *Netlist) AddGate(t GateType, fanin ...int) int {
	if t == PI || t == DFF {
		panic("netlist: use AddInput / AddDFF")
	}
	for _, f := range fanin {
		if f < 0 || f >= len(n.Gates) {
			panic(fmt.Sprintf("netlist: fanin %d out of range", f))
		}
	}
	switch t {
	case Const0, Const1:
		if len(fanin) != 0 {
			panic("netlist: constant with fanin")
		}
	case Buf, Not:
		if len(fanin) != 1 {
			panic(fmt.Sprintf("netlist: %s needs exactly 1 fanin, got %d", t, len(fanin)))
		}
	default:
		if len(fanin) < 2 {
			panic(fmt.Sprintf("netlist: %s needs >= 2 fanins, got %d", t, len(fanin)))
		}
	}
	return n.add(&Gate{Type: t, Fanin: fanin})
}

// AddDFF creates a D flip-flop with an unset data input (set it later with
// SetDFFInput, which permits feedback) and the given power-on value.
func (n *Netlist) AddDFF(name string, init uint64) int {
	id := n.add(&Gate{Type: DFF, Name: name, Fanin: []int{-1}, Init: init & 1})
	n.FFs = append(n.FFs, id)
	return id
}

// SetDFFInput connects the D input of a flip-flop created by AddDFF.
func (n *Netlist) SetDFFInput(ff, d int) {
	g := n.Gates[ff]
	if g.Type != DFF {
		panic(fmt.Sprintf("netlist: gate %d is %s, not DFF", ff, g.Type))
	}
	if d < 0 || d >= len(n.Gates) {
		panic(fmt.Sprintf("netlist: DFF input %d out of range", d))
	}
	g.Fanin[0] = d
	n.levelized = false
}

// MarkOutput declares gate id as a primary output with the given name.
func (n *Netlist) MarkOutput(id int, name string) {
	if id < 0 || id >= len(n.Gates) {
		panic(fmt.Sprintf("netlist: output gate %d out of range", id))
	}
	n.POs = append(n.POs, id)
	n.PONames = append(n.PONames, name)
}

func (n *Netlist) add(g *Gate) int {
	g.ID = len(n.Gates)
	n.Gates = append(n.Gates, g)
	n.levelized = false
	return g.ID
}

// NumGates returns the total gate count, including PIs and DFFs.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// CombGateCount returns the number of combinational gates (the usual
// "gate count" reported for benchmark circuits).
func (n *Netlist) CombGateCount() int {
	c := 0
	for _, g := range n.Gates {
		if g.Type.IsComb() {
			c++
		}
	}
	return c
}

// IsSequential reports whether the netlist contains flip-flops.
func (n *Netlist) IsSequential() bool { return len(n.FFs) > 0 }

// Validate checks structural invariants: fanins connected and in range,
// DFF inputs set, no combinational cycles.
func (n *Netlist) Validate() error {
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			if f < 0 || f >= len(n.Gates) {
				return fmt.Errorf("netlist %s: gate %d (%s) has unconnected or bad fanin %d", n.Name, g.ID, g.Type, f)
			}
		}
	}
	if len(n.POs) == 0 {
		return fmt.Errorf("netlist %s: no primary outputs", n.Name)
	}
	_, err := n.Levelize()
	return err
}

// Levelize computes topological levels for combinational evaluation: PIs,
// constants and DFF outputs are level 0; every combinational gate is one
// more than its deepest fanin. It returns the evaluation order (gate IDs
// sorted by level, ties by ID) and errors on combinational cycles. Its
// first call writes the cached levels, so a netlist shared across
// goroutines must be levelized first (Compile, Validate and Fingerprint
// do it).
func (n *Netlist) Levelize() ([]int, error) {
	if n.levelized {
		return n.evalOrder(), nil
	}
	levels := make([]int, len(n.Gates))
	state := make([]int, len(n.Gates)) // 0 unvisited, 1 in progress, 2 done
	var visit func(id int) error
	for i := range levels {
		levels[i] = -1
	}
	visit = func(id int) error {
		g := n.Gates[id]
		if state[id] == 2 {
			return nil
		}
		if state[id] == 1 {
			return fmt.Errorf("netlist %s: combinational cycle through gate %d (%s %s)", n.Name, id, g.Type, g.Name)
		}
		state[id] = 1
		lvl := 0
		if g.Type.IsComb() {
			for _, f := range g.Fanin {
				if f < 0 {
					return fmt.Errorf("netlist %s: gate %d has unset fanin", n.Name, id)
				}
				if err := visit(f); err != nil {
					return err
				}
				if levels[f]+1 > lvl {
					lvl = levels[f] + 1
				}
			}
		}
		// PIs, constants and DFFs break the traversal: their values are
		// available at the start of a cycle.
		levels[id] = lvl
		state[id] = 2
		return nil
	}
	for id := range n.Gates {
		if err := visit(id); err != nil {
			return nil, err
		}
	}
	// DFF D-inputs must themselves be acyclic through comb logic; visiting
	// every gate above covers them.
	n.levels = levels
	n.levelized = true
	return n.evalOrder(), nil
}

func (n *Netlist) evalOrder() []int {
	order := make([]int, 0, len(n.Gates))
	for id, g := range n.Gates {
		if g.Type.IsComb() {
			order = append(order, id)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if n.levels[a] != n.levels[b] {
			return n.levels[a] < n.levels[b]
		}
		return a < b
	})
	return order
}

// Depth returns the maximum combinational level (0 for an empty netlist).
// Levelize must have succeeded first.
func (n *Netlist) Depth() int {
	if !n.levelized {
		if _, err := n.Levelize(); err != nil {
			return 0
		}
	}
	d := 0
	for _, l := range n.levels {
		if l > d {
			d = l
		}
	}
	return d
}

// Stats summarizes a netlist for reports.
type Stats struct {
	Name     string
	PIs, POs int
	FFs      int
	Gates    int // combinational gates
	Depth    int
}

// Stats returns summary statistics.
func (n *Netlist) Stats() Stats {
	return Stats{
		Name: n.Name, PIs: len(n.PIs), POs: len(n.POs), FFs: len(n.FFs),
		Gates: n.CombGateCount(), Depth: n.Depth(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d FF, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.FFs, s.Gates, s.Depth)
}
