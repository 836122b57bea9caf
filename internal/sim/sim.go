// Package sim is the cycle-accurate behavioral simulator for MHDL
// circuits. It is the engine on which both the original description and
// its mutants execute during validation-data generation, so the hot path
// (Step) avoids allocation: every signal is resolved to an integer slot at
// construction time and a single flat value array serves as the
// environment.
//
// Cycle semantics (two-phase, implicit clock):
//
//  1. wires are cleared to zero,
//  2. input values are written,
//  3. comb blocks execute in declaration order with immediate updates,
//  4. outputs are sampled (registered outputs still hold last cycle's
//     values, like VHDL clocked-process outputs),
//  5. seq blocks execute reading pre-cycle register values and writing a
//     shadow "next" array (VHDL signal-assignment semantics),
//  6. registers and registered outputs commit their next values.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/hdl"
)

// Vector is one input (or output) assignment, ordered by the circuit's
// input (or output) declaration order.
type Vector []bitvec.BV

// Sequence is a test: one input vector per clock cycle, applied after
// power-on reset state.
type Sequence []Vector

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	for i, v := range s {
		out[i] = append(Vector(nil), v...)
	}
	return out
}

// Simulator executes one circuit instance. It is not safe for concurrent
// use; create one Simulator per goroutine.
type Simulator struct {
	c     *hdl.Circuit
	slots map[string]int
	env   []bitvec.BV // current values, indexed by slot
	next  []bitvec.BV // shadow values for seq writes
	width []int

	inSlots   []int // input ports, declaration order
	outSlots  []int // output ports, declaration order
	regSlots  []int // regs plus registered outputs
	wireSlots []int
	regInit   []bitvec.BV

	loopVars map[string]uint64
}

// New builds a simulator for a checked circuit. The circuit must have been
// through hdl.Check (either mode); widths on expression nodes are trusted.
func New(c *hdl.Circuit) (*Simulator, error) {
	s := &Simulator{
		c:        c,
		slots:    make(map[string]int),
		loopVars: make(map[string]uint64),
	}
	alloc := func(name string, width int) (int, error) {
		if _, dup := s.slots[name]; dup {
			return 0, fmt.Errorf("sim: duplicate signal %q", name)
		}
		id := len(s.env)
		s.slots[name] = id
		s.env = append(s.env, bitvec.Zero(width))
		s.width = append(s.width, width)
		return id, nil
	}

	registered := c.AssignedSignals(hdl.Seq)
	for _, p := range c.Ports {
		id, err := alloc(p.Name, p.Width)
		if err != nil {
			return nil, err
		}
		if p.Dir == hdl.Input {
			s.inSlots = append(s.inSlots, id)
		} else {
			s.outSlots = append(s.outSlots, id)
			if registered[p.Name] {
				s.regSlots = append(s.regSlots, id)
				s.regInit = append(s.regInit, bitvec.Zero(p.Width))
			}
		}
	}
	for _, r := range c.Regs {
		id, err := alloc(r.Name, r.Width)
		if err != nil {
			return nil, err
		}
		s.regSlots = append(s.regSlots, id)
		s.regInit = append(s.regInit, r.Init)
	}
	for _, w := range c.Wires {
		id, err := alloc(w.Name, w.Width)
		if err != nil {
			return nil, err
		}
		s.wireSlots = append(s.wireSlots, id)
	}
	for _, k := range c.Consts {
		id, err := alloc(k.Name, k.Width)
		if err != nil {
			return nil, err
		}
		s.env[id] = k.Value
	}
	s.next = make([]bitvec.BV, len(s.env))
	s.Reset()
	return s, nil
}

// Circuit returns the circuit being simulated.
func (s *Simulator) Circuit() *hdl.Circuit { return s.c }

// NumOutputs returns the number of output ports.
func (s *Simulator) NumOutputs() int { return len(s.outSlots) }

// Reset restores power-on state: registers to their declared init values,
// registered outputs to zero.
func (s *Simulator) Reset() {
	for i, id := range s.regSlots {
		s.env[id] = s.regInit[i]
	}
}

// Snapshot captures the register state (registers and registered
// outputs). The returned slice is owned by the caller.
func (s *Simulator) Snapshot() []bitvec.BV {
	out := make([]bitvec.BV, len(s.regSlots))
	for i, id := range s.regSlots {
		out[i] = s.env[id]
	}
	return out
}

// Step applies one input vector, advances one clock cycle, and returns the
// sampled output vector. The returned slice is freshly allocated.
func (s *Simulator) Step(in Vector) (Vector, error) {
	if len(in) != len(s.inSlots) {
		return nil, fmt.Errorf("sim: %d input values for %d inputs", len(in), len(s.inSlots))
	}
	for i, id := range s.inSlots {
		if in[i].Width() != s.width[id] {
			return nil, fmt.Errorf("sim: input %d has width %d, want %d", i, in[i].Width(), s.width[id])
		}
		s.env[id] = in[i]
	}
	for _, id := range s.wireSlots {
		s.env[id] = bitvec.Zero(s.width[id])
	}
	for _, b := range s.c.Blocks {
		if b.Kind == hdl.Comb {
			s.execStmts(b.Stmts, true)
		}
	}
	out := make(Vector, len(s.outSlots))
	for i, id := range s.outSlots {
		out[i] = s.env[id]
	}
	for _, id := range s.regSlots {
		s.next[id] = s.env[id]
	}
	for _, b := range s.c.Blocks {
		if b.Kind == hdl.Seq {
			s.execStmts(b.Stmts, false)
		}
	}
	for _, id := range s.regSlots {
		s.env[id] = s.next[id]
	}
	return out, nil
}

// Run resets the simulator and applies the whole sequence, returning one
// output vector per cycle.
func (s *Simulator) Run(seq Sequence) ([]Vector, error) {
	s.Reset()
	out := make([]Vector, 0, len(seq))
	for i, vec := range seq {
		o, err := s.Step(vec)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// execStmts runs a statement list. immediate selects comb semantics (writes
// visible to later statements) versus seq semantics (writes to the shadow
// array, reads see pre-cycle values).
func (s *Simulator) execStmts(ss []hdl.Stmt, immediate bool) {
	for _, st := range ss {
		s.execStmt(st, immediate)
	}
}

func (s *Simulator) execStmt(st hdl.Stmt, immediate bool) {
	switch st := st.(type) {
	case *hdl.Assign:
		s.execAssign(st, immediate)
	case *hdl.If:
		if s.eval(st.Cond).IsTrue() {
			s.execStmts(st.Then, immediate)
		} else {
			s.execStmts(st.Else, immediate)
		}
	case *hdl.Case:
		subj := s.eval(st.Subject)
		for _, arm := range st.Arms {
			for _, l := range arm.Labels {
				if s.eval(l).Equal(subj) {
					s.execStmts(arm.Body, immediate)
					return
				}
			}
		}
		s.execStmts(st.Default, immediate)
	case *hdl.For:
		for v := st.Lo; v <= st.Hi; v++ {
			s.loopVars[st.Var] = uint64(v)
			s.execStmts(st.Body, immediate)
		}
		delete(s.loopVars, st.Var)
	}
}

func (s *Simulator) execAssign(st *hdl.Assign, immediate bool) {
	id, ok := s.slots[st.LHS.Name]
	if !ok {
		return // mutants may reference deleted names; tolerate
	}
	val := s.eval(st.RHS)
	target := &s.next[id]
	if immediate {
		target = &s.env[id]
	}
	if st.LHS.Index == nil {
		if val.Width() != s.width[id] {
			val = val.Resize(s.width[id])
		}
		*target = val
		return
	}
	idx := s.eval(st.LHS.Index).Uint()
	if idx >= uint64(s.width[id]) {
		return // out-of-range dynamic bit write is a no-op
	}
	*target = target.SetBit(int(idx), val.Uint()&1)
}

// eval computes an expression's value. Widths were resolved by the checker;
// dynamic indices out of range read as zero.
func (s *Simulator) eval(e hdl.Expr) bitvec.BV {
	switch e := e.(type) {
	case *hdl.Lit:
		if e.Width == 0 {
			// Unchecked literal (possible in relaxed-mode mutants): use
			// natural width.
			return bitvec.New(e.Raw, max(1, bits.Len64(e.Raw)))
		}
		return e.Val
	case *hdl.Ref:
		if v, ok := s.loopVars[e.Name]; ok {
			w := e.Width
			if w == 0 {
				w = 8
			}
			return bitvec.New(v, w)
		}
		id, ok := s.slots[e.Name]
		if !ok {
			w := e.Width
			if w == 0 {
				w = 1
			}
			return bitvec.Zero(w)
		}
		return s.env[id]
	case *hdl.Index:
		x := s.eval(e.X)
		i := s.eval(e.I).Uint()
		if i >= uint64(x.Width()) {
			return bitvec.Zero(1)
		}
		return bitvec.New(x.Bit(int(i)), 1)
	case *hdl.SliceExpr:
		return s.eval(e.X).Slice(e.Hi, e.Lo)
	case *hdl.Unary:
		x := s.eval(e.X)
		switch e.Op {
		case hdl.OpNot:
			return x.Not()
		case hdl.OpNeg:
			return x.Neg()
		case hdl.OpRedAnd:
			return x.ReduceAnd()
		case hdl.OpRedOr:
			return x.ReduceOr()
		case hdl.OpRedXor:
			return x.ReduceXor()
		}
	case *hdl.Binary:
		x := s.eval(e.X)
		y := s.eval(e.Y)
		// Mutants can combine signals whose widths the original context
		// fixed differently (VR in relaxed mode); resize defensively.
		if x.Width() != y.Width() && e.Op != hdl.OpConcat && !e.Op.IsShift() {
			y = y.Resize(x.Width())
		}
		switch e.Op {
		case hdl.OpAnd:
			return x.And(y)
		case hdl.OpOr:
			return x.Or(y)
		case hdl.OpXor:
			return x.Xor(y)
		case hdl.OpNand:
			return x.Nand(y)
		case hdl.OpNor:
			return x.Nor(y)
		case hdl.OpXnor:
			return x.Xnor(y)
		case hdl.OpEq:
			return x.Eq(y)
		case hdl.OpNe:
			return x.Ne(y)
		case hdl.OpLt:
			return x.Lt(y)
		case hdl.OpLe:
			return x.Le(y)
		case hdl.OpGt:
			return x.Gt(y)
		case hdl.OpGe:
			return x.Ge(y)
		case hdl.OpAdd:
			return x.Add(y)
		case hdl.OpSub:
			return x.Sub(y)
		case hdl.OpMul:
			return x.Mul(y)
		case hdl.OpShl:
			return x.Shl(y.Resize(x.Width()))
		case hdl.OpShr:
			return x.Shr(y.Resize(x.Width()))
		case hdl.OpConcat:
			return x.Concat(y)
		}
	}
	panic(fmt.Sprintf("sim: cannot evaluate %T", e))
}
