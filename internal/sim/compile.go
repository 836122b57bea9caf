// Flat-program compilation of MHDL circuits.
//
// The AST-walking Simulator pays an interface dispatch, a type switch and a
// map probe per node per cycle, which dominates mutation scoring: a
// campaign executes the same small circuit millions of times. Compile
// translates a checked circuit once into a linear instruction stream over
// integer value slots — expression trees become register-machine ops,
// if/case become conditional jumps, for loops are unrolled, and every
// literal, loop-variable value and out-of-scope reference is interned into
// a constant pool. A compiled Program is immutable and shareable; Machine
// carries the per-goroutine mutable state (two value arrays), so a worker
// pool scores many mutants concurrently from one compilation each.
//
// Semantics are bit-identical to Simulator.Step — including the
// relaxed-mode tolerances mutants need (missing names, width mismatches,
// out-of-range dynamic indices) — which TestMachineMatchesSimulator
// enforces differentially across whole mutant populations.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/hdl"
)

type opcode uint8

// Opcodes. The binary group must stay contiguous and in hdl.BinOp order:
// binary instructions are encoded as opBinBase + opcode(hdl.BinOp).
const (
	opCopy       opcode = iota // env[dst] = resize(env[a], c)
	opCopyNext                 // next[dst] = resize(env[a], c)
	opSetBit                   // env[dst] bit env[a] = env[b]&1, width guard c
	opSetBitNext               // same against next[dst]
	opResize                   // env[dst] = env[a].Resize(c)
	opIndex                    // env[dst] = env[a][env[b]], 0 when out of range
	opSlice                    // env[dst] = env[a].Slice(c, d)
	opNot
	opNeg
	opRedAnd
	opRedOr
	opRedXor
	opJmp // pc = c
	opJz  // if env[a] == 0: pc = c
	opJeq // if env[a].Equal(env[b]): pc = c
	opBinBase
)

// instr is one compiled operation. Meanings of a, b, c, d vary by opcode;
// all value operands are slot indices into the machine's env array.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
	c, d int32 // width, jump target, or slice bounds
}

// Program is a compiled circuit: named slots laid out exactly like
// Simulator's, a constant pool, scratch slots, and two instruction
// streams (comb-phase and seq-phase). It is immutable after Compile and
// safe for concurrent use through per-goroutine Machines.
type Program struct {
	c     *hdl.Circuit
	comb  []instr
	seq   []instr
	init  []bitvec.BV // initial env: consts, pool values, zeros elsewhere
	width []int       // declared width per named slot

	slots     map[string]int
	inSlots   []int
	outSlots  []int
	regSlots  []int
	wireSlots []int
	regInit   []bitvec.BV
	wireZero  []bitvec.BV
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *hdl.Circuit { return p.c }

// NumOutputs returns the number of output ports.
func (p *Program) NumOutputs() int { return len(p.outSlots) }

// compiler accumulates one instruction stream. Expression results live in
// scratch slots addressed by tree depth, so temporaries are reused across
// statements and the env array stays small.
type compiler struct {
	p        *Program
	code     []instr
	next     bool // emitting a seq block: named stores hit the next array
	loopVars map[string]uint64
	temps    []int         // scratch slot per expression depth
	pool     map[bvKey]int // interned constants
	readW    []int         // actual value width per named slot (consts!)
}

type bvKey struct {
	bits  uint64
	width int
}

// Compile translates a checked circuit into a Program. The circuit may be
// a relaxed-mode mutant; the generated code reproduces the interpreter's
// defensive semantics exactly.
func Compile(c *hdl.Circuit) (*Program, error) {
	p := &Program{c: c, slots: make(map[string]int)}
	alloc := func(name string, width int) (int, error) {
		if _, dup := p.slots[name]; dup {
			return 0, fmt.Errorf("sim: duplicate signal %q", name)
		}
		id := len(p.init)
		p.slots[name] = id
		p.init = append(p.init, bitvec.Zero(width))
		p.width = append(p.width, width)
		return id, nil
	}
	registered := c.AssignedSignals(hdl.Seq)
	for _, port := range c.Ports {
		id, err := alloc(port.Name, port.Width)
		if err != nil {
			return nil, err
		}
		if port.Dir == hdl.Input {
			p.inSlots = append(p.inSlots, id)
		} else {
			p.outSlots = append(p.outSlots, id)
			if registered[port.Name] {
				p.regSlots = append(p.regSlots, id)
				p.regInit = append(p.regInit, bitvec.Zero(port.Width))
			}
		}
	}
	for _, r := range c.Regs {
		id, err := alloc(r.Name, r.Width)
		if err != nil {
			return nil, err
		}
		p.regSlots = append(p.regSlots, id)
		p.regInit = append(p.regInit, r.Init)
	}
	for _, w := range c.Wires {
		id, err := alloc(w.Name, w.Width)
		if err != nil {
			return nil, err
		}
		p.wireSlots = append(p.wireSlots, id)
		p.wireZero = append(p.wireZero, bitvec.Zero(w.Width))
	}
	k := &compiler{
		p:        p,
		loopVars: make(map[string]uint64),
		pool:     make(map[bvKey]int),
	}
	for _, kst := range c.Consts {
		id, err := alloc(kst.Name, kst.Width)
		if err != nil {
			return nil, err
		}
		p.init[id] = kst.Value
	}
	// The interpreter's width decisions follow the value actually held in
	// a slot, which for constants is the declared value's own width.
	k.readW = make([]int, len(p.init))
	copy(k.readW, p.width)
	for _, kst := range c.Consts {
		k.readW[p.slots[kst.Name]] = kst.Value.Width()
	}

	for _, kind := range []hdl.BlockKind{hdl.Comb, hdl.Seq} {
		k.code = nil
		k.next = kind == hdl.Seq
		for _, b := range c.Blocks {
			if b.Kind == kind {
				k.stmts(b.Stmts)
			}
		}
		if kind == hdl.Comb {
			p.comb = k.code
		} else {
			p.seq = k.code
		}
	}
	return p, nil
}

func (k *compiler) emit(in instr) int {
	k.code = append(k.code, in)
	return len(k.code) - 1
}

func (k *compiler) patch(at int) { k.code[at].c = int32(len(k.code)) }

// temp returns the scratch slot for the given expression depth, allocating
// it on first use.
func (k *compiler) temp(depth int) int {
	for len(k.temps) <= depth {
		k.temps = append(k.temps, len(k.p.init))
		k.p.init = append(k.p.init, bitvec.Zero(1))
		k.p.width = append(k.p.width, 0)
		k.readW = append(k.readW, 0)
	}
	return k.temps[depth]
}

// constSlot interns a constant value into the pool.
func (k *compiler) constSlot(v bitvec.BV) int {
	key := bvKey{v.Uint(), v.Width()}
	if id, ok := k.pool[key]; ok {
		return id
	}
	id := len(k.p.init)
	k.p.init = append(k.p.init, v)
	k.p.width = append(k.p.width, v.Width())
	k.readW = append(k.readW, v.Width())
	k.pool[key] = id
	return id
}

func (k *compiler) stmts(ss []hdl.Stmt) {
	for _, st := range ss {
		k.stmt(st)
	}
}

func (k *compiler) stmt(st hdl.Stmt) {
	switch st := st.(type) {
	case *hdl.Assign:
		k.assign(st)
	case *hdl.If:
		cond, _ := k.expr(st.Cond, 0)
		jz := k.emit(instr{op: opJz, a: int32(cond)})
		k.stmts(st.Then)
		jmp := k.emit(instr{op: opJmp})
		k.patch(jz)
		k.stmts(st.Else)
		k.patch(jmp)
	case *hdl.Case:
		// The subject stays live in depth-0 scratch while labels evaluate
		// at depth 1; label comparison is the interpreter's exact Equal
		// (width and bits).
		subj, _ := k.expr(st.Subject, 0)
		armJumps := make([][]int, len(st.Arms))
		for ai, arm := range st.Arms {
			for _, l := range arm.Labels {
				ls, _ := k.expr(l, 1)
				armJumps[ai] = append(armJumps[ai],
					k.emit(instr{op: opJeq, a: int32(subj), b: int32(ls)}))
			}
		}
		k.stmts(st.Default)
		endJumps := []int{k.emit(instr{op: opJmp})}
		for ai, arm := range st.Arms {
			for _, at := range armJumps[ai] {
				k.patch(at)
			}
			k.stmts(arm.Body)
			endJumps = append(endJumps, k.emit(instr{op: opJmp}))
		}
		for _, at := range endJumps {
			k.patch(at)
		}
	case *hdl.For:
		for v := st.Lo; v <= st.Hi; v++ {
			k.loopVars[st.Var] = uint64(v)
			k.stmts(st.Body)
		}
		delete(k.loopVars, st.Var)
	}
}

func (k *compiler) assign(st *hdl.Assign) {
	id, ok := k.p.slots[st.LHS.Name]
	if !ok {
		return // mutants may reference deleted names; tolerate
	}
	store, setBit := opCopy, opSetBit
	if k.next {
		store, setBit = opCopyNext, opSetBitNext
	}
	if st.LHS.Index == nil {
		val, _ := k.expr(st.RHS, 0)
		k.emit(instr{op: store, dst: int32(id), a: int32(val), c: int32(k.p.width[id])})
		return
	}
	val, _ := k.expr(st.RHS, 0)
	idx, _ := k.expr(st.LHS.Index, 1)
	k.emit(instr{op: setBit, dst: int32(id), a: int32(idx), b: int32(val), c: int32(k.p.width[id])})
}

// expr compiles an expression and returns the slot holding its value plus
// that value's statically known width. Scratch lives at the given depth;
// subexpressions use depth+1 so live operands never collide.
func (k *compiler) expr(e hdl.Expr, depth int) (int, int) {
	switch e := e.(type) {
	case *hdl.Lit:
		if e.Width == 0 {
			// Unchecked literal (possible in relaxed-mode mutants): use
			// natural width.
			v := bitvec.New(e.Raw, max(1, bits.Len64(e.Raw)))
			return k.constSlot(v), v.Width()
		}
		return k.constSlot(e.Val), e.Val.Width()
	case *hdl.Ref:
		if v, ok := k.loopVars[e.Name]; ok {
			w := e.Width
			if w == 0 {
				w = 8
			}
			return k.constSlot(bitvec.New(v, w)), w
		}
		id, ok := k.p.slots[e.Name]
		if !ok {
			w := e.Width
			if w == 0 {
				w = 1
			}
			return k.constSlot(bitvec.Zero(w)), w
		}
		return id, k.readW[id]
	case *hdl.Index:
		x, _ := k.expr(e.X, depth)
		i, _ := k.expr(e.I, depth+1)
		dst := k.temp(depth)
		k.emit(instr{op: opIndex, dst: int32(dst), a: int32(x), b: int32(i)})
		return dst, 1
	case *hdl.SliceExpr:
		x, _ := k.expr(e.X, depth)
		dst := k.temp(depth)
		k.emit(instr{op: opSlice, dst: int32(dst), a: int32(x), c: int32(e.Hi), d: int32(e.Lo)})
		return dst, e.Hi - e.Lo + 1
	case *hdl.Unary:
		x, xw := k.expr(e.X, depth)
		dst := k.temp(depth)
		var op opcode
		w := xw
		switch e.Op {
		case hdl.OpNot:
			op = opNot
		case hdl.OpNeg:
			op = opNeg
		case hdl.OpRedAnd:
			op, w = opRedAnd, 1
		case hdl.OpRedOr:
			op, w = opRedOr, 1
		case hdl.OpRedXor:
			op, w = opRedXor, 1
		default:
			panic(fmt.Sprintf("sim: cannot compile unary op %v", e.Op))
		}
		k.emit(instr{op: op, dst: int32(dst), a: int32(x)})
		return dst, w
	case *hdl.Binary:
		x, xw := k.expr(e.X, depth)
		y, yw := k.expr(e.Y, depth+1)
		// Mutants can combine signals whose widths the original context
		// fixed differently (VR in relaxed mode); resize defensively, and
		// bring shift counts to the operand width like the interpreter.
		if xw != yw && e.Op != hdl.OpConcat {
			t := k.temp(depth + 1)
			k.emit(instr{op: opResize, dst: int32(t), a: int32(y), c: int32(xw)})
			y = t
			if !e.Op.IsShift() {
				yw = xw
			}
		}
		dst := k.temp(depth)
		k.emit(instr{op: opBinBase + opcode(e.Op), dst: int32(dst), a: int32(x), b: int32(y)})
		switch {
		case e.Op.IsRelational():
			return dst, 1
		case e.Op == hdl.OpConcat:
			return dst, xw + yw
		default:
			return dst, xw
		}
	}
	panic(fmt.Sprintf("sim: cannot compile %T", e))
}

// Machine is the mutable execution state of one Program instance: the
// value array, the seq-phase shadow array, nothing else. Machines are
// cheap (two slice allocations), so a scoring pool creates one per mutant
// per worker without pressure. Not safe for concurrent use.
type Machine struct {
	p    *Program
	env  []bitvec.BV
	next []bitvec.BV
}

// NewMachine creates fresh execution state in power-on reset.
func (p *Program) NewMachine() *Machine {
	m := &Machine{
		p:    p,
		env:  append([]bitvec.BV(nil), p.init...),
		next: make([]bitvec.BV, len(p.init)),
	}
	m.Reset()
	return m
}

// Program returns the compiled program this machine executes.
func (m *Machine) Program() *Program { return m.p }

// Reset restores power-on state: registers to their declared init values,
// registered outputs to zero.
func (m *Machine) Reset() {
	for i, id := range m.p.regSlots {
		m.env[id] = m.p.regInit[i]
	}
}

// Snapshot captures the register state in the same order as
// Simulator.Snapshot, so snapshots from either engine are interchangeable.
// The returned slice is freshly allocated; hot loops use SnapshotInto.
func (m *Machine) Snapshot() []bitvec.BV {
	return m.SnapshotInto(nil)
}

// SnapshotInto is Snapshot into a reusable buffer: dst's storage is kept
// when its capacity suffices, so a candidate-probe loop snapshots without
// allocating after warm-up. The returned slice (which may differ from
// dst) is valid until the next SnapshotInto on the same buffer.
func (m *Machine) SnapshotInto(dst []bitvec.BV) []bitvec.BV {
	dst = engine.Grow(dst, len(m.p.regSlots))
	for i, id := range m.p.regSlots {
		dst[i] = m.env[id]
	}
	return dst
}

// Restore rewinds the register state to a snapshot taken on this program.
func (m *Machine) Restore(snap []bitvec.BV) {
	if len(snap) != len(m.p.regSlots) {
		panic(fmt.Sprintf("sim: snapshot of %d registers for %d", len(snap), len(m.p.regSlots)))
	}
	for i, id := range m.p.regSlots {
		m.env[id] = snap[i]
	}
}

// Step applies one input vector, advances one clock cycle, and returns the
// sampled output vector, exactly like Simulator.Step.
//
//repro:step
func (m *Machine) Step(in Vector) (Vector, error) {
	out := make(Vector, len(m.p.outSlots))
	if err := m.StepInto(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// StepInto is Step without allocating: outputs are written into out, which
// must hold NumOutputs elements. The scoring pool's inner loop uses it.
//
//repro:step
func (m *Machine) StepInto(in Vector, out Vector) error {
	p := m.p
	if len(in) != len(p.inSlots) {
		return fmt.Errorf("sim: %d input values for %d inputs", len(in), len(p.inSlots))
	}
	for i, id := range p.inSlots {
		if in[i].Width() != p.width[id] {
			return fmt.Errorf("sim: input %d has width %d, want %d", i, in[i].Width(), p.width[id])
		}
		m.env[id] = in[i]
	}
	for i, id := range p.wireSlots {
		m.env[id] = p.wireZero[i]
	}
	m.exec(p.comb)
	for i, id := range p.outSlots {
		out[i] = m.env[id]
	}
	for _, id := range p.regSlots {
		m.next[id] = m.env[id]
	}
	m.exec(p.seq)
	for _, id := range p.regSlots {
		m.env[id] = m.next[id]
	}
	return nil
}

// Run resets the machine and applies the whole sequence, returning one
// output vector per cycle. The rows are freshly allocated; trace loops
// that rerun the same machine use RunInto. Run is //repro:step — it is
// bounded by its sequence, so the Ctx polling obligation sits with the
// campaign loops that call it.
//
//repro:step
func (m *Machine) Run(seq Sequence) ([]Vector, error) {
	return m.RunInto(seq, nil)
}

// RunInto is Run into a reusable trace buffer: outs and its rows are
// recycled when their capacity suffices, so a campaign that re-traces the
// good circuit every round stops allocating after warm-up. The returned
// trace (which may differ from outs) is valid until the next RunInto on
// the same buffer.
//
//repro:step
func (m *Machine) RunInto(seq Sequence, outs []Vector) ([]Vector, error) {
	m.Reset()
	outs = engine.Grow(outs, len(seq))
	for i, vec := range seq {
		outs[i] = engine.Grow(outs[i], len(m.p.outSlots))
		if err := m.StepInto(vec, outs[i]); err != nil {
			return nil, fmt.Errorf("cycle %d: %w", i, err)
		}
	}
	return outs, nil
}

// exec interprets one instruction stream against the machine state.
//
//repro:hotpath
func (m *Machine) exec(code []instr) {
	env, next := m.env, m.next
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.op {
		case opCopy:
			v := env[in.a]
			if v.Width() != int(in.c) {
				v = v.Resize(int(in.c))
			}
			env[in.dst] = v
		case opCopyNext:
			v := env[in.a]
			if v.Width() != int(in.c) {
				v = v.Resize(int(in.c))
			}
			next[in.dst] = v
		case opSetBit:
			if idx := env[in.a].Uint(); idx < uint64(in.c) {
				env[in.dst] = env[in.dst].SetBit(int(idx), env[in.b].Uint()&1)
			}
		case opSetBitNext:
			if idx := env[in.a].Uint(); idx < uint64(in.c) {
				next[in.dst] = next[in.dst].SetBit(int(idx), env[in.b].Uint()&1)
			}
		case opResize:
			env[in.dst] = env[in.a].Resize(int(in.c))
		case opIndex:
			x := env[in.a]
			if i := env[in.b].Uint(); i < uint64(x.Width()) {
				env[in.dst] = bitvec.New(x.Bit(int(i)), 1)
			} else {
				env[in.dst] = bitvec.Zero(1)
			}
		case opSlice:
			env[in.dst] = env[in.a].Slice(int(in.c), int(in.d))
		case opNot:
			env[in.dst] = env[in.a].Not()
		case opNeg:
			env[in.dst] = env[in.a].Neg()
		case opRedAnd:
			env[in.dst] = env[in.a].ReduceAnd()
		case opRedOr:
			env[in.dst] = env[in.a].ReduceOr()
		case opRedXor:
			env[in.dst] = env[in.a].ReduceXor()
		case opJmp:
			pc = int(in.c) - 1
		case opJz:
			if env[in.a].IsZero() {
				pc = int(in.c) - 1
			}
		case opJeq:
			if env[in.a].Equal(env[in.b]) {
				pc = int(in.c) - 1
			}
		default:
			x, y := env[in.a], env[in.b]
			var v bitvec.BV
			switch hdl.BinOp(in.op - opBinBase) {
			case hdl.OpAnd:
				v = x.And(y)
			case hdl.OpOr:
				v = x.Or(y)
			case hdl.OpXor:
				v = x.Xor(y)
			case hdl.OpNand:
				v = x.Nand(y)
			case hdl.OpNor:
				v = x.Nor(y)
			case hdl.OpXnor:
				v = x.Xnor(y)
			case hdl.OpEq:
				v = x.Eq(y)
			case hdl.OpNe:
				v = x.Ne(y)
			case hdl.OpLt:
				v = x.Lt(y)
			case hdl.OpLe:
				v = x.Le(y)
			case hdl.OpGt:
				v = x.Gt(y)
			case hdl.OpGe:
				v = x.Ge(y)
			case hdl.OpAdd:
				v = x.Add(y)
			case hdl.OpSub:
				v = x.Sub(y)
			case hdl.OpMul:
				v = x.Mul(y)
			case hdl.OpShl:
				v = x.Shl(y)
			case hdl.OpShr:
				v = x.Shr(y)
			case hdl.OpConcat:
				v = x.Concat(y)
			default:
				panic(fmt.Sprintf("sim: bad opcode %d", in.op))
			}
			env[in.dst] = v
		}
	}
}
