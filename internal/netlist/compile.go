// Flat-program compilation of netlists, with multi-fault lane injection.
//
// The Evaluator walks the gate array with a per-gate type switch, a fanin
// slice loop and two fault-site comparisons per gate — and it can inject
// only ONE fault site per pass, broadcast across whichever lanes the mask
// selects. Fault simulation executes the same circuit once per fault per
// cycle, so that shape wastes both instruction-level and lane-level
// parallelism. Compile translates a levelized netlist once into a flat
// slot-indexed instruction stream (two-input gates get dedicated opcodes;
// wider gates read a shared fanin arena), and Machine carries the mutable
// state plus a per-batch fault-injection plan: up to lane.Count distinct
// fault sites, each masked to its own subset of lanes, so one pass
// evaluates that many independent fault machines.
//
// Machine is generic over the lane vector width (lane.Word, W ∈ {1,4,8}):
// every net value is a W-word vector, so one instruction-stream pass
// carries W×64 lanes, amortizing the per-gate decode over up to 512 fault
// machines. Each width stencils its own exec loop with constant-length
// inner loops. The fault-free path pays no injection cost (a separate
// exec loop), and injected gates re-evaluate through a generic masked
// path that reproduces Evaluator.EvalWith bit-for-bit in every lane.
//
// Semantics are pinned against the Evaluator differentially: every lane of
// a Machine pass — at every width — must equal the corresponding
// single-fault EvalWith pass (see compile_test.go), which is what lets the
// fault simulator treat the engines as interchangeable references.
package netlist

import (
	"fmt"
	"sync"

	"repro/internal/lane"
)

type gop uint8

// Gate opcodes. The two-input forms avoid the fanin loop entirely; the
// N-ary forms iterate the arena. Buf/Not read a single slot.
const (
	gopBuf gop = iota
	gopNot
	gopAnd2
	gopNand2
	gopOr2
	gopNor2
	gopXor2
	gopXnor2
	gopAndN
	gopNandN
	gopOrN
	gopNorN
	gopXorN
	gopXnorN
)

// ginstr is one compiled gate. dst and the fanin references are gate IDs
// (value slots are indexed by gate ID, exactly like Evaluator.vals). The
// arena range off/n is valid for every opcode — the injected path uses it
// even when the fast path reads a and b directly.
type ginstr struct {
	op     gop
	dst    int32
	a, b   int32
	off, n int32
}

// Program is a compiled netlist: the levelized instruction stream plus the
// load/latch plans the Machine executes around it. It is immutable after
// Compile, apart from the fanout index PropagateFault builds once on
// first use, and safe to share between any number of Machines, of any
// lane width.
type Program struct {
	nl     *Netlist
	code   []ginstr
	args   []int32 // shared fanin arena
	codeOf []int32 // gate ID -> instruction index, -1 for non-comb gates
	ffIdx  []int32 // gate ID -> index in nl.FFs, -1 elsewhere
	ffSrc  []int32 // D-input gate ID per FF state index
	ffInit []uint64
	consts []slotWord

	fanOnce sync.Once
	fan     *fanouts // built on first use by fanoutIndex
}

type slotWord struct {
	slot int32
	word uint64
}

// Compile translates a netlist (which must validate) into a Program.
func Compile(nl *Netlist) (*Program, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	order, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	p := &Program{
		nl:     nl,
		code:   make([]ginstr, 0, len(order)),
		codeOf: make([]int32, len(nl.Gates)),
		ffIdx:  make([]int32, len(nl.Gates)),
		ffSrc:  make([]int32, len(nl.FFs)),
		ffInit: make([]uint64, len(nl.FFs)),
	}
	for i := range p.codeOf {
		p.codeOf[i] = -1
		p.ffIdx[i] = -1
	}
	for i, id := range nl.FFs {
		g := nl.Gates[id]
		p.ffIdx[id] = int32(i)
		p.ffSrc[i] = int32(g.Fanin[0])
		if g.Init&1 == 1 {
			p.ffInit[i] = ^uint64(0)
		}
	}
	for _, g := range nl.Gates {
		switch g.Type {
		case Const0:
			p.consts = append(p.consts, slotWord{slot: int32(g.ID)})
		case Const1:
			p.consts = append(p.consts, slotWord{slot: int32(g.ID), word: ^uint64(0)})
		}
	}
	for _, id := range order {
		g := nl.Gates[id]
		in := ginstr{
			dst: int32(g.ID),
			off: int32(len(p.args)),
			n:   int32(len(g.Fanin)),
		}
		for _, f := range g.Fanin {
			p.args = append(p.args, int32(f))
		}
		in.a = int32(g.Fanin[0])
		if len(g.Fanin) >= 2 {
			in.b = int32(g.Fanin[1])
		}
		op, err := opFor(g.Type, len(g.Fanin))
		if err != nil {
			return nil, fmt.Errorf("netlist: compile %s: gate %d: %w", nl.Name, g.ID, err)
		}
		in.op = op
		p.codeOf[g.ID] = int32(len(p.code))
		p.code = append(p.code, in)
	}
	return p, nil
}

func opFor(t GateType, fanins int) (gop, error) {
	two := fanins == 2
	switch t {
	case Buf:
		return gopBuf, nil
	case Not:
		return gopNot, nil
	case And:
		if two {
			return gopAnd2, nil
		}
		return gopAndN, nil
	case Nand:
		if two {
			return gopNand2, nil
		}
		return gopNandN, nil
	case Or:
		if two {
			return gopOr2, nil
		}
		return gopOrN, nil
	case Nor:
		if two {
			return gopNor2, nil
		}
		return gopNorN, nil
	case Xor:
		if two {
			return gopXor2, nil
		}
		return gopXorN, nil
	case Xnor:
		if two {
			return gopXnor2, nil
		}
		return gopXnorN, nil
	}
	return 0, fmt.Errorf("no opcode for %s", t)
}

// Netlist returns the compiled circuit.
func (p *Program) Netlist() *Netlist { return p.nl }

// injRec is the injection plan for one compiled gate: per-pin overrides
// (fanout-branch faults as seen by this gate) and an output mask (stem
// faults). All masks are per-lane, so one record carries many faults.
// dirty marks the words any of the record's masks touch: lanes are
// independent, so a fault confined to word k can only ever disturb word k
// of any value in the circuit, and the faulty exec loop re-evaluates
// exactly the dirty words — the injection cost per pass stays
// proportional to the fault count, not to the fault count times W.
type injRec[W lane.Word] struct {
	pins    []pinInj[W]
	outMask W      // lanes with a stem fault on this gate's output
	outVal  W      // the stuck word, restricted to outMask
	dirty   uint16 // bit k: word k carries a fault at this gate
	code    int32  // owning instruction index (for lane-scoped compaction)
}

type pinInj[W lane.Word] struct {
	pin       int32
	mask, val W
}

type slotInj[W lane.Word] struct {
	slot      int32
	mask, val W
}

type ffInj[W lane.Word] struct {
	ff        int32
	mask, val W
}

// Machine is the mutable execution state of one Program at one lane
// width: net values, FF state, and the current fault-injection batch.
// Machines are cheap; a worker pool creates one per worker. Not safe for
// concurrent use.
type Machine[W lane.Word] struct {
	p     *Program
	vals  []W
	state []W
	out   []W

	inj      []int32 // per instruction: index into recs, or -1
	recs     []injRec[W]
	touched  []int32      // instruction indices with inj set, for O(batch) clearing
	loadInj  []slotInj[W] // stem faults on PIs, FFs and constants
	clockInj []ffInj[W]   // DFF D-pin faults, applied at Clock
	faulty   bool

	// PropagateFault scratch, grown on its first call.
	fan   *fanouts
	sched []uint64     // bitset over instructions awaiting evaluation
	undo  []undoRec[W] // nets the propagation overwrote
}

// NewMachine creates fresh execution state at lane width W in power-on
// reset, with no faults injected. NewMachine[lane.W1] reproduces the
// original single-word machine bit for bit.
func NewMachine[W lane.Word](p *Program) *Machine[W] {
	m := &Machine[W]{
		p:     p,
		vals:  make([]W, len(p.nl.Gates)),
		state: make([]W, len(p.nl.FFs)),
		out:   make([]W, len(p.nl.POs)),
		inj:   make([]int32, len(p.code)),
	}
	for i := range m.inj {
		m.inj[i] = -1
	}
	m.Reset()
	return m
}

// Program returns the compiled program this machine executes.
func (m *Machine[W]) Program() *Program { return m.p }

// Reset restores every flip-flop to its power-on value in all lanes.
// Injected faults survive a Reset; use ClearFaults to remove them.
func (m *Machine[W]) Reset() {
	for i, w := range m.p.ffInit {
		m.state[i] = lane.Broadcast[W](w)
	}
}

// SetState overwrites the flip-flop state vectors directly.
func (m *Machine[W]) SetState(s []W) {
	if len(s) != len(m.state) {
		panic(fmt.Sprintf("netlist: SetState with %d vectors for %d FFs", len(s), len(m.state)))
	}
	copy(m.state, s)
}

// State returns a copy of the flip-flop state vectors.
func (m *Machine[W]) State() []W {
	out := make([]W, len(m.state))
	copy(out, m.state)
	return out
}

// LaneStateInto extracts one lane's flip-flop state as packed bits — bit
// i%64 of word i/64 is flip-flop i — growing dst as needed and returning
// it. The vector-shaped State/SetState pair cannot carry a single lane
// between machines of different widths; the fault scheduler's
// mid-campaign re-planner uses this pair to move a surviving fault
// machine onto a narrower vector without replaying its trace.
func (m *Machine[W]) LaneStateInto(ln int, dst []uint64) []uint64 {
	var zero W
	if ln < 0 || ln >= len(zero)*64 {
		panic(fmt.Sprintf("netlist: lane %d out of range [0,%d)", ln, len(zero)*64))
	}
	w, b := ln>>6, uint(ln&63)
	n := (len(m.state) + 63) / 64
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	for i := range m.state {
		dst[i>>6] |= (m.state[i][w] >> b & 1) << uint(i&63)
	}
	return dst
}

// SetLaneState implants packed flip-flop bits (LaneStateInto's layout)
// into one lane, leaving every other lane's state untouched.
func (m *Machine[W]) SetLaneState(ln int, src []uint64) {
	var zero W
	if ln < 0 || ln >= len(zero)*64 {
		panic(fmt.Sprintf("netlist: lane %d out of range [0,%d)", ln, len(zero)*64))
	}
	if need := (len(m.state) + 63) / 64; len(src) < need {
		panic(fmt.Sprintf("netlist: SetLaneState with %d words for %d FFs", len(src), len(m.state)))
	}
	w, b := ln>>6, uint(ln&63)
	for i := range m.state {
		bit := src[i>>6] >> uint(i&63) & 1
		m.state[i][w] = m.state[i][w]&^(1<<b) | bit<<b
	}
}

// InjectFault adds a stuck-at fault to the machine's current batch,
// confined to the lanes selected by laneMask. Distinct faults injected
// into disjoint lanes evaluate as independent fault machines in one pass.
// Sites that cannot influence anything (NoFault, out-of-range pins, pin
// faults on gates without pins) are ignored, matching Evaluator.EvalWith.
func (m *Machine[W]) InjectFault(f FaultSite, laneMask W) {
	if f.Gate < 0 || lane.None(laneMask) {
		return
	}
	var val W
	if f.Stuck == 1 {
		val = laneMask
	}
	g := m.p.nl.Gates[f.Gate]
	switch {
	case f.Pin < 0 && g.Type.IsComb():
		r := m.rec(m.p.codeOf[f.Gate])
		r.outMask = lane.Or(r.outMask, laneMask)
		r.outVal = lane.Merge(r.outVal, laneMask, val)
		r.markDirty(laneMask)
	case f.Pin < 0:
		m.mergeLoadInj(int32(f.Gate), laneMask, val)
	case g.Type == DFF && f.Pin == 0:
		m.mergeClockInj(m.p.ffIdx[f.Gate], laneMask, val)
	case g.Type.IsComb() && f.Pin < len(g.Fanin):
		r := m.rec(m.p.codeOf[f.Gate])
		r.mergePin(int32(f.Pin), laneMask, val)
		r.markDirty(laneMask)
	default:
		return // inert site: keep the fault-free fast path
	}
	m.faulty = true
}

func (r *injRec[W]) markDirty(laneMask W) {
	for k := 0; k < len(laneMask); k++ {
		if laneMask[k] != 0 {
			r.dirty |= 1 << uint(k)
		}
	}
}

// ClearFaultLanes removes the injected faults confined to the lanes in
// laneMask, leaving every other lane's batch armed: records whose masks
// empty out are compacted away, partially-covered records shrink to their
// surviving lanes, and per-record dirty words are recomputed. Cost is
// proportional to the batch size, like ClearFaults. The packed ATPG
// scheduler uses it to retire one search's lane pair and re-arm the next
// target without disturbing the concurrent searches' injections.
func (m *Machine[W]) ClearFaultLanes(laneMask W) {
	kept := m.touched[:0]
	for _, ci := range m.touched {
		r := &m.recs[m.inj[ci]]
		r.outMask = lane.AndNot(r.outMask, laneMask)
		r.outVal = lane.AndNot(r.outVal, laneMask)
		pins := r.pins[:0]
		for _, p := range r.pins {
			p.mask = lane.AndNot(p.mask, laneMask)
			p.val = lane.AndNot(p.val, laneMask)
			if !lane.None(p.mask) {
				pins = append(pins, p)
			}
		}
		r.pins = pins
		remain := r.outMask
		for _, p := range r.pins {
			remain = lane.Or(remain, p.mask)
		}
		if lane.None(remain) {
			// Swap-compact the emptied record out of recs, fixing the
			// moved record's inj back-pointer via its code field.
			ri := m.inj[ci]
			last := int32(len(m.recs) - 1)
			if ri != last {
				m.recs[ri] = m.recs[last]
				m.inj[m.recs[ri].code] = ri
			}
			m.recs = m.recs[:last]
			m.inj[ci] = -1
			continue
		}
		r.dirty = 0
		r.markDirty(remain)
		kept = append(kept, ci)
	}
	m.touched = kept
	loads := m.loadInj[:0]
	for _, li := range m.loadInj {
		li.mask = lane.AndNot(li.mask, laneMask)
		li.val = lane.AndNot(li.val, laneMask)
		if !lane.None(li.mask) {
			loads = append(loads, li)
		}
	}
	m.loadInj = loads
	clocks := m.clockInj[:0]
	for _, ci := range m.clockInj {
		ci.mask = lane.AndNot(ci.mask, laneMask)
		ci.val = lane.AndNot(ci.val, laneMask)
		if !lane.None(ci.mask) {
			clocks = append(clocks, ci)
		}
	}
	m.clockInj = clocks
	m.faulty = len(m.touched) > 0 || len(m.loadInj) > 0 || len(m.clockInj) > 0
}

// ClearFaults removes every injected fault, restoring the fault-free fast
// path. Cost is proportional to the batch size, not the circuit size.
func (m *Machine[W]) ClearFaults() {
	for _, ci := range m.touched {
		m.inj[ci] = -1
	}
	m.touched = m.touched[:0]
	m.recs = m.recs[:0]
	m.loadInj = m.loadInj[:0]
	m.clockInj = m.clockInj[:0]
	m.faulty = false
}

func (m *Machine[W]) rec(codeIdx int32) *injRec[W] {
	if m.inj[codeIdx] < 0 {
		m.inj[codeIdx] = int32(len(m.recs))
		m.recs = append(m.recs, injRec[W]{code: codeIdx})
		m.touched = append(m.touched, codeIdx)
	}
	return &m.recs[m.inj[codeIdx]]
}

func (r *injRec[W]) mergePin(pin int32, mask, val W) {
	for i := range r.pins {
		if r.pins[i].pin == pin {
			r.pins[i].mask = lane.Or(r.pins[i].mask, mask)
			r.pins[i].val = lane.Merge(r.pins[i].val, mask, val)
			return
		}
	}
	r.pins = append(r.pins, pinInj[W]{pin: pin, mask: mask, val: val})
}

func (m *Machine[W]) mergeLoadInj(slot int32, mask, val W) {
	for i := range m.loadInj {
		if m.loadInj[i].slot == slot {
			m.loadInj[i].mask = lane.Or(m.loadInj[i].mask, mask)
			m.loadInj[i].val = lane.Merge(m.loadInj[i].val, mask, val)
			return
		}
	}
	m.loadInj = append(m.loadInj, slotInj[W]{slot: slot, mask: mask, val: val})
}

func (m *Machine[W]) mergeClockInj(ff int32, mask, val W) {
	for i := range m.clockInj {
		if m.clockInj[i].ff == ff {
			m.clockInj[i].mask = lane.Or(m.clockInj[i].mask, mask)
			m.clockInj[i].val = lane.Merge(m.clockInj[i].val, mask, val)
			return
		}
	}
	m.clockInj = append(m.clockInj, ffInj[W]{ff: ff, mask: mask, val: val})
}

// Eval runs one combinational pass with the given PI vectors (ordered
// like the netlist's PIs) under the machine's current fault batch and
// returns the PO vectors. The result slice is reused by the next Eval
// call. It panics when the PI count is wrong (the caller validates
// pattern shapes once, not per pass).
//
//repro:session-owned
//repro:step
//repro:hotpath
func (m *Machine[W]) Eval(pis []W) []W {
	nl := m.p.nl
	if len(pis) != len(nl.PIs) {
		panic(fmt.Sprintf("netlist: %d PI vectors for %d inputs", len(pis), len(nl.PIs)))
	}
	vals := m.vals
	for i, id := range nl.PIs {
		vals[id] = pis[i]
	}
	for i, id := range nl.FFs {
		vals[id] = m.state[i]
	}
	for _, c := range m.p.consts {
		vals[c.slot] = lane.Broadcast[W](c.word)
	}
	if m.faulty {
		for i := range m.loadInj {
			li := &m.loadInj[i]
			vals[li.slot] = lane.Merge(vals[li.slot], li.mask, li.val)
		}
		m.execFaulty()
	} else {
		m.execClean()
	}
	for i, id := range nl.POs {
		m.out[i] = vals[id]
	}
	return m.out
}

// Clock latches each flip-flop's D value from the most recent Eval pass,
// applying any injected D-pin faults to the captured state.
//
//repro:step
//repro:hotpath
func (m *Machine[W]) Clock() {
	for i, src := range m.p.ffSrc {
		m.state[i] = m.vals[src]
	}
	for i := range m.clockInj {
		ci := &m.clockInj[i]
		m.state[ci.ff] = lane.Merge(m.state[ci.ff], ci.mask, ci.val)
	}
}

// Value returns the last computed vector on a gate's output.
func (m *Machine[W]) Value(id int) W { return m.vals[id] }

//repro:hotpath
func (m *Machine[W]) execClean() {
	var w W
	if len(w) == 1 {
		// Shape-constant dispatch: the branch folds per instantiation.
		m.execClean1()
		return
	}
	vals := m.vals
	code := m.p.code
	args := m.p.args
	ones := lane.Broadcast[W](^uint64(0))
	for i := range code {
		in := &code[i]
		var v W
		switch in.op {
		case gopBuf:
			v = vals[in.a]
		case gopNot:
			a := vals[in.a]
			for k := 0; k < len(v); k++ {
				v[k] = ^a[k]
			}
		case gopAnd2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] & b[k]
			}
		case gopNand2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] & b[k])
			}
		case gopOr2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] | b[k]
			}
		case gopNor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] | b[k])
			}
		case gopXor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] ^ b[k]
			}
		case gopXnor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] ^ b[k])
			}
		case gopAndN:
			v = ones
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] &= sv[k]
				}
			}
		case gopNandN:
			v = ones
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] &= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case gopOrN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] |= sv[k]
				}
			}
		case gopNorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] |= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case gopXorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] ^= sv[k]
				}
			}
		case gopXnorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] ^= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		}
		vals[in.dst] = v
	}
}

// execFaulty is execClean plus a per-instruction injection check: every
// gate takes the fast path first, then gates with an injection record
// re-evaluate their dirty words through the scalar masked path.
//
//repro:hotpath
func (m *Machine[W]) execFaulty() {
	var w W
	if len(w) == 1 {
		m.execFaulty1()
		return
	}
	vals := m.vals
	code := m.p.code
	args := m.p.args
	inj := m.inj
	ones := lane.Broadcast[W](^uint64(0))
	for i := range code {
		in := &code[i]
		var v W
		switch in.op {
		case gopBuf:
			v = vals[in.a]
		case gopNot:
			a := vals[in.a]
			for k := 0; k < len(v); k++ {
				v[k] = ^a[k]
			}
		case gopAnd2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] & b[k]
			}
		case gopNand2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] & b[k])
			}
		case gopOr2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] | b[k]
			}
		case gopNor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] | b[k])
			}
		case gopXor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = a[k] ^ b[k]
			}
		case gopXnor2:
			a, b := vals[in.a], vals[in.b]
			for k := 0; k < len(v); k++ {
				v[k] = ^(a[k] ^ b[k])
			}
		case gopAndN:
			v = ones
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] &= sv[k]
				}
			}
		case gopNandN:
			v = ones
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] &= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case gopOrN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] |= sv[k]
				}
			}
		case gopNorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] |= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		case gopXorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] ^= sv[k]
				}
			}
		case gopXnorN:
			for _, s := range args[in.off : in.off+in.n] {
				sv := vals[s]
				for k := 0; k < len(v); k++ {
					v[k] ^= sv[k]
				}
			}
			for k := 0; k < len(v); k++ {
				v[k] = ^v[k]
			}
		}
		vals[in.dst] = v
		if ri := inj[i]; ri >= 0 {
			m.patchInjected(in, &m.recs[ri])
		}
	}
}

// patchInjected re-evaluates the dirty words of one injected gate with
// the record's per-pin overrides applied, then applies the output stem
// mask — single-word scalar work per fault-carrying word, leaving the
// clean words on their fast-path result. Recomputing a whole dirty word
// is safe because its unfaulted lanes re-derive the fast-path bits, and
// pin overrides only disturb their own lanes, so every lane stays an
// independent fault machine. This is what keeps the per-pass injection
// cost proportional to the batch's fault count rather than fault count
// times W.
//
//repro:hotpath
func (m *Machine[W]) patchInjected(in *ginstr, rec *injRec[W]) {
	vals := m.vals
	if len(rec.pins) == 0 {
		// Stem-only record (the common case — most collapsed faults are
		// output stuck-ats): the fast-path value is already correct in
		// every unfaulted lane, so the patch is a masked overwrite.
		for k, dirty := 0, rec.dirty; dirty != 0; k, dirty = k+1, dirty>>1 {
			if dirty&1 == 1 {
				vals[in.dst][k] = vals[in.dst][k]&^rec.outMask[k] | rec.outVal[k]
			}
		}
		return
	}
	fanin := m.p.args[in.off : in.off+in.n]
	for k, dirty := 0, rec.dirty; dirty != 0; k, dirty = k+1, dirty>>1 {
		if dirty&1 == 0 {
			continue
		}
		read := func(j int) uint64 { //repro:ok hotalloc non-escaping closure, inlined; AllocsPerRun pins the path at zero
			v := vals[fanin[j]][k]
			for pi := range rec.pins {
				if int(rec.pins[pi].pin) == j {
					v = v&^rec.pins[pi].mask[k] | rec.pins[pi].val[k]
				}
			}
			return v
		}
		var v uint64
		switch in.op {
		case gopBuf:
			v = read(0)
		case gopNot:
			v = ^read(0)
		case gopAnd2, gopAndN:
			v = ^uint64(0)
			for j := range fanin {
				v &= read(j)
			}
		case gopNand2, gopNandN:
			v = ^uint64(0)
			for j := range fanin {
				v &= read(j)
			}
			v = ^v
		case gopOr2, gopOrN:
			for j := range fanin {
				v |= read(j)
			}
		case gopNor2, gopNorN:
			for j := range fanin {
				v |= read(j)
			}
			v = ^v
		case gopXor2, gopXorN:
			for j := range fanin {
				v ^= read(j)
			}
		case gopXnor2, gopXnorN:
			for j := range fanin {
				v ^= read(j)
			}
			v = ^v
		}
		vals[in.dst][k] = v&^rec.outMask[k] | rec.outVal[k]
	}
}

// execClean1 and execFaulty1 are the scalar specializations for the
// single-word instantiation (W = [1]uint64): array-of-one locals keep
// values in memory form and defeat the register allocator, so W=1 —
// the combinational production width and the ragged-tail machine — runs
// the original uint64 loop on word 0. The generic loops above serve
// W=4/8, and the width-agreement and parity tests pin all paths
// bit-identical. The [0] accessors are valid for every W; the callers'
// shape-constant dispatch makes them reachable only when len(W) == 1.
//
//repro:hotpath
func (m *Machine[W]) execClean1() {
	vals := m.vals
	code := m.p.code
	args := m.p.args
	for i := range code {
		in := &code[i]
		var v uint64
		switch in.op {
		case gopBuf:
			v = vals[in.a][0]
		case gopNot:
			v = ^vals[in.a][0]
		case gopAnd2:
			v = vals[in.a][0] & vals[in.b][0]
		case gopNand2:
			v = ^(vals[in.a][0] & vals[in.b][0])
		case gopOr2:
			v = vals[in.a][0] | vals[in.b][0]
		case gopNor2:
			v = ^(vals[in.a][0] | vals[in.b][0])
		case gopXor2:
			v = vals[in.a][0] ^ vals[in.b][0]
		case gopXnor2:
			v = ^(vals[in.a][0] ^ vals[in.b][0])
		case gopAndN:
			v = ^uint64(0)
			for _, s := range args[in.off : in.off+in.n] {
				v &= vals[s][0]
			}
		case gopNandN:
			v = ^uint64(0)
			for _, s := range args[in.off : in.off+in.n] {
				v &= vals[s][0]
			}
			v = ^v
		case gopOrN:
			for _, s := range args[in.off : in.off+in.n] {
				v |= vals[s][0]
			}
		case gopNorN:
			for _, s := range args[in.off : in.off+in.n] {
				v |= vals[s][0]
			}
			v = ^v
		case gopXorN:
			for _, s := range args[in.off : in.off+in.n] {
				v ^= vals[s][0]
			}
		case gopXnorN:
			for _, s := range args[in.off : in.off+in.n] {
				v ^= vals[s][0]
			}
			v = ^v
		}
		vals[in.dst][0] = v
	}
}

//repro:hotpath
func (m *Machine[W]) execFaulty1() {
	vals := m.vals
	code := m.p.code
	args := m.p.args
	inj := m.inj
	for i := range code {
		in := &code[i]
		var v uint64
		switch in.op {
		case gopBuf:
			v = vals[in.a][0]
		case gopNot:
			v = ^vals[in.a][0]
		case gopAnd2:
			v = vals[in.a][0] & vals[in.b][0]
		case gopNand2:
			v = ^(vals[in.a][0] & vals[in.b][0])
		case gopOr2:
			v = vals[in.a][0] | vals[in.b][0]
		case gopNor2:
			v = ^(vals[in.a][0] | vals[in.b][0])
		case gopXor2:
			v = vals[in.a][0] ^ vals[in.b][0]
		case gopXnor2:
			v = ^(vals[in.a][0] ^ vals[in.b][0])
		case gopAndN:
			v = ^uint64(0)
			for _, s := range args[in.off : in.off+in.n] {
				v &= vals[s][0]
			}
		case gopNandN:
			v = ^uint64(0)
			for _, s := range args[in.off : in.off+in.n] {
				v &= vals[s][0]
			}
			v = ^v
		case gopOrN:
			for _, s := range args[in.off : in.off+in.n] {
				v |= vals[s][0]
			}
		case gopNorN:
			for _, s := range args[in.off : in.off+in.n] {
				v |= vals[s][0]
			}
			v = ^v
		case gopXorN:
			for _, s := range args[in.off : in.off+in.n] {
				v ^= vals[s][0]
			}
		case gopXnorN:
			for _, s := range args[in.off : in.off+in.n] {
				v ^= vals[s][0]
			}
			v = ^v
		}
		vals[in.dst][0] = v
		if ri := inj[i]; ri >= 0 {
			m.patchInjected(in, &m.recs[ri])
		}
	}
}
