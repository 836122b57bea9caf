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
// inner loops. The loop runs the stream in runs that each end at an
// injected gate, which re-evaluates through a generic masked path that
// reproduces Evaluator.EvalWith bit-for-bit in every lane before any of
// its readers run; a fault-free pass is one run with nothing to patch,
// so it pays no per-gate injection check.
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
// of any value in the circuit, and patchInjected re-evaluates exactly
// the dirty words — the injection cost per pass stays proportional to
// the fault count, not to the fault count times W.
type injRec[W lane.Word] struct {
	pins    []force[W] // at: the overridden fanin pin
	outMask W          // lanes with a stem fault on this gate's output
	outVal  W          // the stuck word, restricted to outMask
	dirty   uint16     // bit k: word k carries a fault at this gate
	code    int32      // owning instruction index (for lane-scoped compaction)
}

// force is one masked override: in the lanes of mask, the value at index
// at reads val. The index is a fanin pin (injRec.pins), a gate ID
// (Machine.loadInj) or a flip-flop state index (Machine.clockInj).
type force[W lane.Word] struct {
	at        int32
	mask, val W
}

// mergeForce adds the lanes of mask to the override at index at,
// appending one when fs has none, and returns the list.
func mergeForce[W lane.Word](fs []force[W], at int32, mask, val W) []force[W] {
	for i := range fs {
		if fs[i].at == at {
			fs[i].mask = lane.Or(fs[i].mask, mask)
			fs[i].val = lane.Merge(fs[i].val, mask, val)
			return fs
		}
	}
	return append(fs, force[W]{at: at, mask: mask, val: val})
}

// dropForceLanes removes the lanes of laneMask from every override in
// fs, compacting away the overrides left with no lanes, in order.
func dropForceLanes[W lane.Word](fs []force[W], laneMask W) []force[W] {
	kept := fs[:0]
	for _, f := range fs {
		f.mask = lane.AndNot(f.mask, laneMask)
		f.val = lane.AndNot(f.val, laneMask)
		if !lane.None(f.mask) {
			kept = append(kept, f)
		}
	}
	return kept
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
	touched  []int32    // instruction indices with inj set, in instruction order
	loadInj  []force[W] // stem faults on PIs, FFs and constants
	clockInj []force[W] // DFF D-pin faults, applied at Clock

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
		m.loadInj = mergeForce(m.loadInj, int32(f.Gate), laneMask, val)
	case g.Type == DFF && f.Pin == 0:
		m.clockInj = mergeForce(m.clockInj, m.p.ffIdx[f.Gate], laneMask, val)
	case g.Type.IsComb() && f.Pin < len(g.Fanin):
		r := m.rec(m.p.codeOf[f.Gate])
		r.pins = mergeForce(r.pins, int32(f.Pin), laneMask, val)
		r.markDirty(laneMask)
	}
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
		r.pins = dropForceLanes(r.pins, laneMask)
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
	m.loadInj = dropForceLanes(m.loadInj, laneMask)
	m.clockInj = dropForceLanes(m.clockInj, laneMask)
}

// ClearFaults removes every injected fault, leaving a fault-free pass.
// Cost is proportional to the batch size, not the circuit size.
func (m *Machine[W]) ClearFaults() {
	for _, ci := range m.touched {
		m.inj[ci] = -1
	}
	m.touched = m.touched[:0]
	m.recs = m.recs[:0]
	m.loadInj = m.loadInj[:0]
	m.clockInj = m.clockInj[:0]
}

// rec returns the injection record of one instruction, creating it on
// first use. touched stays in instruction order (levelized: by level,
// then gate ID), which is the order exec patches in. A new index is
// inserted by scanning back from the end, so one insert moves up to
// len(touched) entries; fault lists in gate-ID order are only partly in
// that order, but the moves are cheap next to the passes a batch runs.
func (m *Machine[W]) rec(codeIdx int32) *injRec[W] {
	if m.inj[codeIdx] < 0 {
		m.inj[codeIdx] = int32(len(m.recs))
		m.recs = append(m.recs, injRec[W]{code: codeIdx})
		m.touched = append(m.touched, codeIdx)
		i := len(m.touched) - 1
		for ; i > 0 && m.touched[i-1] > codeIdx; i-- {
			m.touched[i] = m.touched[i-1]
		}
		m.touched[i] = codeIdx
	}
	return &m.recs[m.inj[codeIdx]]
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
	for i := range m.loadInj {
		li := &m.loadInj[i]
		vals[li.at] = lane.Merge(vals[li.at], li.mask, li.val)
	}
	m.exec()
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
		m.state[ci.at] = lane.Merge(m.state[ci.at], ci.mask, ci.val)
	}
}

// Value returns the last computed vector on a gate's output.
func (m *Machine[W]) Value(id int) W { return m.vals[id] }

// exec evaluates the instruction stream in runs, each ending at the next
// injected instruction in touched: every gate takes the fast path, and
// the run's last gate then has its faulted lanes patched before any of
// its readers runs. A fault-free pass is one run with nothing to patch.
// The loop body carries no injection check, and slicing each run before
// its loop keeps the instruction loads free of bounds checks. Between
// runs the loop keeps only m and the run counter t, and reads code and
// touched back through m: keeping their slice headers live across the
// gate loop made the register allocator reload them on every gate, which
// slowed the W=1 fault-free pass by up to a fifth. Gates read and
// write their W-word values in place through pointers: copying them
// through stack temporaries cost the W=8 loop a third of its time.
//
//repro:hotpath
func (m *Machine[W]) exec() {
	var w W
	if len(w) == 1 {
		// Shape-constant dispatch: the branch folds per instantiation.
		m.exec1()
		return
	}
	vals := m.vals
	args := m.p.args
	var zero W
	ones := lane.Broadcast[W](^uint64(0))
	for t, lo := 0, 0; ; t++ {
		code := m.p.code
		hi := len(code)
		if t < len(m.touched) {
			hi = int(m.touched[t]) + 1
		}
		seg := code[lo:hi]
		for i := range seg {
			in := &seg[i]
			d := &vals[in.dst]
			switch in.op {
			case gopBuf:
				*d = vals[in.a]
			case gopNot:
				a := &vals[in.a]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^(*a)[k]
				}
			case gopAnd2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = (*a)[k] & (*b)[k]
				}
			case gopNand2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^((*a)[k] & (*b)[k])
				}
			case gopOr2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = (*a)[k] | (*b)[k]
				}
			case gopNor2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^((*a)[k] | (*b)[k])
				}
			case gopXor2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = (*a)[k] ^ (*b)[k]
				}
			case gopXnor2:
				a, b := &vals[in.a], &vals[in.b]
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^((*a)[k] ^ (*b)[k])
				}
			case gopAndN:
				*d = ones
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] &= (*sv)[k]
					}
				}
			case gopNandN:
				*d = ones
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] &= (*sv)[k]
					}
				}
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^(*d)[k]
				}
			case gopOrN:
				*d = zero
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] |= (*sv)[k]
					}
				}
			case gopNorN:
				*d = zero
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] |= (*sv)[k]
					}
				}
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^(*d)[k]
				}
			case gopXorN:
				*d = zero
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] ^= (*sv)[k]
					}
				}
			case gopXnorN:
				*d = zero
				for _, s := range args[in.off : in.off+in.n] {
					sv := &vals[s]
					for k := 0; k < len(*d); k++ {
						(*d)[k] ^= (*sv)[k]
					}
				}
				for k := 0; k < len(*d); k++ {
					(*d)[k] = ^(*d)[k]
				}
			}
		}
		if t == len(m.touched) {
			return
		}
		ci := m.touched[t]
		m.patchInjected(&m.p.code[ci], &m.recs[m.inj[ci]])
		lo = int(ci) + 1
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
				if int(rec.pins[pi].at) == j {
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

// exec1 is exec's scalar specialization for the single-word
// instantiation (W = [1]uint64): array-of-one locals keep values in
// memory form and defeat the register allocator, so W=1 — the
// combinational production width, the ATPG twin and the ragged-tail
// machine — runs the original uint64 loop on word 0, over the same runs.
// exec serves W=4/8, and the width-agreement and parity tests pin both
// loops bit-identical. The [0] accessors are valid for every W; exec's
// shape-constant dispatch makes them reachable only when len(W) == 1.
//
//repro:hotpath
func (m *Machine[W]) exec1() {
	vals := m.vals
	args := m.p.args
	for t, lo := 0, 0; ; t++ {
		code := m.p.code
		hi := len(code)
		if t < len(m.touched) {
			hi = int(m.touched[t]) + 1
		}
		seg := code[lo:hi]
		for i := range seg {
			in := &seg[i]
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
		if t == len(m.touched) {
			return
		}
		ci := m.touched[t]
		m.patchInjected(&m.p.code[ci], &m.recs[m.inj[ci]])
		lo = int(ci) + 1
	}
}
