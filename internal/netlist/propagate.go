// Event-driven evaluation on a compiled machine: single-fault
// propagation for the combinational fault simulator, and a clock-cycle
// step for the sequential one.
//
// A fault-free Eval leaves every net's good value in the machine. A
// stuck-at fault changes a handful of those values: on the benchmark
// circuits its effect dies out after a few dozen gates, a fraction of a
// percent of the netlist. PropagateFault evaluates only those gates —
// the fault site, then every instruction one of whose fanins changed, in
// instruction order — and undoes its writes before returning, so many
// faults can be tried in turn against one fault-free pass of the same
// lane vectors (single-fault propagation against a pattern-parallel good
// machine, the PPSFP scheme). Compiled instructions are levelized, so a
// fanout always sits at a higher instruction index than its driver: one
// forward scan over a bitset of scheduled instructions visits every
// disturbed gate after all of its disturbed fanins, with no event queue.
//
// Step applies the same sweep to a sequential fault batch, one clock
// cycle at a time, in the manner of PROOFS (Niermann, Cheng and Patel,
// IEEE TCAD 1992): a fault-free machine evaluates each cycle once and
// hands Step every net's good value as one bit; the batch keeps, per
// net, only the lanes in which it differs from that value, and
// evaluates only the instructions a live lane's fault can reach — the
// injected ones, the readers of flip-flops whose state differs, and the
// readers of every net that comes out different. On the 6.8k-gate
// benchmark design, with detected lanes masked out, that is about 5%
// of the instructions a full pass evaluates.

package netlist

import (
	"math/bits"

	"repro/internal/lane"
)

// fanouts is the program's fanout index: for each gate, the compiled
// instructions that read it, in instruction order. It is derived data,
// built on first use by fanoutIndex (Compile and Fingerprint never pay
// for it, and Fingerprint does not hash it). An instruction that reads
// the same gate on two pins is listed twice; scheduling is a bitset, so
// the repeat is harmless.
type fanouts struct {
	off  []int32 // gate ID -> start of its range in code; len(Gates)+1 entries
	code []int32 // instruction indices, grouped by the gate they read
	isPO []bool  // gate ID -> some primary output observes it
}

// fanoutIndex returns the program's fanout index, building it once.
// Safe for concurrent use.
func (p *Program) fanoutIndex() *fanouts {
	p.fanOnce.Do(func() {
		n := len(p.nl.Gates)
		f := &fanouts{off: make([]int32, n+1), isPO: make([]bool, n)}
		for _, s := range p.args {
			f.off[s+1]++
		}
		for g := 0; g < n; g++ {
			f.off[g+1] += f.off[g]
		}
		f.code = make([]int32, len(p.args))
		next := append([]int32(nil), f.off[:n]...)
		for ci := range p.code {
			in := &p.code[ci]
			for _, s := range p.args[in.off : in.off+in.n] {
				f.code[next[s]] = int32(ci)
				next[s]++
			}
		}
		for _, id := range p.nl.POs {
			f.isPO[id] = true
		}
		p.fan = f
	})
	return p.fan
}

// undoRec records one net PropagateFault overwrote, with its fault-free
// value.
type undoRec[W lane.Word] struct {
	gate int32
	old  W
}

// PropagateFault applies one stuck-at fault in every lane on top of the
// values the last Eval computed, evaluates only the gates the fault
// disturbs, and returns the lanes in which some primary output differs
// from its fault-free value. Every net is restored before it returns, so
// Value reads the fault-free pass again and the next fault can propagate
// against the same pass. Call it on a machine with no injected faults:
// the result then equals the OR over POs of EvalWith(site, all lanes) ^
// Eval for the same inputs. The site semantics are InjectFault's: a stem
// on a combinational gate, a PI, a flip-flop output or a constant forces
// that net; a branch on pin j of a combinational gate re-evaluates the
// gate with only that pin forced (a gate reading one net on two pins
// keeps the other pin fault-free). Sites that cannot change a
// combinational pass return zero: NoFault, a pin out of range, a pin
// fault on a gate without pins, and a flip-flop D-pin fault (it acts at
// Clock). The scratch it needs is grown on the first call; later calls
// allocate nothing.
//
//repro:step
//repro:hotpath
func (m *Machine[W]) PropagateFault(f FaultSite) W {
	var diff W
	if f.Gate < 0 {
		return diff
	}
	if m.fan == nil {
		m.growPropagate()
	}
	g := m.p.nl.Gates[f.Gate]
	var stuck W
	if f.Stuck == 1 {
		stuck = lane.Broadcast[W](^uint64(0))
	}
	v := stuck
	switch {
	case f.Pin < 0:
	case g.Type.IsComb() && f.Pin < len(g.Fanin):
		v = m.evalPinForced(&m.p.code[m.p.codeOf[f.Gate]], f.Pin, stuck)
	default:
		return diff
	}
	vals := m.vals
	if v == vals[f.Gate] {
		return diff
	}
	fan := m.fan
	code := m.p.code
	sched := m.sched
	undo := m.undo
	undo[0].gate, undo[0].old = int32(f.Gate), vals[f.Gate]
	nu := 1
	if fan.isPO[f.Gate] {
		for k := 0; k < len(diff); k++ {
			diff[k] |= v[k] ^ vals[f.Gate][k]
		}
	}
	vals[f.Gate] = v
	// Schedule the site's readers. A combinational site's readers all
	// sit above it; a PI, flip-flop or constant may feed any instruction.
	first, last := scheduleReaders(fan, sched, int32(f.Gate), len(sched), -1)
	for wi := first; wi <= last; wi++ {
		w := sched[wi]
		sched[wi] = 0
		for w != 0 {
			ci := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			in := &code[ci]
			nv := m.evalInstr(in)
			old := vals[in.dst]
			if nv == old {
				continue
			}
			undo[nu].gate, undo[nu].old = in.dst, old
			nu++
			vals[in.dst] = nv
			if fan.isPO[in.dst] {
				for k := 0; k < len(diff); k++ {
					diff[k] |= nv[k] ^ old[k]
				}
			}
			// Readers sit at higher indices: those in this word join the
			// word being scanned, later ones wait in the bitset.
			for _, fo := range fan.code[fan.off[in.dst]:fan.off[in.dst+1]] {
				fw := int(fo >> 6)
				if fw == wi {
					w |= 1 << uint(fo&63)
					continue
				}
				sched[fw] |= 1 << uint(fo&63)
				last = max(last, fw)
			}
		}
	}
	for _, u := range undo[:nu] {
		vals[u.gate] = u.old
	}
	return diff
}

// growPropagate sizes the machine's propagation scratch: a schedule
// bitset over the instructions and an undo slot per net (a propagation
// changes each net at most once).
func (m *Machine[W]) growPropagate() {
	m.fan = m.p.fanoutIndex()
	m.sched = make([]uint64, (len(m.p.code)+63)/64)
	m.undo = make([]undoRec[W], len(m.p.nl.Gates))
}

// evalInstr evaluates one compiled gate over the current net values, in
// every word — the exec loop's unpatched body for a single instruction.
// The two-input opcodes read their operands directly: sending them
// through evalPinForced's fanin loop made propagation 20–30% slower on
// c880, c499 and the 3.4k-gate benchmark design.
//
//repro:hotpath
func (m *Machine[W]) evalInstr(in *ginstr) W {
	vals := m.vals
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
	default:
		v = m.evalPinForced(in, -1, v)
	}
	return v
}

// evalPinForced evaluates one compiled gate with fanin pin reading the
// forced vector instead of its net (pin -1 forces nothing) — the N-ary
// opcodes and the branch-fault site go through here.
//
//repro:hotpath
func (m *Machine[W]) evalPinForced(in *ginstr, pin int, forced W) W {
	vals := m.vals
	fanin := m.p.args[in.off : in.off+in.n]
	var v W
	switch in.op {
	case gopAnd2, gopAndN, gopNand2, gopNandN:
		v = lane.Broadcast[W](^uint64(0))
		for j, s := range fanin {
			x := vals[s]
			if j == pin {
				x = forced
			}
			for k := 0; k < len(v); k++ {
				v[k] &= x[k]
			}
		}
	case gopOr2, gopOrN, gopNor2, gopNorN, gopBuf, gopNot:
		for j, s := range fanin {
			x := vals[s]
			if j == pin {
				x = forced
			}
			for k := 0; k < len(v); k++ {
				v[k] |= x[k]
			}
		}
	default: // gopXor2, gopXorN, gopXnor2, gopXnorN
		for j, s := range fanin {
			x := vals[s]
			if j == pin {
				x = forced
			}
			for k := 0; k < len(v); k++ {
				v[k] ^= x[k]
			}
		}
	}
	switch in.op {
	case gopNot, gopNand2, gopNandN, gopNor2, gopNorN, gopXnor2, gopXnorN:
		for k := 0; k < len(v); k++ {
			v[k] = ^v[k]
		}
	}
	return v
}

// EventScratch is the working memory of Machine.Step: a difference
// vector per net (the lanes in which the net differs from the good
// machine), a bitset of the nets whose vector the current step set, and
// the schedule bitset over instructions. A step leaves both bitsets
// empty and never reads a vector whose bit is clear, so one scratch
// serves every machine of its program and width in turn: the fault
// simulator keeps one per worker rather than one per batch machine (at
// W=8 the difference vectors take 64 bytes per net). Not safe for
// concurrent use.
type EventScratch[W lane.Word] struct {
	fan   *fanouts
	diff  []W
	has   []uint64 // bit id: diff[id] was set by the current step
	sched []uint64
	zero  W // the difference of every net whose has bit is clear
}

// NewEventScratch sizes Step's working memory for a program at width W.
func NewEventScratch[W lane.Word](p *Program) *EventScratch[W] {
	return &EventScratch[W]{
		fan:   p.fanoutIndex(),
		diff:  make([]W, len(p.nl.Gates)),
		has:   make([]uint64, (len(p.nl.Gates)+63)/64),
		sched: make([]uint64, (len(p.code)+63)/64),
	}
}

// diffOf returns net id's difference vector in the current step.
func (sc *EventScratch[W]) diffOf(id int32) *W {
	if sc.has[id>>6]>>uint(id&63)&1 == 0 {
		return &sc.zero
	}
	return &sc.diff[id]
}

// goodWord broadcasts net id's bit of a packed good-value row
// (LaneValuesInto's layout) to a whole word.
func goodWord(good []uint64, id int32) uint64 {
	return -(good[id>>6] >> uint(id&63) & 1)
}

// Step runs one clock cycle of the machine's fault batch event-driven
// against a good machine and returns the lanes of live in which some
// primary output differs from the good machine, with the number of
// instructions it evaluated. good holds every net's good value for the
// cycle, packed one bit per net as LaneValuesInto packs a lane of a
// fault-free machine driven by the same inputs (primary inputs
// included, so Step takes no input vectors). In the lanes of live, Step
// equals Eval followed by Clock: the returned lanes are those where
// Eval's outputs differ from the good outputs, and the flip-flop state
// it latches is Clock's. Lanes outside live are don't-cares: they
// report no difference and latch unspecified state. Flip-flop state
// stays absolute, so Eval+Clock, Reset, LaneStateInto and SetLaneState
// mix freely with Step; the net values Value reads are not updated.
//
// Only the instructions a live lane's fault can disturb are evaluated:
// the readers of flip-flops whose state differs from the good state in
// a live lane and of nets a load injection changes, every injected
// instruction, and then, in instruction order, the readers of every net
// whose value comes out different from the good value. Each reads
// good ⊕ difference, so an instruction nothing disturbed costs nothing.
// Injected records whose lanes have all left live are still evaluated
// (their differences mask to zero): ClearFaultLanes stops that.
//
//repro:step
//repro:hotpath
func (m *Machine[W]) Step(good []uint64, live W, sc *EventScratch[W]) (po W, evals int) {
	p := m.p
	fan := sc.fan
	diff := sc.diff
	has := sc.has
	sched := sc.sched
	first, last := len(sched), -1
	for i, id := range p.nl.FFs {
		g := goodWord(good, int32(id))
		st := &m.state[i]
		var any uint64
		for k := 0; k < len(live); k++ {
			any |= ((*st)[k] ^ g) & live[k]
		}
		if any == 0 {
			continue
		}
		d := &diff[id]
		for k := 0; k < len(live); k++ {
			(*d)[k] = ((*st)[k] ^ g) & live[k]
		}
		has[id>>6] |= 1 << uint(id&63)
		first, last = scheduleReaders(fan, sched, int32(id), first, last)
	}
	// Load injections apply after the flip-flop load, as in Eval.
	for i := range m.loadInj {
		li := &m.loadInj[i]
		g := goodWord(good, li.at)
		old := sc.diffOf(li.at)
		var d W
		var chg uint64
		for k := 0; k < len(d); k++ {
			v := (g^(*old)[k])&^li.mask[k] | li.val[k]
			d[k] = (v ^ g) & live[k]
			chg |= d[k] ^ (*old)[k]
		}
		if chg == 0 {
			continue
		}
		diff[li.at] = d
		has[li.at>>6] |= 1 << uint(li.at&63)
		first, last = scheduleReaders(fan, sched, li.at, first, last)
	}
	for _, ci := range m.touched {
		wi := int(ci >> 6)
		sched[wi] |= 1 << uint(ci&63)
		first = min(first, wi)
		last = max(last, wi)
	}
	code := p.code
	for wi := first; wi <= last; wi++ {
		w := sched[wi]
		sched[wi] = 0
		for w != 0 {
			ci := wi<<6 | bits.TrailingZeros64(w)
			w &= w - 1
			in := &code[ci]
			evals++
			// Evaluate into the net's own vector, then turn the value
			// into its difference; a vector left without its has bit is
			// never read.
			d := &diff[in.dst]
			m.evalStep(in, d, good, sc)
			if r := m.inj[ci]; r >= 0 {
				m.patchStep(in, &m.recs[r], d, good, sc)
			}
			g := goodWord(good, in.dst)
			var any uint64
			for k := 0; k < len(live); k++ {
				(*d)[k] = ((*d)[k] ^ g) & live[k]
				any |= (*d)[k]
			}
			if any == 0 {
				continue
			}
			has[in.dst>>6] |= 1 << uint(in.dst&63)
			// Readers sit at higher indices: those in this word join the
			// word being scanned, later ones wait in the bitset.
			for _, fo := range fan.code[fan.off[in.dst]:fan.off[in.dst+1]] {
				fw := int(fo >> 6)
				if fw == wi {
					w |= 1 << uint(fo&63)
					continue
				}
				sched[fw] |= 1 << uint(fo&63)
				last = max(last, fw)
			}
		}
	}
	for _, id := range p.nl.POs {
		d := sc.diffOf(int32(id))
		for k := 0; k < len(po); k++ {
			po[k] |= (*d)[k]
		}
	}
	for i, src := range p.ffSrc {
		g := goodWord(good, src)
		d := sc.diffOf(src)
		st := &m.state[i]
		for k := 0; k < len(live); k++ {
			(*st)[k] = g ^ (*d)[k]
		}
	}
	for i := range m.clockInj {
		ci := &m.clockInj[i]
		m.state[ci.at] = lane.Merge(m.state[ci.at], ci.mask, ci.val)
	}
	clear(has)
	return po, evals
}

// scheduleReaders sets the schedule bits of every instruction that reads
// net id and widens the [first, last] word range to cover them.
func scheduleReaders(fan *fanouts, sched []uint64, id int32, first, last int) (int, int) {
	for _, ci := range fan.code[fan.off[id]:fan.off[id+1]] {
		wi := int(ci >> 6)
		sched[wi] |= 1 << uint(ci&63)
		first = min(first, wi)
		last = max(last, wi)
	}
	return first, last
}

// evalStep evaluates one compiled gate over good ⊕ difference values
// into v: evalInstr's body for Step.
//
//repro:hotpath
func (m *Machine[W]) evalStep(in *ginstr, v *W, good []uint64, sc *EventScratch[W]) {
	switch in.op {
	case gopBuf, gopNot:
		g, a := goodWord(good, in.a), sc.diffOf(in.a)
		if in.op == gopNot {
			g = ^g
		}
		for k := 0; k < len(*v); k++ {
			(*v)[k] = g ^ (*a)[k]
		}
	case gopAnd2, gopNand2:
		ga, gb := goodWord(good, in.a), goodWord(good, in.b)
		a, b := sc.diffOf(in.a), sc.diffOf(in.b)
		for k := 0; k < len(*v); k++ {
			(*v)[k] = (ga ^ (*a)[k]) & (gb ^ (*b)[k])
		}
	case gopOr2, gopNor2:
		ga, gb := goodWord(good, in.a), goodWord(good, in.b)
		a, b := sc.diffOf(in.a), sc.diffOf(in.b)
		for k := 0; k < len(*v); k++ {
			(*v)[k] = (ga ^ (*a)[k]) | (gb ^ (*b)[k])
		}
	case gopXor2, gopXnor2:
		g := goodWord(good, in.a) ^ goodWord(good, in.b)
		a, b := sc.diffOf(in.a), sc.diffOf(in.b)
		for k := 0; k < len(*v); k++ {
			(*v)[k] = g ^ (*a)[k] ^ (*b)[k]
		}
	case gopAndN, gopNandN:
		*v = lane.Broadcast[W](^uint64(0))
		for _, s := range m.p.args[in.off : in.off+in.n] {
			g, x := goodWord(good, s), sc.diffOf(s)
			for k := 0; k < len(*v); k++ {
				(*v)[k] &= g ^ (*x)[k]
			}
		}
	case gopOrN, gopNorN:
		*v = sc.zero
		for _, s := range m.p.args[in.off : in.off+in.n] {
			g, x := goodWord(good, s), sc.diffOf(s)
			for k := 0; k < len(*v); k++ {
				(*v)[k] |= g ^ (*x)[k]
			}
		}
	default: // gopXorN, gopXnorN
		*v = sc.zero
		for _, s := range m.p.args[in.off : in.off+in.n] {
			g, x := goodWord(good, s), sc.diffOf(s)
			for k := 0; k < len(*v); k++ {
				(*v)[k] ^= g ^ (*x)[k]
			}
		}
	}
	switch in.op {
	case gopNand2, gopNandN, gopNor2, gopNorN, gopXnor2, gopXnorN:
		for k := 0; k < len(*v); k++ {
			(*v)[k] = ^(*v)[k]
		}
	}
}

// patchStep applies an injected instruction's record to its value v:
// patchInjected's work for Step. Each dirty word with pin overrides is
// re-evaluated from good ⊕ difference with the overrides applied, one
// word at a time, and then the stem mask is applied.
//
//repro:hotpath
func (m *Machine[W]) patchStep(in *ginstr, rec *injRec[W], v *W, good []uint64, sc *EventScratch[W]) {
	fanin := m.p.args[in.off : in.off+in.n]
	for k, dirty := 0, rec.dirty; dirty != 0; k, dirty = k+1, dirty>>1 {
		if dirty&1 == 0 {
			continue
		}
		if len(rec.pins) != 0 {
			var acc uint64
			switch in.op {
			case gopAnd2, gopAndN, gopNand2, gopNandN:
				acc = ^uint64(0)
			}
			for j, s := range fanin {
				x := goodWord(good, s) ^ (*sc.diffOf(s))[k]
				for pi := range rec.pins {
					if int(rec.pins[pi].at) == j {
						x = x&^rec.pins[pi].mask[k] | rec.pins[pi].val[k]
					}
				}
				switch in.op {
				case gopAnd2, gopAndN, gopNand2, gopNandN:
					acc &= x
				case gopXor2, gopXorN, gopXnor2, gopXnorN:
					acc ^= x
				default: // gopBuf, gopNot and the ORs
					acc |= x
				}
			}
			switch in.op {
			case gopNot, gopNand2, gopNandN, gopNor2, gopNorN, gopXnor2, gopXnorN:
				acc = ^acc
			}
			(*v)[k] = acc
		}
		(*v)[k] = (*v)[k]&^rec.outMask[k] | rec.outVal[k]
	}
}
