// Event-driven single-fault propagation on a compiled machine.
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
	first, last := len(sched), -1
	for _, ci := range fan.code[fan.off[f.Gate]:fan.off[f.Gate+1]] {
		wi := int(ci >> 6)
		sched[wi] |= 1 << uint(ci&63)
		first = min(first, wi)
		last = max(last, wi)
	}
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
// every word — the fault-free exec loop's body for a single instruction.
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
