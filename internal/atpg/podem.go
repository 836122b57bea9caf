// Package atpg implements deterministic test pattern generation for
// combinational and (via time-frame expansion) sequential netlists using
// the PODEM algorithm (Goel 1981): PI-only decisions, objective/backtrace
// guidance and bounded backtracking, on a two-plane (good machine / faulty
// machine) three-valued simulation.
//
// Each generation run uses one of two target drivers, selected like
// everywhere else in this repository by the shared engine.Options
// surface. Workers == 1 is the serial reference: a per-gate three-valued
// interpreter searches one target at a time. Every other setting runs
// the pack scheduler, which evaluates the good and faulty planes of up
// to Options.PackPairs concurrent searches in one pass of a compiled
// dual-rail machine (netlist.TriExpand + netlist.Compile; search k on
// lanes 2k and 2k+1). Combinational and sequential models share one
// generation loop and one Options type: either driver hands each
// target's outcome, in target-index order, to the loop's one commit
// closure, which counts it, fills the test (one pattern, or one per
// frame) and drops what the test detects through an incremental
// faultsim.Simulator session — at Workers == 1 that session is
// faultsim's single-fault reference engine.
//
// Serial and packed searches implicate into one value store, the run's
// plane: per gate a hi and a lo rail word, search k reading its good
// plane on lane 2k and its faulty plane on lane 2k+1. The pack scheduler fills the
// words once per round from the machine (twin.load); the interpreter
// writes its search's two lanes itself. One D-frontier pass per round
// then walks the gates once in levelized order with word operations and
// finds every waiting search's frontier gate at the same time, so a
// packed round costs one pass over the gates plus per-search decision
// work, not one pass per search. The decision logic (objective,
// backtrace, backtracking) reads the plane identically for both, so
// every setting generates identical test sets —
// internal/difftest fuzzes that pin.
//
// The paper's motivation is that mutation-derived validation data can be
// applied as a free pre-test before ATPG, reducing deterministic
// test-generation effort; this package provides the ATPG whose effort is
// measured (experiment E3, see internal/core).
package atpg

import (
	"math/bits"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/scoap"
)

// tri is a three-valued logic level.
type tri uint8

const (
	lo tri = iota
	hi
	xx
)

func (t tri) String() string { return [...]string{"0", "1", "X"}[t] }

// Options tunes an ATPG run on either kind of Model.
type Options struct {
	// MaxBacktracks bounds the PODEM search per fault; a fault whose search
	// exceeds it is classified aborted. The default depends on the model:
	// 4096 for a combinational one, 1024 for a sequential one, where most
	// of the budget is burned proving faults undetectable within the frame
	// horizon and a deeper search rarely changes the verdict.
	MaxBacktracks int
	// FillSeed seeds the random fill of don't-care PI positions.
	FillSeed int64
	// PackPairs sets how many concurrent PODEM searches the pack
	// scheduler runs in one dual-rail machine pass (each search occupies
	// one lane pair of the W=1 twin word): 0 picks the full 32-pair
	// capacity, 1..32 an explicit width, and anything else is rejected.
	// The serial reference (Workers == 1) ignores it. Results are
	// identical for every setting: targets commit in index order, so
	// detection order (and therefore fault dropping) never depends on
	// pack width.
	PackPairs int
	// Options is the shared engine surface (see the package comment):
	// Workers == 1 selects the serial reference — the three-valued
	// interpreter, with faultsim's single-fault reference engine as the
	// drop-sim session — and every other setting runs the pack scheduler
	// on the compiled dual-rail machine, forwarding Workers to the
	// drop-sim session. Results are identical for every setting.
	engine.Options
}

// withDefaults fills the zero fields of o for a run on a combinational
// or a sequential model.
func (o *Options) withDefaults(sequential bool) Options {
	out := Options{MaxBacktracks: 4096}
	if sequential {
		out.MaxBacktracks = 1024
	}
	if o != nil {
		if o.MaxBacktracks > 0 {
			out.MaxBacktracks = o.MaxBacktracks
		}
		out.FillSeed = o.FillSeed
		out.PackPairs = o.PackPairs
		out.Options = o.Options
	}
	return out
}

// Report summarizes an ATPG run. Backtracks and PodemCalls are the
// "effort" measures the top-off experiment compares.
type Report struct {
	Vectors    []faultsim.Pattern // generated tests, in generation order
	Detected   int                // faults detected (by PODEM tests incl. drops)
	Redundant  int                // proven undetectable
	Aborted    int                // backtrack limit exceeded
	Backtracks int                // total backtracks over all PODEM calls
	PodemCalls int
	Total      int // faults targeted
}

// Coverage returns Detected / Total (0 when no faults were targeted).
func (r *Report) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// Generate runs PODEM over every fault in faults (all collapsed faults of
// nl when nil), with fault dropping: each generated vector is fault
// simulated against the remaining targets. Sequential netlists are
// rejected; use GenerateSequential (or extract the combinational core).
// It compiles a fresh model per call; use NewModel when several runs
// share a circuit.
func Generate(nl *netlist.Netlist, faults []faultsim.Fault, opts *Options) (*Report, error) {
	m, err := NewModel(nl)
	if err != nil {
		return nil, err
	}
	return m.Generate(faults, opts)
}

// fillCube turns a three-valued PI cube into a concrete pattern, filling
// don't-care positions from rng (one draw per X, in PI order — part of
// the engines' determinism pin).
func fillCube(cube []tri, rng *rand.Rand) faultsim.Pattern {
	pat := make(faultsim.Pattern, len(cube))
	for i, v := range cube {
		switch v {
		case lo:
			pat[i] = 0
		case hi:
			pat[i] = 1
		default:
			pat[i] = uint8(rng.Intn(2))
		}
	}
	return pat
}

// --- PODEM search engine -----------------------------------------------------

type podemStatus int

const (
	statusDetected podemStatus = iota
	statusRedundant
	statusAborted
)

// plane is the value store every search of a run reads its
// implications from: per gate a hi rail word (bit set: the gate is 1 on
// that lane) and a lo rail word (bit set: the gate is 0), X being neither
// — the dual-rail twin's own encoding, so the pack scheduler copies it
// out of the machine without translating. Search k (cursor k) owns lanes
// 2k (good plane) and 2k+1 (faulty plane). The plane also carries what
// the round's D-frontier pass needs beyond the values: which searches
// have a branch-fault site at a gate, and the cursor of each search.
type plane struct {
	hi, lo []uint64
	// branch[id] has bit 2k set while search k's armed target has a
	// branch-fault site (Pin >= 0) on gate id: the pass's fix-up mask.
	branch []uint64
	curs   [packMaxPairs]*cursor
}

func newPlane(gates int) *plane {
	return &plane{
		hi:     make([]uint64, gates),
		lo:     make([]uint64, gates),
		branch: make([]uint64, gates),
	}
}

// at decodes one gate's value on lane ln.
func (p *plane) at(id int, ln uint) tri {
	return railTri(p.hi[id]>>ln&1, p.lo[id]>>ln&1)
}

// set writes one gate's value on lane ln.
func (p *plane) set(id int, ln uint, v tri) {
	bit := uint64(1) << ln
	p.hi[id] &^= bit
	p.lo[id] &^= bit
	switch v {
	case hi:
		p.hi[id] |= bit
	case lo:
		p.lo[id] |= bit
	}
}

// railTri decodes one plane's rail pair: hi rail set means 1, lo rail set
// means 0, neither means X (both set cannot arise — the twin preserves
// the rail invariant and fault injection writes consistent pairs).
func railTri(h, l uint64) tri {
	if h != 0 {
		return hi
	}
	if l != 0 {
		return lo
	}
	return xx
}

// cursor is the mutable state of one PODEM search: its lane pair in the
// run's plane (which an implication pass fills — the interpreter
// directly, the compiled twin through load), the armed target's sites,
// the frontier gate the round's pass found for it, and the decision
// scratch. The serial reference runs cursor 0; the pack scheduler runs
// cursor k on lane pair k, all sharing the structural search core and
// the plane, so concurrent searches backtrack independently. A cursor's
// lanes are fixed when it is built, and every run builds its own
// (Model.newRun). The search takes every decision by reading its two
// lanes, so both backends must fill them bit for bit alike.
type cursor struct {
	pl   *plane
	lane uint   // good-plane lane 2k; the faulty plane is lane+1
	bit  uint64 // 1 << lane: the search's bit in the plane's pair masks
	// front is the D-frontier gate the round's pass found (-1: none),
	// valid in the rounds where step consults it.
	front int
	// sites and siteAt describe the armed target: the current fault's
	// sites, indexed by gate for imply and the frontier fix-up.
	sites  []netlist.FaultSite
	siteAt map[int]netlist.FaultSite
	// assign and stack are the cursor-owned decision scratch, recycled
	// across targets (one cube and one decision stack per cursor, not
	// per target).
	assign []tri
	stack  []decision
	// backtracks counts this search's backtracks since arm (the pack
	// scheduler carries it across lockstep rounds).
	backtracks int
}

// newCursor builds search k's cursor on the plane's lane pair k and
// registers it there for the frontier pass.
func newCursor(pl *plane, k int) *cursor {
	c := &cursor{
		pl:     pl,
		lane:   uint(2 * k),
		bit:    1 << uint(2*k),
		front:  -1,
		siteAt: make(map[int]netlist.FaultSite),
	}
	pl.curs[k] = c
	return c
}

// good and faulty decode a gate's value on the cursor's two planes.
func (c *cursor) good(id int) tri   { return c.pl.at(id, c.lane) }
func (c *cursor) faulty(id int) tri { return c.pl.at(id, c.lane+1) }

// arm points the cursor at a new target: sites installed, indexed and
// marked in the plane's branch masks (the old target's marks retired),
// every PI back to X, decision stack emptied, backtrack count zeroed.
//
//repro:hotpath
func (c *cursor) arm(nl *netlist.Netlist, sites []netlist.FaultSite) {
	for id, st := range c.siteAt {
		if st.Pin >= 0 {
			c.pl.branch[id] &^= c.bit
		}
		delete(c.siteAt, id)
	}
	c.sites = sites
	for _, st := range sites {
		c.siteAt[st.Gate] = st
		if st.Pin >= 0 {
			c.pl.branch[st.Gate] |= c.bit
		}
	}
	assign := engine.Grow(c.assign, len(nl.PIs))
	c.assign = assign
	for i := range assign {
		assign[i] = xx
	}
	c.stack = c.stack[:0]
	c.backtracks = 0
}

// search holds the structural PODEM search core over the model netlist
// (the circuit itself, or its time-frame expansion): evaluation order,
// levels and SCOAP controllabilities guiding every cursor that runs on it.
type search struct {
	nl    *netlist.Netlist
	order []int // combinational evaluation order
	// fanOff and fanIn lay the fanins out in evaluation order for the
	// frontier pass: gate order[p] reads fanIn[fanOff[p]:fanOff[p+1]].
	fanOff []int32
	fanIn  []int32
	piIdx  map[int]int
	level  []int
	// cc holds SCOAP controllabilities guiding the backtrace.
	cc *scoap.Measures
}

func newSearch(nl *netlist.Netlist) (*search, error) {
	order, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	e := &search{
		nl:     nl,
		order:  order,
		fanOff: make([]int32, 1, len(order)+1),
		piIdx:  make(map[int]int),
		level:  make([]int, len(nl.Gates)),
	}
	for i, id := range nl.PIs {
		e.piIdx[id] = i
	}
	for _, id := range order {
		for _, f := range nl.Gates[id].Fanin {
			e.fanIn = append(e.fanIn, int32(f))
		}
		e.fanOff = append(e.fanOff, int32(len(e.fanIn)))
	}
	// Approximate controllability by level for backtrace tie-breaking.
	for _, id := range order {
		g := nl.Gates[id]
		lvl := 0
		for _, f := range g.Fanin {
			if e.level[f]+1 > lvl {
				lvl = e.level[f] + 1
			}
		}
		e.level[id] = lvl
	}
	cc, err := scoap.Analyze(nl)
	if err != nil {
		return nil, err
	}
	e.cc = cc
	return e, nil
}

type decision struct {
	pi      int // PI gate ID
	value   tri
	flipped bool
}

// podem searches on the interpreter for a test cube for a fault
// occupying one or more sites (a single site for combinational ATPG; one
// copy per time frame for the unrolled sequential flow). It returns the
// PI cube (tri per PI, in PI order), the number of backtracks, and the
// outcome. The cube is the cursor's assignment, valid until the cursor
// is re-armed — the commit concretizes it (fillCube/sliceTest) before
// the next target.
func (e *search) podem(c *cursor, sites []netlist.FaultSite, maxBacktracks int) ([]tri, int, podemStatus) {
	c.arm(e.nl, sites)
	for {
		e.imply(c)
		e.frontier(c.pl, c.bit)
		if done, status := e.step(c, maxBacktracks); done {
			if status == statusDetected {
				return c.assign, c.backtracks, status
			}
			return nil, c.backtracks, status
		}
	}
}

// step advances one search by a single decision after an implication
// pass and the round's frontier pass: check detection, extend the
// assignment towards the next objective, or backtrack. It returns
// done=true with the terminal status when the search ends; otherwise the
// cursor's assignment changed and the caller owes it another round. The
// pack scheduler interleaves many cursors by broadcasting one machine
// pass and one frontier pass per round and stepping each survivor; the
// podem loop above is the degenerate single-cursor schedule — both run
// this exact decision procedure, which is why packing cannot change any
// per-target outcome.
func (e *search) step(c *cursor, maxBacktracks int) (bool, podemStatus) {
	if e.detected(c) {
		return true, statusDetected
	}
	objGate, objVal, ok := e.objective(c)
	if ok {
		pi, v := e.backtrace(c, objGate, objVal)
		if pi >= 0 {
			c.stack = append(c.stack, decision{pi: pi, value: v})
			c.assign[e.piIdx[pi]] = v
			return false, 0
		}
	}
	// Dead end: flip the most recent unflipped decision.
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		if !top.flipped {
			c.backtracks++
			if c.backtracks > maxBacktracks {
				return true, statusAborted
			}
			top.flipped = true
			top.value ^= 1 // lo <-> hi
			c.assign[e.piIdx[top.pi]] = top.value
			return false, 0
		}
		c.assign[e.piIdx[top.pi]] = xx
		c.stack = c.stack[:len(c.stack)-1]
	}
	return true, statusRedundant
}

// imply is the serial reference backend: a per-gate three-valued
// interpreter over the model netlist that forward-simulates both of the
// cursor's planes for its PI assignment, with the armed fault injected
// into the faulty plane at every site, writing the cursor's two lanes of
// the plane (every other lane reads X). Kept (behind Workers == 1) as the
// differential baseline for the compiled dual-rail twin. At most one
// site may occupy a given gate (guaranteed by construction: one copy per
// frame).
func (e *search) imply(c *cursor) {
	nl, pl := e.nl, c.pl
	gl, fl := c.lane, c.lane+1
	clear(pl.hi)
	clear(pl.lo)
	for i, id := range nl.PIs {
		pl.set(id, gl, c.assign[i])
		pl.set(id, fl, c.assign[i])
	}
	for _, g := range nl.Gates {
		switch g.Type {
		case netlist.Const0:
			pl.set(g.ID, gl, lo)
			pl.set(g.ID, fl, lo)
		case netlist.Const1:
			pl.set(g.ID, gl, hi)
			pl.set(g.ID, fl, hi)
		}
	}
	// Output faults on PIs or constants apply before gate evaluation.
	for _, st := range c.sites {
		if st.Pin < 0 && !nl.Gates[st.Gate].Type.IsComb() {
			pl.set(st.Gate, fl, tri(st.Stuck))
		}
	}
	for _, id := range e.order {
		g := nl.Gates[id]
		pl.set(id, gl, evalTri(g, pl, gl, -1, xx))
		fpin, fval := -1, xx
		st, ok := c.siteAt[id]
		if ok && st.Pin >= 0 {
			fpin, fval = st.Pin, tri(st.Stuck)
		}
		pl.set(id, fl, evalTri(g, pl, fl, fpin, fval))
		if ok && st.Pin < 0 {
			pl.set(id, fl, tri(st.Stuck))
		}
	}
}

// evalTri computes a gate's three-valued output on lane ln of the plane,
// optionally overriding input pin fpin with fval.
func evalTri(g *netlist.Gate, pl *plane, ln uint, fpin int, fval tri) tri {
	in := func(j int) tri {
		if j == fpin {
			return fval
		}
		return pl.at(g.Fanin[j], ln)
	}
	switch g.Type {
	case netlist.Buf:
		return in(0)
	case netlist.Not:
		return notTri(in(0))
	case netlist.And, netlist.Nand:
		v := hi
		for j := range g.Fanin {
			switch in(j) {
			case lo:
				v = lo
			case xx:
				if v != lo {
					v = xx
				}
			}
		}
		if g.Type == netlist.Nand {
			return notTri(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := lo
		for j := range g.Fanin {
			switch in(j) {
			case hi:
				v = hi
			case xx:
				if v != hi {
					v = xx
				}
			}
		}
		if g.Type == netlist.Nor {
			return notTri(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := lo
		for j := range g.Fanin {
			iv := in(j)
			if iv == xx {
				return xx
			}
			v ^= iv
		}
		if g.Type == netlist.Xnor {
			return notTri(v)
		}
		return v
	}
	return pl.at(g.ID, ln) // PI / const / DFF keep preset values
}

func notTri(t tri) tri {
	switch t {
	case lo:
		return hi
	case hi:
		return lo
	}
	return xx
}

// dLanes reads one gate's rail words h and l pair by pair: bit 2k is set
// when search k's good and faulty values of the gate are both defined
// and differ (a D). Odd bits are noise.
func dLanes(h, l uint64) uint64 {
	def := h | l
	return def & (def >> 1) & (h ^ h>>1)
}

// detected reports whether any PO shows a definite good/faulty difference.
func (e *search) detected(c *cursor) bool {
	for _, id := range e.nl.POs {
		if dLanes(c.pl.hi[id], c.pl.lo[id])&c.bit != 0 {
			return true
		}
	}
	return false
}

// activation scans the armed target's sites: whether some site is
// activated (its good value is the opposite of the stuck value) and the
// first site net, in site order, whose good value is still X, with the
// value that would activate it (net -1 when there is none). For branch
// faults the site net is the net feeding the faulted pin.
func (e *search) activation(c *cursor) (activated bool, net int, val tri) {
	net = -1
	for _, site := range c.sites {
		siteNet := site.Gate
		if site.Pin >= 0 {
			siteNet = e.nl.Gates[site.Gate].Fanin[site.Pin]
		}
		switch c.good(siteNet) {
		case xx:
			if net < 0 {
				net, val = siteNet, notTri(tri(site.Stuck))
			}
		case tri(site.Stuck):
			// unactivatable at this site under the current assignment
		default:
			activated = true
		}
	}
	return activated, net, val
}

// frontier is the round's D-frontier pass, shared by every search in
// live (bit 2k: search k) after an implication pass filled the plane.
// For each live search that step will ask for a frontier — its target
// not yet detected, some site activated — it finds the first gate in
// levelized order whose output is X in either plane, with a D on some
// input and an X good-plane input, and leaves it in the cursor's front
// (-1 when there is none). It walks the gates once, testing the three
// conditions for every waiting search at a time with word operations on
// the lane pairs, and stops once every search has its gate. At the
// gates marked in the plane's branch masks a search's D test is redone
// with the faulted pin's faulty value forced to its stuck value: the D
// of a branch fault lives on the gate's pin, while the net feeding it is
// healthy.
//
//repro:hotpath
func (e *search) frontier(pl *plane, live uint64) {
	hiw, low, branch := pl.hi, pl.lo, pl.branch
	var detected, pending uint64
	for _, id := range e.nl.POs {
		detected |= dLanes(hiw[id], low[id])
	}
	for w := live &^ detected; w != 0; w &= w - 1 {
		c := pl.curs[bits.TrailingZeros64(w)/2]
		if activated, _, _ := e.activation(c); activated {
			c.front = -1
			pending |= c.bit
		}
	}
	if pending == 0 {
		return
	}
	for p, id := range e.order {
		// Pairs with an X output in either plane: the faulty lane's X
		// folds down onto the pair's good lane.
		xout := ^(hiw[id] | low[id])
		cand := (xout | xout>>1) & pending
		if cand == 0 {
			continue
		}
		// d: a D on some input; xin: an X good-plane input. Both are
		// read on the pairs' good lanes.
		var d, xin uint64
		for _, f := range e.fanIn[e.fanOff[p]:e.fanOff[p+1]] {
			h, l := hiw[f], low[f]
			d |= dLanes(h, l)
			xin |= ^(h | l)
		}
		for b := branch[id] & cand; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b)
			if e.branchD(pl.curs[k/2], id) {
				d |= 1 << uint(k)
			} else {
				d &^= 1 << uint(k)
			}
		}
		hit := cand & d & xin
		if hit == 0 {
			continue
		}
		pending &^= hit
		for ; hit != 0; hit &= hit - 1 {
			pl.curs[bits.TrailingZeros64(hit)/2].front = id
		}
		if pending == 0 {
			return
		}
	}
}

// branchD is the frontier pass's fix-up at a gate holding one of c's
// branch-fault sites: whether some input of gate id shows a D on c's
// planes once the faulted pin reads its stuck value on the faulty plane.
func (e *search) branchD(c *cursor, id int) bool {
	st := c.siteAt[id]
	for j, f := range e.nl.Gates[id].Fanin {
		gv, fv := c.good(f), c.faulty(f)
		if j == st.Pin {
			fv = tri(st.Stuck)
		}
		if gv != xx && fv != xx && gv != fv {
			return true
		}
	}
	return false
}

// objective returns the next (net, value) goal: activate the fault at
// some site whose good value is still X, otherwise advance the
// D-frontier gate the round's pass found, setting its first X input to
// the gate's non-controlling value.
func (e *search) objective(c *cursor) (int, tri, bool) {
	activated, pendingNet, pendingVal := e.activation(c)
	if !activated {
		if pendingNet >= 0 {
			return pendingNet, pendingVal, true
		}
		return 0, xx, false // no site can activate under this assignment
	}
	if c.front >= 0 {
		g := e.nl.Gates[c.front]
		for _, f := range g.Fanin {
			if c.good(f) == xx {
				return f, nonControlling(g.Type), true
			}
		}
	}
	// When the frontier is stuck but a site could still activate, try it.
	if pendingNet >= 0 {
		return pendingNet, pendingVal, true
	}
	return 0, xx, false
}

func nonControlling(t netlist.GateType) tri {
	switch t {
	case netlist.And, netlist.Nand:
		return hi
	case netlist.Or, netlist.Nor:
		return lo
	default: // XOR-family and inverters have no controlling value; 0 works
		return lo
	}
}

// backtrace maps an objective to a PI assignment by walking X-valued nets
// backwards, flipping the goal through inverting gates. It returns -1 when
// the objective is unreachable (no X input anywhere on the way).
func (e *search) backtrace(c *cursor, gate int, val tri) (int, tri) {
	id, v := gate, val
	for {
		g := e.nl.Gates[id]
		if g.Type == netlist.PI {
			return id, v
		}
		switch g.Type {
		case netlist.Not, netlist.Nand, netlist.Nor:
			v = notTri(v)
		}
		// Choose an X input by SCOAP controllability: the cheapest when
		// the goal is the gate's controlling value (any one input will
		// do — take the easiest), the costliest when every input must be
		// justified (resolve the hardest first so conflicts surface
		// early).
		next := -1
		wantControlling := isControllingGoal(g.Type, v)
		bestCost := -1
		for _, f := range g.Fanin {
			if c.good(f) != xx {
				continue
			}
			cost := e.cc.CC1[f]
			if v == lo {
				cost = e.cc.CC0[f]
			}
			if cost >= scoap.Inf {
				cost = scoap.Inf - 1 - e.level[f] // prefer shallower among unreachables
			}
			if next == -1 ||
				(wantControlling && cost < bestCost) ||
				(!wantControlling && cost > bestCost) {
				next, bestCost = f, cost
			}
		}
		if next < 0 {
			return -1, xx
		}
		id = next
	}
}

// isControllingGoal reports whether the goal value v at the *input* side
// of gate type t is that gate's controlling value (after the inversion
// adjustment done by backtrace).
func isControllingGoal(t netlist.GateType, v tri) bool {
	switch t {
	case netlist.And, netlist.Nand:
		return v == lo
	case netlist.Or, netlist.Nor:
		return v == hi
	}
	return false
}
