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
// lanes 2k and 2k+1). Either driver hands each target's outcome, in
// target-index order, to the mode's single commit closure, which counts
// it, fills the test and drops what the test detects through an
// incremental faultsim.Simulator session — at Workers == 1 that session
// is faultsim's single-fault reference engine. The decision
// logic (objective, backtrace, backtracking) stays three-valued and
// engine-independent, so every setting generates identical test sets —
// internal/difftest fuzzes that pin.
//
// The paper's motivation is that mutation-derived validation data can be
// applied as a free pre-test before ATPG, reducing deterministic
// test-generation effort; this package provides the ATPG whose effort is
// measured (experiment E3, see internal/core).
package atpg

import (
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

// Options tunes the ATPG run.
type Options struct {
	// MaxBacktracks bounds the PODEM search per fault; a fault whose search
	// exceeds it is classified aborted. Default 4096.
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
	// on the compiled dual-rail machine, forwarding Workers/LaneWords to
	// the drop-sim session. Results are identical for every setting.
	engine.Options
}

func (o *Options) withDefaults() Options {
	out := Options{MaxBacktracks: 4096}
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

// cursor is the mutable state of one PODEM search: the two value planes
// an implication pass fills (the interpreter directly, the compiled twin
// through decode), the armed target's sites, and the decision scratch.
// The serial driver runs one cursor; the pack scheduler runs one cursor
// per lane pair, all sharing the structural search core, so concurrent
// searches backtrack independently. The search takes every decision by
// reading gv/fv, so both backends must fill them bit for bit alike.
type cursor struct {
	gv []tri // good-plane values per gate
	fv []tri // faulty-plane values per gate
	// sites and siteAt describe the armed target: the current fault's
	// sites, indexed by gate for imply/objective.
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

// newCursor allocates a search cursor sized for the model netlist.
func newCursor(nl *netlist.Netlist) *cursor {
	return &cursor{
		gv:     make([]tri, len(nl.Gates)),
		fv:     make([]tri, len(nl.Gates)),
		siteAt: make(map[int]netlist.FaultSite),
	}
}

// arm points the cursor at a new target: sites installed and indexed,
// every PI back to X, decision stack emptied, backtrack count zeroed.
//
//repro:hotpath
func (c *cursor) arm(nl *netlist.Netlist, sites []netlist.FaultSite) {
	c.sites = sites
	for id := range c.siteAt {
		delete(c.siteAt, id)
	}
	for _, st := range sites {
		c.siteAt[st.Gate] = st
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
// (the circuit itself, or its time-frame expansion): levels, fanout and
// SCOAP controllabilities guiding every cursor that runs on it.
type search struct {
	nl    *netlist.Netlist
	order []int // combinational evaluation order
	piIdx map[int]int
	fan   [][]int // fanout gate IDs per gate (for X-path checks)
	level []int
	// cc holds SCOAP controllabilities guiding the backtrace.
	cc *scoap.Measures
}

func newSearch(nl *netlist.Netlist) (*search, error) {
	order, err := nl.Levelize()
	if err != nil {
		return nil, err
	}
	e := &search{
		nl:    nl,
		order: order,
		piIdx: make(map[int]int),
		fan:   make([][]int, len(nl.Gates)),
		level: make([]int, len(nl.Gates)),
	}
	for i, id := range nl.PIs {
		e.piIdx[id] = i
	}
	for _, g := range nl.Gates {
		for _, f := range g.Fanin {
			e.fan[f] = append(e.fan[f], g.ID)
		}
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
		if done, status := e.step(c, maxBacktracks); done {
			if status == statusDetected {
				return c.assign, c.backtracks, status
			}
			return nil, c.backtracks, status
		}
	}
}

// step advances one search by a single decision after an implication
// pass: check detection, extend the assignment towards the next
// objective, or backtrack. It returns done=true with the terminal status
// when the search ends; otherwise the cursor's assignment changed and the
// caller owes it another implication pass. The pack scheduler interleaves
// many cursors by broadcasting one machine pass per round and stepping
// each survivor; the podem loop above is the degenerate single-cursor
// schedule — both run this exact decision procedure, which is why
// packing cannot change any per-target outcome.
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
// into the faulty plane at every site. Kept (behind Workers == 1) as the
// differential baseline for the compiled dual-rail twin. At most one
// site may occupy a given gate (guaranteed by construction: one copy per
// frame).
func (e *search) imply(c *cursor) {
	nl := e.nl
	for id := range nl.Gates {
		c.gv[id] = xx
		c.fv[id] = xx
	}
	for i, id := range nl.PIs {
		c.gv[id] = c.assign[i]
		c.fv[id] = c.assign[i]
	}
	for _, g := range nl.Gates {
		switch g.Type {
		case netlist.Const0:
			c.gv[g.ID], c.fv[g.ID] = lo, lo
		case netlist.Const1:
			c.gv[g.ID], c.fv[g.ID] = hi, hi
		}
	}
	// Output faults on PIs or constants apply before gate evaluation.
	for _, st := range c.sites {
		if st.Pin < 0 && !nl.Gates[st.Gate].Type.IsComb() {
			c.fv[st.Gate] = tri(st.Stuck)
		}
	}
	for _, id := range e.order {
		g := nl.Gates[id]
		c.gv[id] = evalTri(g, c.gv, -1, xx)
		fpin, fval := -1, xx
		if st, ok := c.siteAt[id]; ok && st.Pin >= 0 {
			fpin, fval = st.Pin, tri(st.Stuck)
		}
		c.fv[id] = evalTri(g, c.fv, fpin, fval)
		if st, ok := c.siteAt[id]; ok && st.Pin < 0 {
			c.fv[id] = tri(st.Stuck)
		}
	}
}

// evalTri computes a gate's three-valued output on one plane, optionally
// overriding input pin fpin with fval.
func evalTri(g *netlist.Gate, vals []tri, fpin int, fval tri) tri {
	in := func(j int) tri {
		if j == fpin {
			return fval
		}
		return vals[g.Fanin[j]]
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
	return vals[g.ID] // PI / const / DFF keep preset values
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

// detected reports whether any PO shows a definite good/faulty difference.
func (e *search) detected(c *cursor) bool {
	for _, id := range e.nl.POs {
		g, f := c.gv[id], c.fv[id]
		if g != xx && f != xx && g != f {
			return true
		}
	}
	return false
}

// objective returns the next (net, value) goal: activate the fault at
// some site whose good value is still X, otherwise advance the
// D-frontier. For branch faults the D lives on the faulted gate's pin
// (the driver net itself is healthy), so the pin's effective faulty value
// is the stuck value, not the driver's.
func (e *search) objective(c *cursor) (int, tri, bool) {
	anyActivated := false
	var pendingNet = -1
	var pendingVal tri
	for _, site := range c.sites {
		siteNet := site.Gate
		if site.Pin >= 0 {
			siteNet = e.nl.Gates[site.Gate].Fanin[site.Pin]
		}
		switch c.gv[siteNet] {
		case xx:
			if pendingNet < 0 {
				pendingNet, pendingVal = siteNet, notTri(tri(site.Stuck))
			}
		case tri(site.Stuck):
			// unactivatable at this site under the current assignment
		default:
			anyActivated = true
		}
	}
	if !anyActivated {
		if pendingNet >= 0 {
			return pendingNet, pendingVal, true
		}
		return 0, xx, false // no site can activate under this assignment
	}
	// Some site is activated; find a D-frontier gate: output X with a D
	// input (accounting for injected pin values at fault sites).
	for _, id := range e.order {
		g := e.nl.Gates[id]
		if c.gv[id] != xx && c.fv[id] != xx {
			continue
		}
		hasD := false
		for j, f := range g.Fanin {
			gvf, fvf := c.gv[f], c.fv[f]
			if st, ok := c.siteAt[id]; ok && j == st.Pin {
				fvf = tri(st.Stuck)
			}
			if gvf != xx && fvf != xx && gvf != fvf {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		// Set one X input to the gate's non-controlling value.
		for _, f := range g.Fanin {
			if c.gv[f] == xx {
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
			if c.gv[f] != xx {
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
