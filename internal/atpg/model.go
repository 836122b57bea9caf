package atpg

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// Model is the reusable ATPG evaluation model for one circuit: the PODEM
// search structures (levelization, SCOAP) over the model netlist — the
// circuit itself for combinational sources, its time-frame expansion for
// sequential ones — and the dual-rail twin program the pack scheduler
// evaluates. Compiling is per (netlist, unroll depth), and a Model holds
// only what compiling builds: every run owns its plane, its cursors and
// its W=1 twin machine (newRun). A Model is therefore safe for
// concurrent runs, and callers that run several campaigns against one
// circuit build one Model (the top-off experiments run baseline and
// top-off beside each other on one).
type Model struct {
	nl     *netlist.Netlist // source circuit
	um     *netlist.UnrollMap
	frames int // 0 for combinational models
	eng    *search
	// tm and prog are the model netlist's dual-rail twin: its TriExpand
	// map and the compiled twin program every packed run evaluates.
	tm   *netlist.TriMap
	prog *netlist.Program
}

// dropSimConfig projects the ATPG engine options onto the drop-sim
// session: Workers and Ctx forward — so Workers == 1 drops through
// faultsim's single-fault reference engine — but the progress hook does
// not: ATPG reports resolved targets on it, and interleaving the inner
// simulator's batch counts would make one hook carry two incompatible
// (Done, Total) streams.
func dropSimConfig(o engine.Options) faultsim.Config {
	o.Progress = nil
	return faultsim.Config{Options: o}
}

// resolvePackPairs validates the PackPairs knob: 0 selects the full
// 32-pair capacity of the W=1 dual-rail machine and 1..32 an explicit
// pack width. Values beyond the lane capacity are rejected — a pair is
// two lanes of one 64-lane word.
func resolvePackPairs(p int) (int, error) {
	switch {
	case p == 0:
		return packMaxPairs, nil
	case p >= 1 && p <= packMaxPairs:
		return p, nil
	}
	return 0, fmt.Errorf("atpg: unsupported PackPairs %d (want 0 (auto) or 1..%d)", p, packMaxPairs)
}

// NewModel builds the ATPG model of a combinational netlist.
func NewModel(nl *netlist.Netlist) (*Model, error) {
	if nl.IsSequential() {
		return nil, fmt.Errorf("atpg: sequential netlist %s not supported by the combinational model (use NewSequentialModel)", nl.Name)
	}
	return newModel(nl, nil, 0, nl)
}

// NewSequentialModel builds the ATPG model of a sequential netlist at the
// given time-frame expansion depth: each test is a sequence of that many
// cycles applied from power-on (8 frames when frames <= 0).
func NewSequentialModel(nl *netlist.Netlist, frames int) (*Model, error) {
	if !nl.IsSequential() {
		return nil, fmt.Errorf("atpg: %s is combinational; use Generate (NewModel)", nl.Name)
	}
	if frames <= 0 {
		frames = 8
	}
	unrolled, um, err := netlist.Unroll(nl, frames)
	if err != nil {
		return nil, err
	}
	return newModel(nl, um, frames, unrolled)
}

// newModel compiles the model of source circuit nl over the model
// netlist mn: the search structures and the dual-rail twin program.
func newModel(nl *netlist.Netlist, um *netlist.UnrollMap, frames int, mn *netlist.Netlist) (*Model, error) {
	eng, err := newSearch(mn)
	if err != nil {
		return nil, err
	}
	tn, tm, err := netlist.TriExpand(mn)
	if err != nil {
		return nil, err
	}
	prog, err := netlist.Compile(tn)
	if err != nil {
		return nil, err
	}
	return &Model{nl: nl, um: um, frames: frames, eng: eng, tm: tm, prog: prog}, nil
}

// Frames returns the model's unroll depth (0 for combinational models).
func (m *Model) Frames() int { return m.frames }

// newRun builds one run's mutable state: a plane sized to the model
// netlist, pairs cursors on its lane pairs 0..pairs-1, and a W=1 machine
// on the twin program with its PI scratch. Runs write nothing else of
// the model, so one Model serves concurrent runs.
func (m *Model) newRun(pairs int) (*plane, []*cursor, *twin) {
	pl := newPlane(len(m.eng.nl.Gates))
	curs := make([]*cursor, pairs)
	for k := range curs {
		curs[k] = newCursor(pl, k)
	}
	return pl, curs, newTwin(m.eng.nl, m.tm, m.prog)
}

// Generate runs combinational PODEM with fault dropping over the model's
// circuit; see the package function Generate. The fault list defaults to
// all collapsed faults when nil.
func (m *Model) Generate(faults []faultsim.Fault, opts *Options) (*Report, error) {
	if m.frames != 0 {
		return nil, fmt.Errorf("atpg: %s is a sequential model; use GenerateSequential", m.nl.Name)
	}
	r, err := m.run(faults, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Detected: r.Detected, Redundant: r.Untestable, Aborted: r.Aborted,
		Backtracks: r.Backtracks, PodemCalls: r.PodemCalls, Total: r.Total}
	for _, test := range r.Tests {
		rep.Vectors = append(rep.Vectors, test[0])
	}
	return rep, nil
}

// run is the generation loop both kinds of model share: PODEM over every
// live target with fault dropping, reported as a SeqReport (a
// combinational model's tests are one pattern long).
//
// The drivers hand each target's outcome, in target-index order, to the
// one commit closure. It counts the outcome, fills a detected target's
// cube into a test and fault-simulates that test on the run's
// incremental drop-sim session, marking every target the test detects
// dead in alive; the drivers skip dead targets. A sequential target with
// no fault site inside the frame horizon resolves as Untestable without
// a search (packResult.noSearch). Workers == 1 selects the serial
// reference driver; every other setting the pack scheduler at the
// validated pack width, a single pair included. Either driver runs on
// search state newRun builds for this run alone.
func (m *Model) run(faults []faultsim.Fault, opts *Options) (*SeqReport, error) {
	o := opts.withDefaults(m.frames != 0)
	if faults == nil {
		faults = faultsim.Faults(m.nl)
	}
	sess, err := dropSimConfig(o.Options).New(m.nl, faults)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.FillSeed))
	rep := &SeqReport{Total: len(faults), Frames: m.frames}
	alive := make([]bool, len(faults))
	for i := range alive {
		alive[i] = true
	}
	resolved := 0
	sitesOf := func(t int) []netlist.FaultSite {
		if m.um == nil {
			return []netlist.FaultSite{faults[t].Site}
		}
		return m.um.SitesInFrames(m.nl, faults[t].Site)
	}
	commit := func(t int, r *packResult) error {
		if !r.noSearch {
			rep.PodemCalls++
			rep.Backtracks += r.backtracks
		}
		if r.noSearch || r.status != statusDetected {
			// No test: the session stops simulating the target's fault.
			if r.status == statusAborted {
				rep.Aborted++
			} else {
				rep.Untestable++
			}
			alive[t] = false
			resolved++
			if err := sess.Retire(t); err != nil {
				return err
			}
			o.Report(resolved, len(faults))
			return nil
		}
		test := m.fillTest(r.cube, rng)
		rep.Tests = append(rep.Tests, test)
		// One power-on test per target: the session keeps its fault
		// batches armed across tests, so detected lanes drop at the batch
		// level. On a combinational circuit AppendTest is Append.
		res, err := sess.AppendTest(test)
		if err != nil {
			return err
		}
		if res.FirstDetected[t] < 0 {
			// PODEM promised detection but simulation disagrees: the random
			// fill can only add detections, so this indicates an engine bug.
			return fmt.Errorf("atpg: test for %s did not detect its target", faults[t].Desc)
		}
		for fj := range faults {
			if alive[fj] && res.FirstDetected[fj] >= 0 {
				alive[fj] = false
				rep.Detected++
				resolved++
			}
		}
		o.Report(resolved, len(faults))
		return nil
	}
	if o.Serial() {
		_, curs, _ := m.newRun(1)
		err = m.serialRun(o.Options, o.MaxBacktracks, curs[0], alive, sitesOf, commit)
	} else {
		var pairs int
		if pairs, err = resolvePackPairs(o.PackPairs); err == nil {
			pl, curs, tw := m.newRun(pairs)
			err = m.packRun(o.Options, o.MaxBacktracks, pl, curs, tw, alive, sitesOf, commit)
		}
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// fillTest fills a detected target's PI cube into its test, one pattern
// per frame: the cube holds the circuit's PIs once per frame, frame-major
// (once for a combinational model).
func (m *Model) fillTest(cube []tri, rng *rand.Rand) []faultsim.Pattern {
	width := len(m.nl.PIs)
	test := make([]faultsim.Pattern, max(m.frames, 1))
	for f := range test {
		test[f] = fillCube(cube[f*width:(f+1)*width], rng)
	}
	return test
}

// --- drivers -----------------------------------------------------------------

// serialRun is the serial reference driver (Workers == 1): one
// interpreter search per live target on cursor c, committed as soon as
// it ends.
func (m *Model) serialRun(
	o engine.Options,
	maxBacktracks int,
	c *cursor,
	alive []bool,
	sitesOf func(t int) []netlist.FaultSite,
	commit func(t int, r *packResult) error,
) error {
	var r packResult
	for t := range alive {
		if !alive[t] {
			continue
		}
		if err := o.Cancelled(); err != nil {
			return fmt.Errorf("atpg: %w", err)
		}
		r = packResult{}
		if sites := sitesOf(t); len(sites) == 0 {
			r.noSearch = true
		} else {
			r.cube, r.backtracks, r.status = m.eng.podem(c, sites, maxBacktracks)
		}
		if err := commit(t, &r); err != nil {
			return err
		}
	}
	return nil
}

// --- pack scheduler ----------------------------------------------------------

// packResult is one target's outcome as the drivers hand it to the
// commit. The pack scheduler buffers it between the search's completion
// and the moment the commit pointer reaches its target. Searches are pure
// functions of (netlist, sites, MaxBacktracks) — they read nothing from
// the drop-sim session — so a speculatively completed result is exactly
// what the serial driver would have computed, and buffering it until its
// index-ordered turn preserves the engines' byte-identity.
type packResult struct {
	done       bool
	noSearch   bool // resolved without a search (sequential out-of-horizon targets)
	status     podemStatus
	backtracks int
	cube       []tri // detected targets only: a copy of the final PI cube
}

// packSlot binds one lane pair to its in-flight search.
type packSlot struct {
	target int
	cur    *cursor
	active bool
}

// packHorizonFactor bounds speculation: the scheduler never arms a
// target more than packHorizonFactor × pairs indices ahead of the commit
// pointer, which caps both the buffered-result memory and the searches
// wasted when an earlier target's committed test drops a speculated one.
const packHorizonFactor = 4

// packRun is the compiled driver: it runs one PODEM search per cursor,
// cursor k on lane pair k of the plane and of the twin machine tw, over
// the targets in lockstep rounds. Every round broadcasts
// one dual-rail machine pass, loads its rail words into the plane once,
// runs one D-frontier pass for every active pair, and advances each
// search by one decision. When a pair's search terminates
// its result is buffered and the pair immediately re-arms the next
// pending target (work stealing — searches backtrack at very different
// depths, so pairs turn over independently). Commits happen strictly in
// target-index order (see run); after each one the scheduler cancels
// any in-flight search whose target died, and it skips dead targets at
// both arm and commit time — exactly the targets the serial driver never
// searches.
func (m *Model) packRun(
	o engine.Options,
	maxBacktracks int,
	pl *plane,
	curs []*cursor,
	tw *twin,
	alive []bool,
	sitesOf func(t int) []netlist.FaultSite,
	commit func(t int, r *packResult) error,
) error {
	n := len(alive)
	slots := make([]packSlot, len(curs))
	for k := range slots {
		slots[k].cur = curs[k]
	}
	results := make([]packResult, n)
	horizon := len(curs) * packHorizonFactor
	next, commitAt, active := 0, 0, 0
	for commitAt < n {
		// Re-arm free pairs from the shared target queue, up to the
		// speculation horizon.
		for k := range slots {
			if slots[k].active {
				continue
			}
			for next < n && next < commitAt+horizon {
				t := next
				next++
				if !alive[t] || results[t].done {
					continue
				}
				sites := sitesOf(t)
				if len(sites) == 0 {
					results[t].done = true
					results[t].noSearch = true
					continue
				}
				slots[k].target = t
				slots[k].active = true
				slots[k].cur.arm(m.eng.nl, sites)
				tw.armPair(k, sites)
				active++
				break
			}
		}
		if err := o.Cancelled(); err != nil {
			return fmt.Errorf("atpg: %w", err)
		}
		if active > 0 {
			// One broadcast implication pass, one load and one frontier
			// pass serve every active search.
			var live uint64
			for k := range slots {
				if slots[k].active {
					tw.gather(slots[k].cur.assign, k)
					live |= slots[k].cur.bit
				}
			}
			tw.m.Eval(tw.pis)
			tw.load(pl)
			m.eng.frontier(pl, live)
			for k := range slots {
				if !slots[k].active {
					continue
				}
				done, status := m.eng.step(slots[k].cur, maxBacktracks)
				if !done {
					continue
				}
				t := slots[k].target
				r := &results[t]
				r.done = true
				r.status = status
				r.backtracks = slots[k].cur.backtracks
				if status == statusDetected {
					r.cube = append(r.cube[:0], slots[k].cur.assign...)
				}
				slots[k].active = false
				active--
				tw.clearPair(k)
			}
		}
		// Drain every committable target: detection order is defined by
		// target index, not completion time.
		for commitAt < n {
			t := commitAt
			if !alive[t] {
				commitAt++
				continue
			}
			if !results[t].done {
				break
			}
			if err := commit(t, &results[t]); err != nil {
				return err
			}
			commitAt++
			// The committed test may have dropped speculated targets:
			// cancel their searches so the pairs re-arm live work.
			for k := range slots {
				if slots[k].active && !alive[slots[k].target] {
					slots[k].active = false
					active--
					tw.clearPair(k)
				}
			}
		}
	}
	return nil
}
