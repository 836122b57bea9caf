package atpg

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// SeqOptions tunes sequential ATPG.
type SeqOptions struct {
	// Frames is the time-frame expansion depth: each test is a sequence of
	// this many cycles applied from power-on. Default 8. A Model carries
	// its own depth; passing a different non-zero Frames to a model run is
	// an error.
	Frames int
	// MaxBacktracks bounds the PODEM search per fault. The sequential
	// default is 1024 (lower than combinational ATPG's 4096): most of the
	// budget is burned proving faults undetectable within the frame
	// horizon, where a deeper search rarely changes the verdict.
	MaxBacktracks int
	// FillSeed seeds random fill of don't-care positions.
	FillSeed int64
	// PackPairs sets the pack scheduler's width, with the same contract
	// as Options.PackPairs: 0 picks 32 pairs, 1..32 an explicit width,
	// anything else is rejected, and Workers == 1 ignores it.
	PackPairs int
	// Options is the shared engine surface, with the same semantics as
	// atpg.Options: Workers == 1 is the serial reference (three-valued
	// interpreter implications, faultsim's single-fault reference engine
	// as the drop-sim session), anything else the pack scheduler on the
	// compiled dual-rail twin. Either way fault dropping runs through an
	// incremental reset-per-test drop-sim session. Results are identical
	// for every setting.
	engine.Options
}

func (o *SeqOptions) withDefaults() SeqOptions {
	out := SeqOptions{Frames: 8, MaxBacktracks: 1024}
	if o != nil {
		if o.Frames > 0 {
			out.Frames = o.Frames
		}
		if o.MaxBacktracks > 0 {
			out.MaxBacktracks = o.MaxBacktracks
		}
		out.FillSeed = o.FillSeed
		out.PackPairs = o.PackPairs
		out.Options = o.Options
	}
	return out
}

// SeqReport summarizes a sequential ATPG run. Each test is a short input
// sequence applied from power-on state (the application discipline is
// "reset between tests").
type SeqReport struct {
	Tests      [][]faultsim.Pattern // one sequence per generated test
	Detected   int
	Untestable int // redundant within the frame horizon (may be testable deeper)
	Aborted    int
	Backtracks int
	PodemCalls int
	Total      int
	Frames     int
}

// Coverage returns Detected / Total.
func (r *SeqReport) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// TotalCycles returns the summed length of all generated tests.
func (r *SeqReport) TotalCycles() int {
	n := 0
	for _, t := range r.Tests {
		n += len(t)
	}
	return n
}

// GenerateSequential runs time-frame-expansion ATPG on a sequential
// netlist: the circuit is unrolled into a fixed number of combinational
// frames (frame 0 holding the power-on state), each fault is injected
// into every frame copy, and PODEM searches for a PI assignment across
// frames — i.e., an input sequence — that propagates the fault to some
// frame's outputs. Faults the search proves undetectable are only
// undetectable *within the horizon* and are reported as Untestable rather
// than redundant. It compiles a fresh model per call; use
// NewSequentialModel when several runs share a (netlist, depth) pair.
func GenerateSequential(nl *netlist.Netlist, faults []faultsim.Fault, opts *SeqOptions) (*SeqReport, error) {
	o := opts.withDefaults()
	m, err := NewSequentialModel(nl, o.Frames)
	if err != nil {
		return nil, err
	}
	return m.GenerateSequential(faults, opts)
}

// GenerateSequential runs sequential ATPG on the model's circuit at the
// model's unroll depth; see the package function. The fault list defaults
// to all collapsed faults when nil.
func (m *Model) GenerateSequential(faults []faultsim.Fault, opts *SeqOptions) (*SeqReport, error) {
	if m.frames == 0 {
		return nil, fmt.Errorf("atpg: %s is a combinational model; use Generate", m.nl.Name)
	}
	if opts != nil && opts.Frames > 0 && opts.Frames != m.frames {
		return nil, fmt.Errorf("atpg: model unrolled to %d frames, options ask for %d", m.frames, opts.Frames)
	}
	o := opts.withDefaults()
	o.Frames = m.frames
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
	retire := func(fi int) error {
		alive[fi] = false
		resolved++
		if err := sess.Retire(fi); err != nil {
			return err
		}
		o.Report(resolved, len(faults))
		return nil
	}
	// Targets whose fault sites all fall outside the frame horizon
	// resolve as Untestable without a search.
	sitesOf := func(t int) []netlist.FaultSite {
		return m.um.SitesInFrames(m.nl, faults[t].Site)
	}
	// commit is the one place a target's outcome enters the report and
	// the drop-sim session; both drivers call it in target-index order.
	// Each generated test is an AppendTest on the reset-per-test session,
	// so fault batches stay armed across targets and detected lanes drop
	// at the batch level; targets resolved without a test retire theirs.
	commit := func(t int, r *packResult) error {
		if r.noSearch {
			rep.Untestable++
			return retire(t)
		}
		rep.PodemCalls++
		rep.Backtracks += r.backtracks
		if r.status != statusDetected {
			if r.status == statusRedundant {
				rep.Untestable++
			} else {
				rep.Aborted++
			}
			return retire(t)
		}
		test := m.sliceTest(r.cube, rng)
		rep.Tests = append(rep.Tests, test)
		res, err := sess.AppendTest(test)
		if err != nil {
			return err
		}
		if res.FirstDetected[t] < 0 {
			// PODEM promised detection but simulation disagrees: the random
			// fill can only add detections, so this indicates an engine bug.
			return fmt.Errorf("atpg: sequential test for %s did not detect its target", faults[t].Desc)
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
	if err := m.drive(o.Options, o.PackPairs, o.MaxBacktracks, alive, sitesOf, commit); err != nil {
		return nil, err
	}
	return rep, nil
}

// sliceTest carves the frame-major PI cube into one filled pattern per
// cycle.
func (m *Model) sliceTest(cube []tri, rng *rand.Rand) []faultsim.Pattern {
	test := make([]faultsim.Pattern, m.frames)
	for f := 0; f < m.frames; f++ {
		test[f] = fillCube(cube[f*m.um.PIsPerFrame:(f+1)*m.um.PIsPerFrame], rng)
	}
	return test
}

// RunTestSet fault-simulates a set of power-on test sequences and returns
// the union coverage over the given fault list, driving one incremental
// reset-per-test session so already-detected faults are never
// re-simulated.
func RunTestSet(nl *netlist.Netlist, faults []faultsim.Fault, tests [][]faultsim.Pattern) (float64, error) {
	if len(faults) == 0 {
		return 0, nil
	}
	fs, err := faultsim.New(nl, faults)
	if err != nil {
		return 0, err
	}
	detected := 0
	for _, t := range tests {
		if detected == len(faults) {
			break
		}
		res, err := fs.AppendTest(t)
		if err != nil {
			return 0, err
		}
		detected = res.DetectedCount()
	}
	return float64(detected) / float64(len(faults)), nil
}
