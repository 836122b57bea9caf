package atpg

import (
	"fmt"

	"repro/internal/faultsim"
	"repro/internal/netlist"
)

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
// netlist: the circuit is unrolled into frames combinational frames
// (frame 0 holding the power-on state; NewSequentialModel picks the
// depth when frames <= 0), each fault is injected into every frame copy,
// and PODEM searches for a PI assignment across frames — i.e., an input
// sequence — that propagates the fault to some frame's outputs. Faults
// the search proves undetectable are only undetectable *within the
// horizon* and are reported as Untestable rather than redundant. It
// compiles a fresh model per call; use NewSequentialModel when several
// runs share a (netlist, depth) pair.
func GenerateSequential(nl *netlist.Netlist, frames int, faults []faultsim.Fault, opts *Options) (*SeqReport, error) {
	m, err := NewSequentialModel(nl, frames)
	if err != nil {
		return nil, err
	}
	return m.GenerateSequential(faults, opts)
}

// GenerateSequential runs sequential ATPG on the model's circuit at the
// model's unroll depth; see the package function. The fault list defaults
// to all collapsed faults when nil.
func (m *Model) GenerateSequential(faults []faultsim.Fault, opts *Options) (*SeqReport, error) {
	if m.frames == 0 {
		return nil, fmt.Errorf("atpg: %s is a combinational model; use Generate", m.nl.Name)
	}
	return m.run(faults, opts)
}
