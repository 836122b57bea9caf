// Package mutscore measures test-set quality against a mutant population:
// killed/live classification, the mutation score MS = K / (M - E), and the
// budgeted-campaign estimate of the equivalent-mutant count E.
//
// Mutant simulation is embarrassingly parallel. The default engine
// compiles every circuit once (sim.Compile) and scores lane batches of
// LaneWords×64 mutants in lockstep on a worker pool, with early-kill
// dropping against a shared good-circuit trace; Config.Workers sizes the
// pool, Config.LaneWords the batches, and a Scorer carries the
// compilation across calls so campaigns don't recompile. Workers == 1
// selects the serial AST interpreter, the reference the compiled engine
// is differentially tested against — both produce identical results (see
// parity_test.go).
package mutscore

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
	"repro/internal/tpg"
)

// Config tunes mutant scoring. The zero value is the fast default. The
// execution knobs are the shared engine surface (see engine.Options for
// the Workers/LaneWords semantics, the progress hook and cancellation):
// Workers == 1 selects the serial interpreter reference, and LaneWords
// sizes the compiled engine's lockstep scoring batches (0 selects
// lane.DefaultWords). Results are identical for every setting (see
// parity_test.go).
type Config struct {
	engine.Options
}

// Scorer scores one mutant population against arbitrary sequences.
// Every method funnels into firstKill, the one place that picks the
// engine. The compiled engine's programs are built once at construction,
// and the execution state — one machine per mutant, the good machine and
// its trace buffer — is built on first use and recycled across calls, so
// callers that score repeatedly (strategy evaluation, equivalence
// campaigns) allocate per campaign, not per sequence. A Scorer is safe
// for sequential reuse only (its scratch is unsynchronized); methods are
// deterministic for every worker count.
type Scorer struct {
	cfg     Config
	c       *hdl.Circuit
	mutants []*mutation.Mutant
	good    *sim.Program   // nil on the serial reference
	progs   []*sim.Program // nil on the serial reference

	// Session-owned scratch (see internal/engine: the session owns its
	// scratch; results handed to callers stay freshly allocated).
	goodM    *sim.Machine   // good-trace machine, reused across calls
	goodOuts []sim.Vector   // good trace rows, reused across calls
	machines []*sim.Machine // per-mutant machines, armed lazily
	subM     []*sim.Machine // subset-call machine selection scratch
}

// NewScorer builds a scorer for the population. Under the serial
// reference (Workers == 1) no compilation happens and every call runs the
// interpreter.
func (cfg Config) NewScorer(c *hdl.Circuit, mutants []*mutation.Mutant) (*Scorer, error) {
	if _, err := cfg.Lanes(); err != nil {
		return nil, fmt.Errorf("mutscore: %w", err)
	}
	s := &Scorer{cfg: cfg, c: c, mutants: mutants}
	if cfg.Serial() {
		return s, nil
	}
	good, err := sim.Compile(c)
	if err != nil {
		return nil, err
	}
	cs := make([]*hdl.Circuit, len(mutants))
	for i, m := range mutants {
		cs[i] = m.Circuit
	}
	progs, err := sim.CompileBatch(cs, cfg.Workers)
	if err != nil {
		return nil, s.wrapBatchErr(err, nil)
	}
	s.good, s.progs = good, progs
	return s, nil
}

// wrapBatchErr attaches the failing mutant's identity to a pool error.
// idx maps batch positions back to population indices for subset runs.
func (s *Scorer) wrapBatchErr(err error, idx []int) error {
	var be *sim.BatchError
	if !errors.As(err, &be) {
		return err
	}
	mi := be.Index
	if idx != nil {
		mi = idx[be.Index]
	}
	return fmt.Errorf("mutscore: mutant %d (%s): %w", mi, s.mutants[mi].Desc, be.Err)
}

// goodTrace refreshes the scorer's reusable good-circuit trace for the
// sequence; the rows are session scratch, valid until the next call.
func (s *Scorer) goodTrace(seq sim.Sequence) ([]sim.Vector, error) {
	if s.goodM == nil {
		s.goodM = s.good.NewMachine()
	}
	outs, err := s.goodM.RunInto(seq, s.goodOuts)
	if err != nil {
		return nil, err
	}
	s.goodOuts = outs
	return outs, nil
}

// allMachines returns the scorer's per-mutant machine set, arming it on
// first use (one machine per compiled program, recycled across calls).
func (s *Scorer) allMachines() []*sim.Machine {
	if s.machines == nil {
		s.machines = make([]*sim.Machine, len(s.progs))
		for i, p := range s.progs {
			s.machines[i] = p.NewMachine()
		}
	}
	return s.machines
}

// FirstKillCycles runs every mutant against the sequence and returns, per
// mutant, the first cycle whose outputs differ from the original's, or -1
// if the sequence never distinguishes it.
func (s *Scorer) FirstKillCycles(seq sim.Sequence) ([]int, error) {
	return s.firstKill(nil, seq)
}

// Kills classifies each mutant as killed (true) or live under the sequence.
func (s *Scorer) Kills(seq sim.Sequence) ([]bool, error) {
	cycles, err := s.FirstKillCycles(seq)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(cycles))
	for i, cy := range cycles {
		out[i] = cy >= 0
	}
	return out, nil
}

// firstKill returns FirstKillCycles for the mutants listed in idx, in idx
// order (nil lists the whole population), so a campaign can drop mutants
// it already killed. Workers == 1 runs the serial interpreter reference;
// every other setting runs the compiled lockstep pool.
func (s *Scorer) firstKill(idx []int, seq sim.Sequence) ([]int, error) {
	if s.cfg.Serial() {
		return s.firstKillSerial(idx, seq)
	}
	goodOuts, err := s.goodTrace(seq)
	if err != nil {
		return nil, err
	}
	machines := s.allMachines()
	if idx != nil {
		s.subM = engine.Grow(s.subM, len(idx))
		for i, mi := range idx {
			s.subM[i] = machines[mi]
		}
		machines = s.subM
	}
	cycles, err := sim.FirstKillBatchMachines(machines, seq, goodOuts, s.cfg.Options)
	if err != nil {
		return nil, s.wrapBatchErr(err, idx)
	}
	return cycles, nil
}

// EstimateEquivalence runs a budgeted campaign — a long pseudo-random
// sequence plus any caller-provided sequences — and flags as *probably
// equivalent* every mutant that nothing killed. True equivalence is
// undecidable in general; the paper's E term is approximated this way,
// with the budget as the knob. Each campaign sequence scores only the
// mutants every earlier one left alive.
func (s *Scorer) EstimateEquivalence(extra []sim.Sequence, opts *EquivalenceOptions) ([]bool, error) {
	o := EquivalenceOptions{Budget: 2048}
	if opts != nil {
		if opts.Budget > 0 {
			o.Budget = opts.Budget
		}
		o.Seed = opts.Seed
	}
	equivalent := make([]bool, len(s.mutants))
	live := make([]int, len(s.mutants))
	for i := range live {
		equivalent[i] = true
		live[i] = i
	}
	campaign := append([]sim.Sequence{tpg.RandomSequence(s.c, o.Budget, o.Seed)}, extra...)
	for _, seq := range campaign {
		if len(seq) == 0 || len(live) == 0 {
			continue
		}
		if err := s.cfg.Cancelled(); err != nil {
			return nil, fmt.Errorf("mutscore: %w", err)
		}
		cycles, err := s.firstKill(live, seq)
		if err != nil {
			return nil, err
		}
		still := live[:0]
		for i, cy := range cycles {
			if cy >= 0 {
				equivalent[live[i]] = false
			} else {
				still = append(still, live[i])
			}
		}
		live = still
	}
	return equivalent, nil
}

// --- serial reference -------------------------------------------------------

// firstKillSerial is the original engine: one AST-walking interpreter run
// per listed mutant, strictly sequential. It is the reference the
// compiled pool is differentially tested against.
func (s *Scorer) firstKillSerial(idx []int, seq sim.Sequence) ([]int, error) {
	origSim, err := sim.New(s.c)
	if err != nil {
		return nil, err
	}
	origOuts, err := origSim.Run(seq)
	if err != nil {
		return nil, err
	}
	if idx == nil {
		idx = make([]int, len(s.mutants))
		for i := range idx {
			idx[i] = i
		}
	}
	out := make([]int, len(idx))
	for i, mi := range idx {
		if err := s.cfg.Cancelled(); err != nil {
			return nil, fmt.Errorf("mutscore: %w", err)
		}
		m := s.mutants[mi]
		cy, err := firstKillInterpreted(m, seq, origOuts)
		if err != nil {
			return nil, fmt.Errorf("mutscore: mutant %d (%s): %w", mi, m.Desc, err)
		}
		out[i] = cy
		s.cfg.Report(i+1, len(idx))
	}
	return out, nil
}

func firstKillInterpreted(m *mutation.Mutant, seq sim.Sequence, origOuts []sim.Vector) (int, error) {
	ms, err := sim.New(m.Circuit)
	if err != nil {
		return -1, err
	}
	ms.Reset()
	for cyc, v := range seq {
		got, err := ms.Step(v)
		if err != nil {
			return -1, err
		}
		for j := range got {
			if !got[j].Equal(origOuts[cyc][j]) {
				return cyc, nil
			}
		}
	}
	return -1, nil
}

// --- scoring -----------------------------------------------------------------

// Score computes the mutation score MS = K / (M - E). Mutants flagged
// equivalent are excluded from the denominator; a killed mutant is never
// counted equivalent (the caller's equivalence estimate must already
// satisfy that, and Score enforces it defensively).
func Score(killed, equivalent []bool) float64 {
	if len(killed) != len(equivalent) {
		panic(fmt.Sprintf("mutscore: %d kill flags for %d equivalence flags", len(killed), len(equivalent)))
	}
	k, e := 0, 0
	for i := range killed {
		switch {
		case killed[i]:
			k++
		case equivalent[i]:
			e++
		}
	}
	denom := len(killed) - e
	if denom <= 0 {
		return 0
	}
	return float64(k) / float64(denom)
}

// EquivalenceOptions tunes the probable-equivalence campaign.
type EquivalenceOptions struct {
	// Budget is the number of random campaign cycles. Default 2048.
	Budget int
	// Seed drives the campaign stimulus.
	Seed int64
}
