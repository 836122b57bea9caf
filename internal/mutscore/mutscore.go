// Package mutscore measures test-set quality against a mutant population:
// killed/live classification, the mutation score MS = K / (M - E), and the
// budgeted-campaign estimate of the equivalent-mutant count E.
//
// Mutant simulation is embarrassingly parallel. The default engine runs
// the programs a tpg.Session compiled for the population and scores one
// mutant machine per job on a worker pool, each stopping at its first
// divergence from a shared good-circuit trace; Config.Workers sizes the
// pool, and a flow compiles its population once, for test generation
// and scoring alike. Workers == 1 selects the serial AST interpreter,
// the reference the compiled engine is differentially tested against —
// both produce identical results (see parity_test.go).
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
// the Workers semantics, the progress hook and cancellation):
// Workers == 1 selects the serial interpreter reference, and the
// progress hook counts mutants scored on either engine. Results are
// identical for every setting (see parity_test.go).
type Config struct {
	engine.Options
}

// Scorer scores one session's mutant population against arbitrary
// sequences. Every method funnels into firstKill, the one place that
// picks the engine. The compiled engine runs the session's programs on
// execution state of its own — one machine per mutant, the good machine
// and its trace buffer — built on first use and recycled across calls,
// so callers that score repeatedly (strategy evaluation, equivalence
// campaigns) allocate per campaign, not per sequence, and the session's
// campaigns never see the scorer's machine state. A Scorer is safe for
// sequential reuse only (its scratch is unsynchronized); methods are
// deterministic for every worker count.
type Scorer struct {
	cfg     Config
	c       *hdl.Circuit
	mutants []*mutation.Mutant
	good    *sim.Program   // the session's; unused on the serial reference
	progs   []*sim.Program // the session's; unused on the serial reference

	// Session-owned scratch (see internal/engine: the session owns its
	// scratch; results handed to callers stay freshly allocated).
	goodM    *sim.Machine   // good-trace machine, reused across calls
	goodOuts []sim.Vector   // good trace rows, reused across calls
	machines []*sim.Machine // per-mutant machines, armed lazily
	subM     []*sim.Machine // subset-call machine selection scratch
}

// NewScorer builds a scorer for the session's population (ts.Targets()).
// It compiles nothing: the compiled engine runs the session's programs.
// Under the serial reference (Workers == 1) every call runs the
// interpreter on the session's circuit and targets instead.
func (cfg Config) NewScorer(ts *tpg.Session) *Scorer {
	good, progs := ts.Programs()
	return &Scorer{cfg: cfg, c: good.Circuit(), mutants: ts.Targets(), good: good, progs: progs}
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
// every other setting runs the compiled scoring pool.
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
// sequence — and flags as *probably equivalent* every mutant that it did
// not kill. True equivalence is undecidable in general; the paper's E term
// is approximated this way, with the budget as the knob. Narrow scores
// further sequences against the flags it returns.
func (s *Scorer) EstimateEquivalence(opts *EquivalenceOptions) ([]bool, error) {
	o := EquivalenceOptions{Budget: 2048}
	if opts != nil {
		if opts.Budget > 0 {
			o.Budget = opts.Budget
		}
		o.Seed = opts.Seed
	}
	equivalent := make([]bool, len(s.mutants))
	for i := range equivalent {
		equivalent[i] = true
	}
	if err := s.Narrow(equivalent, tpg.RandomSequence(s.c, o.Budget, o.Seed)); err != nil {
		return nil, err
	}
	return equivalent, nil
}

// Narrow scores seq against the mutants still flagged in equivalent, in
// ascending index order, and clears the flag of every one it kills. An
// empty sequence or an empty flagged set scores nothing. It lets a
// caller add a sequence to EstimateEquivalence's campaign once the
// sequence exists: each added sequence scores only the mutants every
// earlier one left alive.
func (s *Scorer) Narrow(equivalent []bool, seq sim.Sequence) error {
	if len(equivalent) != len(s.mutants) {
		return fmt.Errorf("mutscore: %d equivalence flags for %d mutants", len(equivalent), len(s.mutants))
	}
	var live []int
	for i, eq := range equivalent {
		if eq {
			live = append(live, i)
		}
	}
	if len(seq) == 0 || len(live) == 0 {
		return nil
	}
	if err := s.cfg.Cancelled(); err != nil {
		return fmt.Errorf("mutscore: %w", err)
	}
	cycles, err := s.firstKill(live, seq)
	if err != nil {
		return err
	}
	for i, cy := range cycles {
		if cy >= 0 {
			equivalent[live[i]] = false
		}
	}
	return nil
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
