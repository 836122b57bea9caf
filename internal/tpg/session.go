package tpg

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
)

// Session owns one circuit's compiled test-generation state across runs:
// the original's compiled machine and one compiled machine per mutant of
// the population. Construction pays for compilation exactly once;
// Generate then runs any number of independent generation campaigns —
// over the whole population or any subset, with per-run seeds, modes and
// limits — without recompiling anything. That is the shape the flow
// experiments need (the same population is targeted over and over with
// different samples, seeds and disciplines) and what the one-shot
// MutationTests API forced them to recompile every time.
//
// A Session is not safe for concurrent use; run one campaign at a time
// (Fork gives a second goroutine a session of its own).
type Session struct {
	c       *hdl.Circuit
	mutants []*mutation.Mutant
	opts    Options // session defaults, withDefaults applied
	segLen  int     // cycles per candidate segment

	orig     *sim.Machine
	machines []*sim.Machine // one per population mutant
	maxOuts  int            // widest output vector across orig and mutants

	sc sessScratch
}

// sessScratch is the session's reusable campaign scratch, following the
// buffer-ownership discipline of internal/engine: the session owns these
// buffers, recycles them across candidate rounds and campaigns, and
// copies anything that escapes into a Result (accepted segment vectors),
// so callers still own everything a Generate returns. Without the
// recycling, every candidate round allocated fresh segments, step
// outputs and register snapshots — the dominant allocation source of a
// campaign by two orders of magnitude.
type sessScratch struct {
	segs     []sim.Sequence // candidate segments, one buffer per candidate slot
	origOuts []sim.Vector   // original's outputs over the candidate being scored
	snapOrig []bitvec.BV    // original's register snapshot (candidate probe)
	snapMut  []bitvec.BV    // a mutant's register snapshot (candidate probe)
	want     sim.Vector     // original's step output (stepAll)
	got      sim.Vector     // a mutant's step output (stepAll, segKills)
}

// NewSession compiles the circuit and the whole mutant population under
// the session options (engine.Options.Workers sizes the compilation
// pool; Mode/Seed/limits become the defaults a nil-opts Generate runs
// with).
func NewSession(c *hdl.Circuit, mutants []*mutation.Mutant, opts *Options) (*Session, error) {
	s := &Session{
		c:       c,
		mutants: mutants,
		opts:    opts.withDefaults(),
		segLen:  1,
	}
	if len(c.Regs) > 0 || len(c.AssignedSignals(hdl.Seq)) > 0 {
		s.segLen = seqSegmentLen
	}
	origProg, err := sim.Compile(c)
	if err != nil {
		return nil, err
	}
	s.orig = origProg.NewMachine()
	cs := make([]*hdl.Circuit, len(mutants))
	for i, m := range mutants {
		cs[i] = m.Circuit
	}
	progs, err := sim.CompileBatch(cs, s.opts.Workers)
	if err != nil {
		var be *sim.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("tpg: mutant %d: %w", be.Index, be.Err)
		}
		return nil, fmt.Errorf("tpg: %w", err)
	}
	s.machines = make([]*sim.Machine, len(progs))
	s.maxOuts = origProg.NumOutputs()
	for i, p := range progs {
		s.machines[i] = p.NewMachine()
		s.maxOuts = max(s.maxOuts, p.NumOutputs())
	}
	return s, nil
}

// Fork returns a session over the same population that shares s's
// compiled programs and its mutant machines, but owns a fresh original
// machine and its own campaign scratch. A campaign steps only the
// original and its targets' machines, so s and its forks may run
// campaigns at the same time over disjoint target selections.
//
// A mutant machine's history carries over between campaigns, on s and
// its forks alike: Machine.Reset restores registers only, so an output
// a mutant leaves unassigned on some path keeps its value from the
// machine's previous campaign. Campaigns split across s and its forks
// therefore reproduce a serial run on s when every machine runs its
// campaigns in the serial order. The fork's fresh original behaves
// exactly like s's when the circuit passed hdl.Check(Strict), which
// assigns every output on every path: the original then carries
// register state only, which Generate resets.
func (s *Session) Fork() *Session {
	return &Session{
		c:        s.c,
		mutants:  s.mutants,
		opts:     s.opts,
		segLen:   s.segLen,
		orig:     s.orig.Program().NewMachine(),
		machines: s.machines,
		maxOuts:  s.maxOuts,
	}
}

// Targets returns the mutant population compiled into the session.
func (s *Session) Targets() []*mutation.Mutant { return s.mutants }

// Programs returns the session's compiled original and one compiled
// program per Targets() mutant, in Targets order, so other engines can
// run the population without compiling it again. Programs are immutable:
// a caller builds its own machines from them and never steps the
// session's.
func (s *Session) Programs() (*sim.Program, []*sim.Program) {
	progs := make([]*sim.Program, len(s.machines))
	for i, m := range s.machines {
		progs[i] = m.Program()
	}
	return s.orig.Program(), progs
}

// liveMutant tracks one target mutant's machine during generation.
type liveMutant struct {
	idx int // position in the run's target selection (Killed index)
	sim *sim.Machine
}

// Generate runs one full mutation-driven generation campaign over the
// population subset selected by targets (indices into Targets(); nil
// selects the whole population) and returns its result, with Killed
// indexed like the selection. opts overrides the session defaults for
// this run (nil runs the defaults); compilation is never repeated, so
// per-run options are free. The result is bit-identical to what
// MutationTests returns for the same selection and options — the parity
// is pinned by the session tests.
func (s *Session) Generate(targets []int, opts *Options) (*Result, error) {
	o := s.opts
	if opts != nil {
		o = opts.withDefaults()
	}
	if targets == nil {
		targets = make([]int, len(s.mutants))
		for i := range targets {
			targets[i] = i
		}
	} else {
		seen := make([]bool, len(s.mutants))
		for _, mi := range targets {
			if mi < 0 || mi >= len(s.mutants) {
				return nil, fmt.Errorf("tpg: target index %d out of range [0,%d)", mi, len(s.mutants))
			}
			// A duplicate would alias one compiled machine across two
			// campaign slots and double-step it — reject it like
			// faultsim.RunOn rejects duplicate fault indices.
			if seen[mi] {
				return nil, fmt.Errorf("tpg: target index %d listed twice", mi)
			}
			seen[mi] = true
		}
	}
	r := &genRun{s: s, o: o, rng: rand.New(rand.NewSource(o.Seed))}
	return r.generate(targets)
}

// genRun is one in-progress generation campaign: the run options, the
// RNG, the live target set and the growing result. Its buffers live on
// the session (sessScratch), so consecutive campaigns recycle them.
type genRun struct {
	s     *Session
	o     Options
	rng   *rand.Rand
	all   []*liveMutant
	res   *Result
	ins   []*hdl.Port
	nOuts int // original's output count (mutants share the port list)
}

func (r *genRun) generate(targets []int) (*Result, error) {
	s := r.s
	if err := r.cancelled(); err != nil {
		return nil, err
	}
	r.all = make([]*liveMutant, 0, len(targets))
	for i, mi := range targets {
		r.all = append(r.all, &liveMutant{idx: i, sim: s.machines[mi]})
	}
	r.res = &Result{Killed: make([]bool, len(targets))}
	r.ins = s.c.Inputs()
	r.nOuts = s.orig.Program().NumOutputs()
	s.sc.want = engine.Grow(s.sc.want, r.nOuts)
	s.sc.got = engine.Grow(s.sc.got, s.maxOuts)

	// Cycle 0: reset vector, applied to everything.
	resetVec := make(sim.Vector, len(r.ins))
	for i, p := range r.ins {
		if p.Name == ResetInputName {
			resetVec[i] = bitvec.New(1, p.Width)
		} else {
			resetVec[i] = bitvec.Zero(p.Width)
		}
	}
	s.orig.Reset()
	for _, lm := range r.all {
		lm.sim.Reset()
	}
	if err := r.stepAll(resetVec); err != nil {
		return nil, err
	}
	r.res.Seq = append(r.res.Seq, resetVec)

	// Every target gets a dedicated search for a killing segment from
	// the current stream state, whether or not an earlier segment killed
	// it collaterally (PerMutantSkip skips those). Candidates are first
	// screened against the target alone (cheap); only qualifying
	// segments pay for full collateral scoring (used as the tie-break).
	for ti := range targets {
		if len(r.res.Seq) >= r.o.MaxLen {
			break
		}
		if r.o.Mode == PerMutantSkip && r.res.Killed[ti] {
			r.o.Report(ti+1, len(targets))
			continue
		}
		target := r.all[ti]
		found := false
		for round := 0; round < maxStall && !found && len(r.res.Seq) < r.o.MaxLen; round++ {
			if err := r.cancelled(); err != nil {
				return nil, err
			}
			r.res.Rounds++
			var bestSeg sim.Sequence
			bestKills := -1
			for ci := 0; ci < candidates; ci++ {
				seg := r.newSegment(ci)
				origOuts, err := r.origOutputs(seg)
				if err != nil {
					return nil, err
				}
				hits, err := r.segKills(target, seg, origOuts)
				if err != nil {
					return nil, err
				}
				if !hits {
					continue
				}
				kills, err := r.scoreCandidate(seg, origOuts)
				if err != nil {
					return nil, err
				}
				if kills > bestKills {
					bestSeg, bestKills = seg, kills
				}
			}
			if bestSeg != nil {
				if err := r.appendSegment(bestSeg); err != nil {
					return nil, err
				}
				found = true
			}
		}
		r.o.Report(ti+1, len(targets))
	}
	return r.res, nil
}

func (r *genRun) cancelled() error {
	if err := r.o.Cancelled(); err != nil {
		return fmt.Errorf("tpg: %w", err)
	}
	return nil
}

// stepAll advances the original and every target simulator (killed
// targets keep stepping so later dedicated segments see true state).
// Outputs land in session scratch; only the kill flags escape. stepAll
// is one machine cycle — //repro:step, so the campaign loop above it
// carries the Ctx polling obligation.
//
//repro:step
func (r *genRun) stepAll(v sim.Vector) error {
	sc := &r.s.sc
	want := sc.want[:r.nOuts]
	if err := r.s.orig.StepInto(v, want); err != nil {
		return err
	}
	for _, lm := range r.all {
		got := sc.got[:lm.sim.Program().NumOutputs()]
		if err := lm.sim.StepInto(v, got); err != nil {
			return err
		}
		if vectorsDiffer(want, got) {
			r.res.Killed[lm.idx] = true
		}
	}
	return nil
}

// fillRand overwrites v with one cycle of pseudo-random stimulus (reset
// held low). The RNG draw order matches the pre-scratch randVec exactly —
// one Uint64 per non-reset input, in declaration order — which keeps
// generated sequences bit-identical across the buffer recycling.
func (r *genRun) fillRand(v sim.Vector) {
	for i, p := range r.ins {
		if p.Name == ResetInputName {
			v[i] = bitvec.Zero(p.Width)
			continue
		}
		v[i] = bitvec.New(r.rng.Uint64(), p.Width)
	}
}

// origOutputs simulates a candidate segment on the original from the
// current state (restored afterwards) and returns its outputs. The rows
// are session scratch, valid until the next candidate is scored. The
// run is bounded by one candidate segment (//repro:step).
//
//repro:step
func (r *genRun) origOutputs(seg sim.Sequence) ([]sim.Vector, error) {
	sc := &r.s.sc
	sc.snapOrig = r.s.orig.SnapshotInto(sc.snapOrig)
	outs := engine.Grow(sc.origOuts, len(seg))
	sc.origOuts = outs
	for k, v := range seg {
		outs[k] = engine.Grow(outs[k], r.nOuts)
		if err := r.s.orig.StepInto(v, outs[k]); err != nil {
			return nil, err
		}
	}
	r.s.orig.Restore(sc.snapOrig)
	return outs, nil
}

// segKills simulates the segment on one live mutant (state restored)
// and reports whether its outputs diverge from the original's. Bounded
// by one candidate segment (//repro:step).
//
//repro:step
func (r *genRun) segKills(lm *liveMutant, seg sim.Sequence, origOuts []sim.Vector) (bool, error) {
	sc := &r.s.sc
	sc.snapMut = lm.sim.SnapshotInto(sc.snapMut)
	defer lm.sim.Restore(sc.snapMut)
	got := sc.got[:lm.sim.Program().NumOutputs()]
	for k, v := range seg {
		if err := lm.sim.StepInto(v, got); err != nil {
			return false, err
		}
		if vectorsDiffer(origOuts[k], got) {
			return true, nil
		}
	}
	return false, nil
}

// scoreCandidate counts fresh (still-live) kills for a candidate.
// Bounded by one candidate over the live mutants (//repro:step).
//
//repro:step
func (r *genRun) scoreCandidate(seg sim.Sequence, origOuts []sim.Vector) (int, error) {
	kills := 0
	for _, lm := range r.all {
		if r.res.Killed[lm.idx] {
			continue
		}
		k, err := r.segKills(lm, seg, origOuts)
		if err != nil {
			return 0, err
		}
		if k {
			kills++
		}
	}
	return kills, nil
}

// newSegment fills candidate slot ci's reusable segment buffer with
// fresh random cycles. The returned sequence stays valid for the whole
// round (each candidate has its own slot), then gets overwritten.
func (r *genRun) newSegment(ci int) sim.Sequence {
	segLen := min(r.s.segLen, r.o.MaxLen-len(r.res.Seq))
	sc := &r.s.sc
	sc.segs = engine.Grow(sc.segs, candidates)
	seg := engine.Grow(sc.segs[ci], segLen)
	sc.segs[ci] = seg
	for k := range seg {
		seg[k] = engine.Grow(seg[k], len(r.ins))
		r.fillRand(seg[k])
	}
	return seg
}

// appendSegment commits an accepted segment: the original and every
// target machine advance through it and the sequence grows (by copies —
// the candidate buffer is round scratch, the result is caller-owned).
// Bounded by one accepted segment (//repro:step).
//
//repro:step
func (r *genRun) appendSegment(seg sim.Sequence) error {
	for _, v := range seg {
		if err := r.stepAll(v); err != nil {
			return err
		}
		r.res.Seq = append(r.res.Seq, append(sim.Vector(nil), v...))
	}
	r.res.Segments = append(r.res.Segments, len(r.res.Seq))
	return nil
}
