// Package core implements the paper's contribution: the test-oriented
// mutation sampling flow. It wires the substrates together —
//
//	behavioral circuit ──mutation──► mutants ──tpg──► validation data
//	        │                                              │
//	      synth ──► netlist ──faultsim──► coverage curves ─┤
//	                                                       ▼
//	         metrics (MFC/RFC/ΔFC%/ΔL%/NLFCE), mutation score
//
// and exposes the paper's three experiments: per-operator efficiency
// profiling (Table 1), test-oriented versus random mutant sampling
// (Table 2), and the ATPG top-off motivation experiment (E3).
package core

import (
	"fmt"
	"sort"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tpg"
)

// Config tunes a Flow. The zero value selects sensible defaults.
type Config struct {
	// Seed drives every pseudo-random choice in the flow (sequence
	// generation, sampling, fills). Runs are reproducible per seed.
	Seed int64
	// SampleFrac is the mutant sampling rate shared by both strategies.
	// Default 0.10, the paper's rate.
	SampleFrac float64
	// RandHorizon is the pseudo-random reference sequence length used for
	// RFC and ΔL%. Default 2048.
	RandHorizon int
	// EquivBudget is the random-campaign length for the probable-
	// equivalence estimate E. Default 1024.
	EquivBudget int
	// Repeats averages every randomized measurement (TG stimuli, sample
	// draws) over this many independently-seeded runs. Default 5.
	Repeats int
	// Options is the shared engine surface forwarded to every substrate
	// — mutant scoring, fault simulation and test generation. See
	// engine.Options for the Workers semantics (Workers:1 is the
	// bit-identical serial reference configuration) and cancellation.
	// Results are identical for every setting.
	//
	// Workers also sizes the flow's own concurrency. ProfileOperators
	// runs the operator classes as jobs on that many workers, each with
	// a tpg.Session fork and a fault simulator of its own; Equivalent
	// runs the equivalence campaign beside FullTG; CompareSampling
	// scores and fault-simulates each strategy sequence beside the next
	// one's generation; and the top-off experiments run the baseline
	// ATPG beside the pre-test and the top-off ATPG, on one atpg.Model.
	// Every compiled machine still runs its campaigns in the serial
	// order (see tpg.Session.Fork), and each ATPG run is a pure function
	// of its inputs, which is what keeps the output identical. When
	// Workers resolves to one worker (always at Workers: 1) every section
	// runs inline on the calling goroutine. Ctx reaches every call, every
	// goroutine is joined before a method returns, and the error returned
	// is the earliest in serial order.
	//
	// The Progress hook sees ordered reports only: ProfileOperators
	// reports operator classes finished, and FullTG, the strategy
	// campaigns and the top-off ATPG report targets finished, as
	// tpg.Session.Generate and atpg.Model.Generate do. The per-class
	// campaigns, mutant scoring, fault simulation and the top-off
	// experiments' baseline ATPG report nothing.
	engine.Options
}

// The flow's fixed parameters. Every flow targets the full population of
// all ten operators and seeds its test generator with Seed+1.
const (
	// weightFloor keeps inefficient operators minimally represented in
	// the test-oriented sample: every operator weight is at least
	// weightFloor times the maximum weight.
	weightFloor = 0.05
	// profileCap bounds the per-class subsample used when profiling an
	// operator's efficiency (Table 1): every class is measured through at
	// most this many of its mutants (a fresh deterministic draw per
	// repeat), so operators with very different class sizes are compared
	// on the same data-length scale.
	profileCap = 40
)

func (c Config) withDefaults() Config {
	if c.SampleFrac <= 0 {
		c.SampleFrac = 0.10
	}
	if c.RandHorizon <= 0 {
		c.RandHorizon = 2048
	}
	if c.EquivBudget <= 0 {
		c.EquivBudget = 1024
	}
	if c.Repeats <= 0 {
		c.Repeats = 5
	}
	return c
}

// Flow holds one circuit's elaborated artifacts: its netlist, mutant
// population, fault list and cached reference data.
type Flow struct {
	Circuit *hdl.Circuit
	Netlist *netlist.Netlist
	Mutants []*mutation.Mutant
	Faults  []faultsim.Fault

	cfg Config

	randSeq    sim.Sequence
	randCurve  []float64
	fsim       *faultsim.Simulator // quiet: it runs beside TG campaigns
	fullTG     *tpg.Result
	equivalent []bool
	profiles   []OperatorProfile
	scorer     *mutscore.Scorer
	tg         *tpg.Session
	mutIdx     map[*mutation.Mutant]int
}

// tgSession returns the cached test-generation session over the full
// mutant population — the population is compiled into it once, and every
// generation campaign (operator probes, strategy samples, the
// full-population ceiling) runs as a subset selection on it.
func (f *Flow) tgSession() (*tpg.Session, error) {
	if f.tg == nil {
		s, err := tpg.NewSession(f.Circuit, f.Mutants, &tpg.Options{Options: f.cfg.Options})
		if err != nil {
			return nil, err
		}
		f.tg = s
		f.mutIdx = make(map[*mutation.Mutant]int, len(f.Mutants))
		for i, m := range f.Mutants {
			f.mutIdx[m] = i
		}
	}
	return f.tg, nil
}

// fullScorer returns the cached scorer over the full mutant population.
// It scores the programs the TG session compiled, so a flow compiles its
// population once.
func (f *Flow) fullScorer() (*mutscore.Scorer, error) {
	if f.scorer == nil {
		tg, err := f.tgSession()
		if err != nil {
			return nil, err
		}
		f.scorer = mutscore.Config{Options: f.quiet()}.NewScorer(tg)
	}
	return f.scorer, nil
}

// quiet returns the flow's engine options without the progress hook,
// for the engine calls that run beside another section: one hook carries
// one ordered stream of reports.
func (f *Flow) quiet() engine.Options {
	o := f.cfg.Options
	o.Progress = nil
	return o
}

// concurrent reports whether Workers resolves to more than one worker,
// so that the flow runs its sections' lanes on separate goroutines.
func (f *Flow) concurrent() bool { return par.Workers(f.cfg.Workers, 2) > 1 }

// beside runs a and b, on two goroutines when the flow is concurrent and
// otherwise inline, a first. It joins both and returns a's error before
// b's, the earlier one in serial order.
func (f *Flow) beside(a, b func() error) error {
	if !f.concurrent() {
		if err := a(); err != nil {
			return err
		}
		return b()
	}
	errB := make(chan error, 1)
	go func() { errB <- b() }()
	errA := a()
	if err := <-errB; errA == nil {
		return err
	}
	return errA
}

// pipeline runs gen(i) for i in [0, n), in order, and use(i) after each
// gen(i), in order. When the flow is concurrent the uses run on a second
// goroutine, beside the later gens; otherwise the calls interleave
// inline, gen(0), use(0), gen(1), and so on. It joins both lanes and
// returns the earliest error in that serial order: a use only ever
// follows a gen that succeeded, so a use's error comes first.
func (f *Flow) pipeline(n int, gen, use func(i int) error) error {
	if !f.concurrent() {
		for i := 0; i < n; i++ {
			if err := gen(i); err != nil {
				return err
			}
			if err := use(i); err != nil {
				return err
			}
		}
		return nil
	}
	ready := make(chan int, n) // room for every index: gen never waits on use
	errUse := make(chan error, 1)
	go func() {
		var err error
		for i := range ready {
			if err == nil {
				err = use(i)
			}
		}
		errUse <- err
	}()
	var errGen error
	for i := 0; i < n && errGen == nil; i++ {
		if errGen = gen(i); errGen == nil {
			ready <- i
		}
	}
	close(ready)
	if err := <-errUse; err != nil {
		return err
	}
	return errGen
}

// NewFlow elaborates a circuit: synthesizes the netlist, enumerates the
// mutant population and the collapsed fault list, and fault-simulates the
// pseudo-random reference sequence. The circuit must pass
// hdl.Check(Strict), as every hdl.Parse result does: the flow's
// concurrent sections rely on its outputs being assigned on every path
// (see tpg.Session.Fork).
func NewFlow(c *hdl.Circuit, cfg Config) (*Flow, error) {
	cfg = cfg.withDefaults()
	nl, err := synth.Synthesize(c)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", c.Name, err)
	}
	f := &Flow{
		Circuit: c,
		Netlist: nl,
		Mutants: mutation.Generate(c),
		cfg:     cfg,
	}
	f.Faults = faultsim.Faults(nl)
	f.fsim, err = faultsim.Config{Options: f.quiet()}.New(nl, f.Faults)
	if err != nil {
		return nil, err
	}
	// The RFC baseline is a raw gate-level pseudo-random set: it toggles
	// every PI including reset, like the initial test sets ATPG flows
	// start from (see tpg.RawRandomSequence).
	f.randSeq = tpg.RawRandomSequence(c, cfg.RandHorizon, cfg.Seed+1000)
	res, err := f.fsim.Run(tpg.ToPatterns(c, f.randSeq))
	if err != nil {
		return nil, err
	}
	f.randCurve = res.Curve()
	return f, nil
}

// Config returns the flow's effective (defaulted) configuration.
func (f *Flow) Config() Config { return f.cfg }

// RandomCurve returns the pseudo-random reference coverage curve (RFC as a
// function of length).
func (f *Flow) RandomCurve() []float64 { return f.randCurve }

// FaultSim fault-simulates a behavioral sequence on the synthesized
// netlist and returns the coverage profile.
func (f *Flow) FaultSim(seq sim.Sequence) (*faultsim.Result, error) {
	return f.fsim.Run(tpg.ToPatterns(f.Circuit, seq))
}

// --- E1: operator efficiency profile (Table 1) -------------------------------

// OperatorProfile is one row of the paper's Table 1: the structural-test
// efficiency of validation data generated from a single operator's mutants.
type OperatorProfile struct {
	Op      mutation.Operator
	Mutants int // class size
	Probed  int // subsample size actually measured (≤ profileCap)
	Killed  int // probed mutants killed by the targeted sequence (mean)
	SeqLen  int // validation sequence length (mean)
	Eff     metrics.Efficiency
}

// minProfileLen is the shortest validation sequence considered long
// enough for a meaningful efficiency measurement (see ProfileOperators).
const minProfileLen = 12

// ProfileOperators measures each operator class present in the mutant
// population: generate validation data targeting only that class (capped
// per-class probe, mutation-adequate PerMutantSkip discipline with a
// dedicated fallback for degenerate classes), fault simulate it, and
// compare against the pseudo-random reference. Results are cached on the
// Flow.
//
// Each class is one job: its repeats run in order on one worker, whose
// session is a fork of the flow's (worker 0 runs the flow's own session
// and fault simulator). The classes partition the population, so every
// mutant machine sees its class's campaigns exactly as in a serial run.
// The progress hook receives the number of classes finished.
func (f *Flow) ProfileOperators() ([]OperatorProfile, error) {
	if f.profiles != nil {
		return f.profiles, nil
	}
	s, err := f.tgSession()
	if err != nil {
		return nil, err
	}
	classes := mutation.ByOperator(f.Mutants)
	ops := make([]mutation.Operator, 0, len(classes))
	for op := range classes {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })

	workers := par.Workers(f.cfg.Workers, len(ops))
	sessions := []*tpg.Session{s}
	sims := []*faultsim.Simulator{f.fsim}
	for w := 1; w < workers; w++ {
		fs, err := faultsim.Config{Options: f.quiet()}.New(f.Netlist, f.Faults)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s.Fork())
		sims = append(sims, fs)
	}
	out := make([]OperatorProfile, len(ops))
	errs := make([]error, len(ops))
	ran := make([]bool, len(ops))
	err = par.IndexedCtx(f.cfg.Ctx, len(ops), workers, func(w, i int) {
		ran[i] = true
		out[i], errs[i] = f.profileClass(sessions[w], sims[w], i, ops[i], classes[ops[i]])
	}, func(done int) { f.cfg.Report(done, len(ops)) })
	// Jobs start in class order, so a class that never ran was skipped
	// on cancellation, where a serial run would have stopped.
	for i := range ops {
		if !ran[i] {
			return nil, fmt.Errorf("core: %w", err)
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	f.profiles = out
	return out, nil
}

// profileClass measures operator class ops[opIdx] over the configured
// repeats, generating on session s and fault-simulating on fs.
func (f *Flow) profileClass(s *tpg.Session, fs *faultsim.Simulator, opIdx int, op mutation.Operator, class []*mutation.Mutant) (OperatorProfile, error) {
	o := f.quiet()
	var effs []metrics.Efficiency
	p := OperatorProfile{Op: op, Mutants: len(class)}
	for rep := 0; rep < f.cfg.Repeats; rep++ {
		probe := class
		if len(probe) > profileCap {
			probe = sampling.Random(class, profileCap,
				f.cfg.Seed+int64(777+101*opIdx+rep))
		}
		p.Probed = len(probe)
		tg, err := f.generate(s, o, probe, int64(1000+37*opIdx+rep), tpg.PerMutantSkip)
		if err != nil {
			return p, fmt.Errorf("core: TG for %s: %w", op, err)
		}
		// Mutation-adequate selection can leave almost nothing when a
		// class has no hard mutants (every target dies collaterally);
		// an efficiency measured on a handful of vectors is noise, so
		// fall back to the dedicated discipline for this probe.
		if len(tg.Seq) < minProfileLen {
			tg, err = f.generate(s, o, probe, int64(1000+37*opIdx+rep), tpg.PerMutant)
			if err != nil {
				return p, fmt.Errorf("core: TG for %s: %w", op, err)
			}
		}
		fres, err := fs.Run(tpg.ToPatterns(f.Circuit, tg.Seq))
		if err != nil {
			return p, err
		}
		effs = append(effs, metrics.Compare(fres.Curve(), f.randCurve))
		p.Killed += tg.KilledCount()
		p.SeqLen += len(tg.Seq)
	}
	p.Killed /= f.cfg.Repeats
	p.SeqLen /= f.cfg.Repeats
	p.Eff = meanEfficiency(effs)
	return p, nil
}

// meanEfficiency averages efficiency measurements across repeated runs.
// The composite NLFCE is re-derived from the averaged factors so that the
// reported triple stays internally consistent (mean(a·b) ≠ mean(a)·mean(b)).
func meanEfficiency(effs []metrics.Efficiency) metrics.Efficiency {
	var m metrics.Efficiency
	if len(effs) == 0 {
		return m
	}
	for _, e := range effs {
		m.MFC += e.MFC
		m.RFC += e.RFC
		m.DeltaFCPts += e.DeltaFCPts
		m.DeltaLPct += e.DeltaLPct
		m.LMut += e.LMut
		m.LRand += e.LRand
		m.RandomSaturated = m.RandomSaturated || e.RandomSaturated
	}
	n := float64(len(effs))
	m.MFC /= n
	m.RFC /= n
	m.DeltaFCPts /= n
	m.DeltaLPct /= n
	m.LMut /= len(effs)
	m.LRand /= len(effs)
	m.NLFCE = m.DeltaFCPts * m.DeltaLPct
	return m
}

// DeriveWeights converts operator profiles into sampling weights: weight ∝
// max(NLFCE, 0), floored at floor × max so no operator class loses all
// representation. With no positive NLFCE anywhere the weights degenerate
// to uniform.
func DeriveWeights(profiles []OperatorProfile, floor float64) sampling.Weights {
	w := make(sampling.Weights, len(profiles))
	maxW := 0.0
	for _, p := range profiles {
		v := p.Eff.NLFCE
		// Guard the degenerate double-negative case (worse coverage AND
		// longer): ΔFC<0 and ΔL<0 multiply to a positive NLFCE that must
		// not be rewarded.
		if p.Eff.DeltaFCPts < 0 && p.Eff.DeltaLPct < 0 {
			v = 0
		}
		if v < 0 {
			v = 0
		}
		w[p.Op] = v
		if v > maxW {
			maxW = v
		}
	}
	if maxW == 0 {
		for op := range w {
			w[op] = 1
		}
		return w
	}
	for op, v := range w {
		if v < floor*maxW {
			w[op] = floor * maxW
		}
	}
	return w
}

// generate runs mutation-driven TG on session s (the flow's or a fork)
// in the given mode under the engine options o, offsetting the generator
// seed (Seed+1) so distinct calls explore distinct stimuli
// deterministically.
func (f *Flow) generate(s *tpg.Session, o engine.Options, targets []*mutation.Mutant, seedOffset int64, mode tpg.Mode) (*tpg.Result, error) {
	idx := make([]int, len(targets))
	for i, m := range targets {
		mi, ok := f.mutIdx[m]
		if !ok {
			return nil, fmt.Errorf("core: target mutant %q is not in the flow population", m.Desc)
		}
		idx[i] = mi
	}
	return s.Generate(idx, &tpg.Options{Options: o, Mode: mode, Seed: f.cfg.Seed + 1 + seedOffset})
}

// FullTG generates (and caches) validation data targeting the entire
// mutant population — the "no sampling" ceiling, also used as evidence in
// the equivalence estimate.
func (f *Flow) FullTG() (*tpg.Result, error) {
	if f.fullTG != nil {
		return f.fullTG, nil
	}
	s, err := f.tgSession()
	if err != nil {
		return nil, err
	}
	tg, err := f.generate(s, f.cfg.Options, f.Mutants, 2, tpg.PerMutant)
	if err != nil {
		return nil, err
	}
	f.fullTG = tg
	return tg, nil
}

// Equivalent returns the cached probable-equivalence flags for the mutant
// population: a mutant is counted in E only if the random campaign, the
// full-population TG sequence, and every strategy sequence evaluated so
// far all fail to kill it. The random campaign runs beside FullTG; the
// FullTG sequence then narrows its survivors.
func (f *Flow) Equivalent() ([]bool, error) {
	if f.equivalent != nil {
		return f.equivalent, nil
	}
	scorer, err := f.fullScorer()
	if err != nil {
		return nil, err
	}
	var full *tpg.Result
	var eq []bool
	err = f.beside(func() (err error) {
		full, err = f.FullTG()
		return err
	}, func() (err error) {
		eq, err = scorer.EstimateEquivalence(
			&mutscore.EquivalenceOptions{Budget: f.cfg.EquivBudget, Seed: f.cfg.Seed + 2000})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := scorer.Narrow(eq, full.Seq); err != nil {
		return nil, err
	}
	f.equivalent = eq
	return eq, nil
}

// --- E2: sampling strategy comparison (Table 2) -------------------------------

// StrategyResult is one half of a Table 2 row.
type StrategyResult struct {
	Strategy   string
	SampleSize int
	// Alloc is the per-operator composition of the sample.
	Alloc map[mutation.Operator]int
	// SeqLen is the length of the validation sequence generated from the
	// sample.
	SeqLen int
	// MSPct is the mutation score over the FULL mutant population,
	// in percent (the paper's MS%).
	MSPct float64
	// Eff holds the structural-test efficiency of the sequence.
	Eff metrics.Efficiency
}

// SamplingComparison bundles a Table 2 row pair plus the inputs that
// produced it.
type SamplingComparison struct {
	Circuit      string
	TestOriented StrategyResult
	Random       StrategyResult
	Weights      sampling.Weights
	Profiles     []OperatorProfile
}

// CompareSampling runs the paper's Table 2 experiment: draw the same
// number of mutants with the test-oriented and the classical random
// strategy, generate validation data from each sample, and measure both
// the mutation score over all mutants and the structural-test NLFCE.
// Every strategy is averaged over cfg.Repeats independent draw+TG runs;
// the per-operator allocation reported is the first repetition's
// (representative; draws differ only by seed).
//
// The campaigns run in order, test-oriented repeats first, and each
// finished sequence is scored and fault-simulated beside the next
// campaign.
func (f *Flow) CompareSampling() (*SamplingComparison, error) {
	profiles, err := f.ProfileOperators()
	if err != nil {
		return nil, err
	}
	weights := DeriveWeights(profiles, weightFloor)
	n := sampling.SampleSize(len(f.Mutants), f.cfg.SampleFrac)
	equivalent, err := f.Equivalent()
	if err != nil {
		return nil, err
	}
	scorer, err := f.fullScorer()
	if err != nil {
		return nil, err
	}
	s, err := f.tgSession()
	if err != nil {
		return nil, err
	}

	reps := f.cfg.Repeats
	out := [2]StrategyResult{{Strategy: "test-oriented"}, {Strategy: "random"}}
	samples := make([][]*mutation.Mutant, len(out)*reps)
	for rep := 0; rep < reps; rep++ {
		seed := int64(rep * 1009)
		samples[rep] = sampling.Weighted(f.Mutants, n, weights, f.cfg.Seed+10+seed)
		samples[reps+rep] = sampling.Random(f.Mutants, n, f.cfg.Seed+20+seed)
	}
	tgs := make([]*tpg.Result, len(samples))
	killed := make([][]bool, len(samples))
	effs := make([]metrics.Efficiency, len(samples))
	err = f.pipeline(len(samples), func(i int) (err error) {
		tgs[i], err = f.generate(s, f.cfg.Options, samples[i], int64(5000+991*(i%reps)), tpg.PerMutant)
		return err
	}, func(i int) (err error) {
		if killed[i], err = scorer.Kills(tgs[i].Seq); err != nil {
			return err
		}
		fres, err := f.FaultSim(tgs[i].Seq)
		if err != nil {
			return err
		}
		effs[i] = metrics.Compare(fres.Curve(), f.randCurve)
		return nil
	})
	if err != nil {
		return nil, err
	}

	for k := range out {
		r, first := &out[k], k*reps
		r.SampleSize = len(samples[first])
		r.Alloc = mutation.CountByOperator(samples[first])
		for i := first; i < first+reps; i++ {
			r.SeqLen += len(tgs[i].Seq)
			r.MSPct += 100 * mutscore.Score(killed[i], equivalent)
		}
		r.SeqLen /= reps
		r.MSPct /= float64(reps)
		r.Eff = meanEfficiency(effs[first : first+reps])
	}
	return &SamplingComparison{
		Circuit:      f.Circuit.Name,
		TestOriented: out[0],
		Random:       out[1],
		Weights:      weights,
		Profiles:     profiles,
	}, nil
}

// --- E3: ATPG top-off ---------------------------------------------------------

// TopoffResult quantifies the paper's motivation claim: re-using
// validation data as a pre-test reduces deterministic ATPG effort and
// final top-off length.
type TopoffResult struct {
	Circuit string
	// Baseline is ATPG from scratch over the full collapsed fault list.
	Baseline *atpg.Report
	// PreTestLen and PreTestCoverage describe the mutation-derived
	// validation data applied first.
	PreTestLen      int
	PreTestCoverage float64
	// Remaining is the fault count left for ATPG after the pre-test.
	Remaining int
	// Topoff is ATPG restricted to the remaining faults.
	Topoff *atpg.Report
}

// SeqTopoffResult is the sequential counterpart of TopoffResult
// (experiment E4): time-frame-expansion ATPG effort with and without the
// validation-data pre-test.
type SeqTopoffResult struct {
	Circuit  string
	Frames   int
	Baseline *atpg.SeqReport
	// PreTestLen and PreTestCoverage describe the validation data.
	PreTestLen      int
	PreTestCoverage float64
	Remaining       int
	Topoff          *atpg.SeqReport
}

// SequentialATPGTopoff runs the top-off experiment on sequential circuits
// using time-frame-expansion ATPG with the given horizon (the atpg
// package's default depth when frames <= 0). The paper closes by calling
// for exactly this extension ("further experiments must be conducted on
// more complex designs"). The baseline runs as ATPGTopoff's does.
func (f *Flow) SequentialATPGTopoff(frames int) (*SeqTopoffResult, error) {
	if !f.Netlist.IsSequential() {
		return nil, fmt.Errorf("core: %s is combinational; use ATPGTopoff", f.Circuit.Name)
	}
	// One model per (netlist, depth): baseline and top-off share the
	// unrolled compilation.
	model, err := atpg.NewSequentialModel(f.Netlist, frames)
	if err != nil {
		return nil, err
	}
	r := &SeqTopoffResult{Circuit: f.Circuit.Name, Frames: model.Frames()}
	err = f.beside(func() (err error) {
		r.Baseline, err = model.GenerateSequential(f.Faults, &atpg.Options{FillSeed: f.cfg.Seed + 40, Options: f.quiet()})
		return err
	}, func() error {
		preLen, pre, err := f.preTest()
		if err != nil {
			return err
		}
		remaining := pre.Undetected()
		r.PreTestLen, r.PreTestCoverage, r.Remaining = preLen, pre.Coverage(), len(remaining)
		r.Topoff, err = model.GenerateSequential(remaining, &atpg.Options{FillSeed: f.cfg.Seed + 41, Options: f.cfg.Options})
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// ATPGTopoff runs experiment E3 on combinational circuits. Its two ATPG
// runs are independent, so they run beside each other on one model: the
// baseline over the full fault list, and the pre-test followed by the
// top-off over the faults it left. The baseline runs without the
// progress hook at every setting, so the hook sees FullTG's targets,
// then the top-off's; in serial order it comes first.
func (f *Flow) ATPGTopoff() (*TopoffResult, error) {
	if f.Netlist.IsSequential() {
		return nil, fmt.Errorf("core: ATPG top-off needs a combinational circuit; %s has flip-flops", f.Circuit.Name)
	}
	// One model for both runs: baseline and top-off share the search
	// structures and the compiled dual-rail twin.
	model, err := atpg.NewModel(f.Netlist)
	if err != nil {
		return nil, err
	}
	r := &TopoffResult{Circuit: f.Circuit.Name}
	err = f.beside(func() (err error) {
		r.Baseline, err = model.Generate(f.Faults, &atpg.Options{FillSeed: f.cfg.Seed + 30, Options: f.quiet()})
		return err
	}, func() error {
		preLen, pre, err := f.preTest()
		if err != nil {
			return err
		}
		remaining := pre.Undetected()
		r.PreTestLen, r.PreTestCoverage, r.Remaining = preLen, pre.Coverage(), len(remaining)
		r.Topoff, err = model.Generate(remaining, &atpg.Options{FillSeed: f.cfg.Seed + 31, Options: f.cfg.Options})
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// preTest applies the top-off experiments' free pre-test: it
// fault-simulates the full TG sequence and returns the sequence's length
// with the result.
func (f *Flow) preTest() (int, *faultsim.Result, error) {
	full, err := f.FullTG()
	if err != nil {
		return 0, nil, err
	}
	pre, err := f.FaultSim(full.Seq)
	return len(full.Seq), pre, err
}
