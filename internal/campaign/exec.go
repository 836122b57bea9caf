package campaign

import (
	"math/rand"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/mutation"
	"repro/internal/netlist"
	"repro/internal/tpg"
)

// ExecConfig configures local job execution. The embedded engine.Options
// carries the execution knobs (Workers/LaneWords — forwarded to the
// engines, never part of the job key), the cancellation context (polled
// at window/target boundaries) and the progress hook. For FaultSim jobs
// the hook reports windows completed — the checkpoint grain — rather
// than forwarding the engines' inner pattern stream; MutationTG and ATPG
// jobs forward the engines' own per-target stream unchanged.
type ExecConfig struct {
	engine.Options
	// Checkpoints, when set, persists FaultSim window checkpoints under
	// the job key so a killed campaign resumes bit-identically; the
	// checkpoint is dropped when the job completes.
	Checkpoints *CheckpointStore
}

// engineOpts returns the options forwarded to an engine, with or
// without the caller's progress hook.
func (c *ExecConfig) engineOpts(forwardProgress bool) engine.Options {
	var o engine.Options
	if c != nil {
		o = c.Options
	}
	if !forwardProgress {
		o.Progress = nil
	}
	return o
}

func (c *ExecConfig) checkpoints() *CheckpointStore {
	if c == nil {
		return nil
	}
	return c.Checkpoints
}

// Execute runs one campaign job to completion and returns its report.
// Execution is deterministic per spec: every ExecConfig (and every
// machine) produces the same report, byte for byte under Encode — the
// invariant that makes the content-addressed cache and shard merging
// sound, pinned by the difftest campaign legs.
//
// Jobs with a canonical decomposition (MutationTG over several operator
// classes, ATPG ranges wider than one chunk) are executed AS that
// decomposition — shard by shard, merged — because their result is
// defined that way (see Shards); a server that fans the same shards out
// to a worker pool produces the same bytes. FaultSim jobs run whole:
// their lanes are independent, so any decomposition merges to the same
// profile anyway.
func Execute(sp Spec, cfg *ExecConfig) (*Report, error) {
	pr, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	if sp.Kind != FaultSim {
		if shards := pr.shards(0); shards != nil {
			reports := make([]*Report, len(shards))
			for i, shard := range shards {
				if reports[i], err = Execute(shard, cfg); err != nil {
					return nil, err
				}
			}
			return MergeShards(sp, pr.key(), reports)
		}
	}
	switch sp.Kind {
	case FaultSim:
		return executeFaultSim(pr, cfg)
	case MutationTG:
		return executeTG(pr, cfg)
	default:
		return executeATPG(pr, cfg)
	}
}

// baseReport fills the identity fields every kind shares.
func baseReport(pr *prepared) *Report {
	return &Report{
		Kind:        pr.spec.Kind,
		Key:         pr.key(),
		Fingerprint: pr.fp,
		Circuit:     pr.spec.Circuit,
		Seed:        pr.spec.Seed,
	}
}

// stimulus derives the job's pseudo-random stimulus from its seed. Named
// circuits draw through the behavioral port list (the flow-compatible
// tpg generator); inline netlists draw one bit per PI. Both are pure
// functions of (circuit, horizon, seed), so an interrupted job re-derives
// the exact stimulus its checkpoint was taken under.
//
//repro:deterministic
func stimulus(pr *prepared) []faultsim.Pattern {
	if pr.c != nil {
		return tpg.ToPatterns(pr.c, tpg.RawRandomSequence(pr.c, pr.spec.Horizon, pr.spec.Seed))
	}
	return randomPatterns(pr.nl, pr.spec.Horizon, pr.spec.Seed)
}

//repro:deterministic
func randomPatterns(nl *netlist.Netlist, n int, seed int64) []faultsim.Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]faultsim.Pattern, n)
	for t := range out {
		p := make(faultsim.Pattern, len(nl.PIs))
		for i := range p {
			p[i] = uint8(rng.Intn(2))
		}
		out[t] = p
	}
	return out
}

// executeFaultSim applies the job's stimulus in Window-cycle appends to
// an incremental session over the job's fault shard, checkpointing at
// every window boundary. A fresh run seeds the subset session with
// RunOn; a resumed run restores the saved checkpoint (replaying the
// applied prefix over the frontier only) and continues with Append —
// bit-identical to a run that was never interrupted.
func executeFaultSim(pr *prepared, cfg *ExecConfig) (*Report, error) {
	sp := pr.spec
	key := pr.key()
	tests := stimulus(pr)
	lo, hi := sp.shardRange(len(pr.faults))
	var include []int
	if lo != 0 || hi != len(pr.faults) {
		include = make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			include = append(include, i)
		}
	}
	// The engines' pattern-level progress stream is not forwarded: job
	// progress is windows completed, the observable unit of a campaign.
	eng := cfg.engineOpts(false)
	sim, err := faultsim.Config{Options: eng}.New(pr.nl, pr.faults)
	if err != nil {
		return nil, err
	}
	win := sp.Window
	if win <= 0 || win > sp.Horizon {
		win = sp.Horizon
	}
	windows := (sp.Horizon + win - 1) / win
	applied := 0
	if st := cfg.checkpoints(); st != nil {
		if ck, err := st.Load(key); err == nil && ck != nil && ck.Applied > 0 && ck.Applied <= len(tests) {
			// Restore checks the checkpoint against the whole fault list;
			// the job covers only its shard, so a frontier fault or a
			// detection outside [lo, hi) is as foreign as a bad index.
			if withinShard(ck, lo, hi) && sim.Restore(ck, tests[:ck.Applied]) == nil {
				applied = ck.Applied
			} else {
				// A stale or mismatched checkpoint is discarded, not fatal:
				// the job simply starts over.
				st.Drop(key)
				sim.Reset()
			}
		}
	}
	for applied < len(tests) {
		if err := eng.Cancelled(); err != nil {
			return nil, err
		}
		next := applied + win
		if next > len(tests) {
			next = len(tests)
		}
		if applied == 0 {
			// First window: RunOn narrows the session to the fault shard
			// (nil include means the whole list); later Appends extend it.
			if _, err := sim.RunOn(tests[:next], include); err != nil {
				return nil, err
			}
		} else {
			if _, err := sim.Append(tests[applied:next]); err != nil {
				return nil, err
			}
		}
		applied = next
		if st := cfg.checkpoints(); st != nil && applied < len(tests) {
			if err := st.Save(key, sim.Checkpoint()); err != nil {
				return nil, err
			}
		}
		if cfg != nil {
			cfg.Report((applied+win-1)/win, windows)
		}
	}
	// Current returns a session-owned view; the report must outlive the
	// session, so detach it.
	res := sim.Current().Clone()
	rep := baseReport(pr)
	rep.Faults = hi - lo
	rep.Patterns = res.Patterns
	rep.FirstDetected = res.FirstDetected
	for _, d := range res.FirstDetected {
		if d >= 0 {
			rep.Detected++
		}
	}
	if st := cfg.checkpoints(); st != nil {
		st.Drop(key)
	}
	return rep, nil
}

// withinShard reports whether a checkpoint stays inside the fault shard
// [lo, hi): every frontier fault and every recorded detection.
func withinShard(ck *faultsim.Checkpoint, lo, hi int) bool {
	for _, fi := range ck.Frontier {
		if fi < lo || fi >= hi {
			return false
		}
	}
	for fi, d := range ck.FirstDetected {
		if d >= 0 && (fi < lo || fi >= hi) {
			return false
		}
	}
	return true
}

// executeTG runs one mutation-TG round over the job's mutant population
// (one operator class when sharded).
func executeTG(pr *prepared, cfg *ExecConfig) (*Report, error) {
	sp := pr.spec
	var targets []*mutation.Mutant
	if sp.Operator != "" {
		op, err := mutation.ParseOperator(sp.Operator)
		if err != nil {
			return nil, err
		}
		targets = mutation.Generate(pr.c, op)
	} else {
		targets = mutation.Generate(pr.c)
	}
	res, err := tpg.MutationTests(pr.c, targets, &tpg.Options{
		Options: cfg.engineOpts(true),
		Seed:    sp.Seed,
		MaxLen:  sp.MaxLen,
	})
	if err != nil {
		return nil, err
	}
	rep := baseReport(pr)
	rep.Targets = len(targets)
	rep.Killed = res.KilledCount()
	rep.Rounds = res.Rounds
	rep.SeqLen = len(res.Seq)
	rep.SeqHash = hashPatterns("campaign/tg/seq", tpg.ToPatterns(pr.c, res.Seq))
	return rep, nil
}

// executeATPG runs deterministic test generation over the job's fault
// shard: PODEM for combinational circuits, time-frame expansion at
// Frames depth for sequential ones.
func executeATPG(pr *prepared, cfg *ExecConfig) (*Report, error) {
	sp := pr.spec
	lo, hi := sp.shardRange(len(pr.faults))
	sub := pr.faults[lo:hi]
	rep := baseReport(pr)
	if pr.nl.IsSequential() {
		r, err := atpg.GenerateSequential(pr.nl, sub, &atpg.SeqOptions{
			Frames:        sp.Frames,
			MaxBacktracks: sp.MaxBacktracks,
			FillSeed:      sp.Seed,
			Options:       cfg.engineOpts(true),
		})
		if err != nil {
			return nil, err
		}
		rep.Faults = r.Total
		rep.Detected = r.Detected
		rep.Redundant = r.Untestable
		rep.Aborted = r.Aborted
		rep.Backtracks = r.Backtracks
		rep.PodemCalls = r.PodemCalls
		rep.Vectors = len(r.Tests)
		rep.TestHash = hashTests("campaign/atpg/tests", r.Tests)
		return rep, nil
	}
	r, err := atpg.Generate(pr.nl, sub, &atpg.Options{
		MaxBacktracks: sp.MaxBacktracks,
		FillSeed:      sp.Seed,
		Options:       cfg.engineOpts(true),
	})
	if err != nil {
		return nil, err
	}
	rep.Faults = r.Total
	rep.Detected = r.Detected
	rep.Redundant = r.Redundant
	rep.Aborted = r.Aborted
	rep.Backtracks = r.Backtracks
	rep.PodemCalls = r.PodemCalls
	rep.Vectors = len(r.Vectors)
	rep.TestHash = hashPatterns("campaign/atpg/tests", r.Vectors)
	return rep, nil
}
