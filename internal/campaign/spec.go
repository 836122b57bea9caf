// Package campaign is the distributed campaign service: long-running
// fault-simulation, mutation-TG and ATPG work decomposed into
// deterministic jobs that shard across local worker goroutines and
// remote worker processes, with a content-addressed result cache and
// checkpoint/resume for long sequential campaigns.
//
// Every job is keyed by content: the netlist fingerprint
// (netlist.Fingerprint, stable across processes), the seed, and a
// canonical digest of the job's semantic options (engine.Digest). The
// engine execution knobs — Workers, LaneWords — are deliberately
// excluded from the key: results are bit-identical for every engine
// setting (the repository's oldest invariant, pinned by the parity
// suites and internal/difftest), so a result computed once serves every
// later request for the same work regardless of who computes it or on
// how many cores. Shard results merge by construction for the same
// reason: each shard is deterministic per seed and owns a disjoint
// fault (or operator) subset.
package campaign

import (
	"fmt"
	"strings"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// Kind enumerates the campaign job families.
type Kind string

// Job kinds.
const (
	// FaultSim fault-simulates Horizon cycles of seed-derived
	// pseudo-random stimulus, optionally restricted to the fault shard
	// [FaultLo,FaultHi), appended in Window-cycle checkpointable windows.
	FaultSim Kind = "faultsim"
	// MutationTG runs one mutation-driven test-generation round over the
	// circuit's mutant population (one operator class when Operator is
	// set — the natural shard of a TG campaign).
	MutationTG Kind = "tg"
	// ATPG runs deterministic PODEM (time-frame expansion when the
	// circuit is sequential) over the fault shard [FaultLo,FaultHi).
	ATPG Kind = "atpg"
)

// Spec describes one campaign job. It is plain data — JSON over the
// wire, hashable into a Key — and fully determines the job's result:
// execution is deterministic per spec, whatever engine configuration
// runs it.
type Spec struct {
	Kind Kind `json:"kind"`
	// Circuit names a benchmark from internal/circuits. Bench instead
	// carries an inline ISCAS-89 .bench netlist (gate-level kinds only:
	// FaultSim and ATPG — MutationTG needs the behavioral source).
	// Exactly one of the two must be set.
	Circuit string `json:"circuit,omitempty"`
	Bench   string `json:"bench,omitempty"`
	// Seed drives every pseudo-random choice of the job (stimulus,
	// don't-care fill).
	Seed int64 `json:"seed"`

	// Horizon is the pseudo-random stimulus length of a FaultSim job.
	Horizon int `json:"horizon,omitempty"`
	// Window is the FaultSim append-window size in cycles: the
	// checkpoint grain of a long campaign. 0 applies the whole horizon
	// in one window. Windowing never changes results (chunked Appends
	// are bit-identical to one-shot runs), so Window is excluded from
	// the job key.
	Window int `json:"window,omitempty"`

	// FaultLo/FaultHi restrict FaultSim and ATPG jobs to the collapsed
	// fault-list index range [FaultLo,FaultHi) — the shard coordinate.
	// Both zero means the whole list.
	FaultLo int `json:"faultlo,omitempty"`
	FaultHi int `json:"faulthi,omitempty"`

	// Operator restricts a MutationTG job's population to one mutation
	// operator (empty targets every mutant).
	Operator string `json:"operator,omitempty"`
	// MaxLen bounds a MutationTG job's sequence length (0 = tpg default).
	MaxLen int `json:"maxlen,omitempty"`

	// Frames is the ATPG time-frame depth for sequential circuits
	// (0 = atpg default); ignored for combinational ones.
	Frames int `json:"frames,omitempty"`
	// MaxBacktracks bounds the PODEM search per fault (0 = atpg default).
	MaxBacktracks int `json:"maxbacktracks,omitempty"`
}

// Key is a content-addressed job identity: equal keys mean equal
// results, byte for byte. It is derived from the netlist fingerprint,
// the seed and the semantic option digest — never from execution knobs.
type Key string

// prepared is an elaborated spec: the artifacts execution and keying
// share. The hdl circuit is nil for inline-.bench jobs.
type prepared struct {
	spec   Spec
	c      *hdl.Circuit
	nl     *netlist.Netlist
	fp     string
	faults []faultsim.Fault
}

// prepare validates a spec and elaborates its circuit: load (or parse),
// synthesize, fingerprint, and enumerate the collapsed fault list.
func prepare(sp Spec) (*prepared, error) {
	switch sp.Kind {
	case FaultSim, MutationTG, ATPG:
	default:
		return nil, fmt.Errorf("campaign: unknown job kind %q", sp.Kind)
	}
	if (sp.Circuit == "") == (sp.Bench == "") {
		return nil, fmt.Errorf("campaign: exactly one of circuit and bench must be set")
	}
	if sp.Kind == FaultSim && sp.Horizon <= 0 {
		return nil, fmt.Errorf("campaign: faultsim job needs a positive horizon")
	}
	if sp.Window < 0 || sp.Horizon < 0 || sp.MaxLen < 0 || sp.Frames < 0 || sp.MaxBacktracks < 0 {
		return nil, fmt.Errorf("campaign: negative job parameter")
	}
	if sp.Horizon > maxHorizon {
		return nil, fmt.Errorf("campaign: horizon %d exceeds the limit of %d cycles", sp.Horizon, maxHorizon)
	}
	if sp.Frames > maxFrames {
		return nil, fmt.Errorf("campaign: %d time frames exceed the limit of %d", sp.Frames, maxFrames)
	}
	pr := &prepared{spec: sp}
	var err error
	if sp.Circuit != "" {
		if pr.c, err = circuits.Load(sp.Circuit); err != nil {
			return nil, err
		}
		if pr.nl, err = synth.Synthesize(pr.c); err != nil {
			return nil, err
		}
	} else {
		if sp.Kind == MutationTG {
			return nil, fmt.Errorf("campaign: mutation-TG jobs need a named behavioral circuit, not an inline netlist")
		}
		if pr.nl, err = netlist.ReadBench(strings.NewReader(sp.Bench), "bench"); err != nil {
			return nil, err
		}
	}
	if pr.fp, err = pr.nl.Fingerprint(); err != nil {
		return nil, err
	}
	pr.faults = faultsim.Faults(pr.nl)
	if sp.FaultLo != 0 || sp.FaultHi != 0 {
		if sp.Kind == MutationTG {
			return nil, fmt.Errorf("campaign: fault shards do not apply to mutation-TG jobs")
		}
		if sp.FaultLo < 0 || sp.FaultHi > len(pr.faults) || sp.FaultLo >= sp.FaultHi {
			return nil, fmt.Errorf("campaign: fault shard [%d,%d) out of range [0,%d)",
				sp.FaultLo, sp.FaultHi, len(pr.faults))
		}
	}
	if sp.Operator != "" {
		if sp.Kind != MutationTG {
			return nil, fmt.Errorf("campaign: operator restriction applies only to mutation-TG jobs")
		}
		if _, err := mutation.ParseOperator(sp.Operator); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// key derives the content-addressed job key. The stimulus domain tag
// distinguishes jobs whose pseudo-random stimulus derives through the
// behavioral port list (named circuits — the flow-compatible
// tpg.RawRandomSequence draw order) from jobs that draw per netlist PI
// (inline .bench), since the two generators produce different patterns
// for the same seed. Window is excluded: chunking is bit-invariant.
//
//repro:deterministic
func (pr *prepared) key() Key {
	sp := pr.spec
	d := engine.NewDigest(string(sp.Kind))
	// Schema version: bump when job semantics change (a canonical
	// decomposition constant, a stimulus generator), so stale disk caches
	// can never alias results of the new semantics.
	d.Int("v", 1)
	d.Str("netlist", pr.fp)
	d.Int("seed", sp.Seed)
	switch sp.Kind {
	case FaultSim:
		d.Str("stim", pr.stimTag())
		d.Int("horizon", int64(sp.Horizon))
		d.Int("faultlo", int64(sp.FaultLo))
		d.Int("faulthi", int64(sp.FaultHi))
	case MutationTG:
		// The mutant population derives from the behavioral source, which
		// the netlist fingerprint does not fully determine — include the
		// benchmark name.
		d.Str("circuit", sp.Circuit)
		d.Str("operator", sp.Operator)
		d.Int("maxlen", int64(sp.MaxLen))
	case ATPG:
		d.Int("frames", int64(sp.Frames))
		d.Int("maxbacktracks", int64(sp.MaxBacktracks))
		d.Int("faultlo", int64(sp.FaultLo))
		d.Int("faulthi", int64(sp.FaultHi))
	}
	return Key(d.Sum())
}

// stimTag names the stimulus derivation domain; see key.
func (pr *prepared) stimTag() string {
	if pr.c != nil {
		return "hdl:" + pr.spec.Circuit
	}
	return "pi"
}

// JobKey computes a spec's content-addressed key (elaborating the
// circuit to fingerprint it). Servers compute keys themselves; clients
// only need this to predict cache identity.
func JobKey(sp Spec) (Key, error) {
	pr, err := prepare(sp)
	if err != nil {
		return "", err
	}
	return pr.key(), nil
}

// shardRange returns the fault-index range a FaultSim/ATPG spec covers.
func (sp Spec) shardRange(nFaults int) (lo, hi int) {
	if sp.FaultLo == 0 && sp.FaultHi == 0 {
		return 0, nFaults
	}
	return sp.FaultLo, sp.FaultHi
}

// atpgChunk is the canonical ATPG shard width in collapsed faults.
// ATPG results couple faults within a run (fault dropping: earlier
// vectors retire later targets), so unlike FaultSim an ATPG decomposition
// is NOT merge-equal to an unsharded run — which is why the decomposition
// must be a function of the spec alone, never of server configuration:
// an ATPG job's result is DEFINED as the merge of its fixed-width chunks,
// and Execute computes exactly that whether it runs the chunks inline,
// on a worker pool, or on remote peers. Changing this constant changes
// job semantics; bump the key schema version with it.
const atpgChunk = 256

// A job's memory grows with two spec fields, so both are capped. A
// FaultSim job builds all Horizon stimulus patterns up front in every
// shard, about 134 bytes per cycle on c17; maxHorizon is 32x the 2048
// cycles the flows and the benchmark use. An ATPG job unrolls Frames
// copies of a sequential netlist, about 140 KB per frame for a 4-fault
// b01 shard; maxFrames is 8x the default depth of 8.
const (
	maxHorizon = 1 << 16
	maxFrames  = 64
)

// Shards decomposes a job into the independent shard specs whose merge
// (MergeShards) is the job's result. MutationTG and ATPG use their
// canonical decompositions — one round per operator class present in
// the population, fixed atpgChunk-wide fault ranges — and ignore n,
// because their shard results couple within a shard and the job's
// meaning must not depend on who executes it. FaultSim fault lanes are
// independent, so any split merges exactly: n picks the width (the
// caller's worker count). Jobs that cannot be split return nil.
func Shards(sp Spec, n int) ([]Spec, error) {
	pr, err := prepare(sp)
	if err != nil {
		return nil, err
	}
	return pr.shards(n), nil
}

func (pr *prepared) shards(n int) []Spec {
	sp := pr.spec
	switch sp.Kind {
	case MutationTG:
		if sp.Operator != "" {
			return nil
		}
		counts := mutation.CountByOperator(mutation.Generate(pr.c))
		var out []Spec
		for _, op := range mutation.AllOperators() {
			if counts[op] == 0 {
				continue
			}
			shard := sp
			shard.Operator = string(op)
			out = append(out, shard)
		}
		if len(out) <= 1 {
			return nil
		}
		return out
	case ATPG:
		lo, hi := sp.shardRange(len(pr.faults))
		if hi-lo <= atpgChunk {
			return nil
		}
		var out []Spec
		for at := lo; at < hi; at += atpgChunk {
			shard := sp
			shard.FaultLo = at
			shard.FaultHi = min(at+atpgChunk, hi)
			out = append(out, shard)
		}
		return out
	default:
		lo, hi := sp.shardRange(len(pr.faults))
		if n <= 1 || hi-lo < n {
			return nil
		}
		out := make([]Spec, 0, n)
		span := hi - lo
		for i := 0; i < n; i++ {
			shard := sp
			shard.FaultLo = lo + span*i/n
			shard.FaultHi = lo + span*(i+1)/n
			out = append(out, shard)
		}
		return out
	}
}
