package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/engine"
	"repro/internal/faultsim"
)

// Report is a campaign job result: plain counters, profiles and content
// hashes — never session-owned views — so it serializes, caches and
// merges freely. The cache and the wire carry reports only in their
// canonical encoding (Encode), which is what the byte-identity
// assertions in difftest and the CI smoke compare.
type Report struct {
	Kind        Kind   `json:"kind"`
	Key         Key    `json:"key"`
	Fingerprint string `json:"fingerprint"`
	Circuit     string `json:"circuit,omitempty"`
	Seed        int64  `json:"seed"`

	// Faults is the number of faults the job targeted (FaultSim, ATPG).
	Faults int `json:"faults,omitempty"`
	// Detected counts detections among the targeted faults.
	Detected int `json:"detected,omitempty"`

	// FaultSim: applied pattern/cycle count and the first-detection
	// profile over the full collapsed fault list (global indices, -1
	// outside the shard or undetected) — full length so disjoint shard
	// profiles merge element-wise.
	Patterns      int   `json:"patterns,omitempty"`
	FirstDetected []int `json:"firstdetected,omitempty"`

	// MutationTG: targeted/killed mutants, candidate rounds, total sequence
	// cycles, and the content hash of the generated stimulus.
	Targets int    `json:"targets,omitempty"`
	Killed  int    `json:"killed,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	SeqLen  int    `json:"seqlen,omitempty"`
	SeqHash string `json:"seqhash,omitempty"`

	// ATPG: classification counters, search effort, generated test count
	// and the content hash of the generated tests.
	Redundant  int    `json:"redundant,omitempty"`
	Aborted    int    `json:"aborted,omitempty"`
	Backtracks int    `json:"backtracks,omitempty"`
	PodemCalls int    `json:"podemcalls,omitempty"`
	Vectors    int    `json:"vectors,omitempty"`
	TestHash   string `json:"testhash,omitempty"`
}

// Encode renders the report in its canonical byte form: encoding/json
// with the struct's fixed field order, one trailing newline. Equal
// reports encode to equal bytes, which is the form the cache stores and
// the equality the end-to-end tests assert.
//
//repro:deterministic
func (r *Report) Encode() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeReport parses a canonically encoded report.
func DecodeReport(b []byte) (*Report, error) {
	r := new(Report)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return nil, fmt.Errorf("campaign: decoding report: %w", err)
	}
	return r, nil
}

// hashPatterns content-hashes an ordered pattern set.
//
//repro:deterministic
func hashPatterns(tag string, tests []faultsim.Pattern) string {
	d := engine.NewDigest(tag)
	d.Int("n", int64(len(tests)))
	for _, p := range tests {
		d.Str("p", string(p))
	}
	return d.Sum()
}

// hashTests content-hashes an ordered set of pattern sequences.
//
//repro:deterministic
func hashTests(tag string, tests [][]faultsim.Pattern) string {
	d := engine.NewDigest(tag)
	d.Int("n", int64(len(tests)))
	for _, t := range tests {
		d.Str("t", hashPatterns(tag, t))
	}
	return d.Sum()
}

// MergeShards combines disjoint shard reports into the report of the
// parent job they decompose (see shards). The FaultSim merge is exact — the
// parent's report as if never sharded, first-detection profiles
// interleaving element-wise because shards own disjoint fault ranges and
// lanes are independent. MutationTG and ATPG merges ARE the parent
// job's definition (shard results couple within a shard, so no merge
// could reconstruct an unsharded run; instead the job means "the
// canonical decomposition, merged"): counters sum and the per-shard
// content hashes chain in shard order. The shard order is the
// decomposition's order, which is deterministic, so merged reports are
// content-addressable like any other.
//
//repro:deterministic
func MergeShards(parent Spec, parentKey Key, shards []*Report) (*Report, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("campaign: no shard reports to merge")
	}
	out := &Report{
		Kind:        parent.Kind,
		Key:         parentKey,
		Fingerprint: shards[0].Fingerprint,
		Circuit:     parent.Circuit,
		Seed:        parent.Seed,
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("campaign: missing shard report %d", i)
		}
		if sh.Kind != parent.Kind {
			return nil, fmt.Errorf("campaign: shard %d is a %q report, parent is %q", i, sh.Kind, parent.Kind)
		}
		if sh.Fingerprint != out.Fingerprint {
			return nil, fmt.Errorf("campaign: shard %d fingerprints a different netlist", i)
		}
	}
	switch parent.Kind {
	case FaultSim:
		out.Patterns = shards[0].Patterns
		out.FirstDetected = append([]int(nil), shards[0].FirstDetected...)
		for i, sh := range shards[1:] {
			if sh.Patterns != out.Patterns {
				return nil, fmt.Errorf("campaign: shard %d applied %d patterns, shard 0 applied %d",
					i+1, sh.Patterns, out.Patterns)
			}
			if len(sh.FirstDetected) != len(out.FirstDetected) {
				return nil, fmt.Errorf("campaign: shard %d profiles %d faults, shard 0 profiles %d",
					i+1, len(sh.FirstDetected), len(out.FirstDetected))
			}
			for fi, d := range sh.FirstDetected {
				if d < 0 {
					continue
				}
				if out.FirstDetected[fi] >= 0 {
					return nil, fmt.Errorf("campaign: fault %d detected by two shards; shards must be disjoint", fi)
				}
				out.FirstDetected[fi] = d
			}
		}
		for _, sh := range shards {
			out.Faults += sh.Faults
		}
		for _, d := range out.FirstDetected {
			if d >= 0 {
				out.Detected++
			}
		}
	case MutationTG:
		d := engine.NewDigest("campaign/tg/merge")
		for _, sh := range shards {
			out.Targets += sh.Targets
			out.Killed += sh.Killed
			out.Rounds += sh.Rounds
			out.SeqLen += sh.SeqLen
			d.Str("seq", sh.SeqHash)
		}
		out.SeqHash = d.Sum()
	case ATPG:
		d := engine.NewDigest("campaign/atpg/merge")
		for _, sh := range shards {
			out.Faults += sh.Faults
			out.Detected += sh.Detected
			out.Redundant += sh.Redundant
			out.Aborted += sh.Aborted
			out.Backtracks += sh.Backtracks
			out.PodemCalls += sh.PodemCalls
			out.Vectors += sh.Vectors
			d.Str("tests", sh.TestHash)
		}
		out.TestHash = d.Sum()
	default:
		return nil, fmt.Errorf("campaign: unknown job kind %q", parent.Kind)
	}
	return out, nil
}
