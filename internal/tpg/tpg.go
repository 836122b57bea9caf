// Package tpg generates test data: deterministic pseudo-random sequences
// (the paper's baseline, "pseudo-random test sets generally used as
// initial test sets") and mutation-driven validation sequences (the
// paper's contribution substrate: vectors selected because they kill live
// mutants of the behavioral description).
//
// Both generators produce behavioral sequences (sim.Sequence); ToPatterns
// bit-blasts them into gate-level patterns in the synthesizer's PI order
// so the same data drives the stuck-at fault simulator.
package tpg

import (
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/sim"
)

// ResetInputName is the input-port name treated as a synchronous reset by
// the generators: asserted on the first cycle of every generated sequence
// and deasserted afterwards, which is how the benchmark harnesses of the
// ITC'99 suite drive their reset pins.
const ResetInputName = "reset"

// RandomSequence generates n cycles of pseudo-random stimulus for the
// circuit with a validation-style reset protocol: an input named "reset"
// is asserted only on cycle 0. Use it wherever behavioral test data is
// simulated from power-on (mutation campaigns, equivalence estimation).
func RandomSequence(c *hdl.Circuit, n int, seed int64) sim.Sequence {
	return randomSequence(c, n, seed, false)
}

// RawRandomSequence generates n cycles of fully pseudo-random stimulus —
// every input including reset toggles randomly. This models the paper's
// baseline: a gate-level pseudo-random test set has no notion of which
// primary input is the reset pin, which is precisely why it struggles to
// reach deep sequential states and why validation data re-use pays off.
func RawRandomSequence(c *hdl.Circuit, n int, seed int64) sim.Sequence {
	return randomSequence(c, n, seed, true)
}

func randomSequence(c *hdl.Circuit, n int, seed int64, rawReset bool) sim.Sequence {
	rng := rand.New(rand.NewSource(seed))
	ins := c.Inputs()
	seq := make(sim.Sequence, n)
	for cyc := range seq {
		v := make(sim.Vector, len(ins))
		for i, p := range ins {
			if p.Name == ResetInputName && !rawReset {
				if cyc == 0 {
					v[i] = bitvec.New(1, p.Width)
				} else {
					v[i] = bitvec.Zero(p.Width)
				}
				continue
			}
			v[i] = bitvec.New(rng.Uint64(), p.Width)
		}
		seq[cyc] = v
	}
	return seq
}

// ToPatterns bit-blasts a behavioral sequence into gate-level patterns in
// the synthesizer's PI order (input ports in declaration order, LSB
// first), one pattern per cycle. The patterns are freshly allocated and
// caller-owned.
func ToPatterns(c *hdl.Circuit, seq sim.Sequence) []faultsim.Pattern {
	ins := c.Inputs()
	nBits := 0
	for _, p := range ins {
		nBits += p.Width
	}
	out := make([]faultsim.Pattern, len(seq))
	for cyc, v := range seq {
		p := make(faultsim.Pattern, 0, nBits)
		for i, port := range ins {
			for b := 0; b < port.Width; b++ {
				p = append(p, uint8(v[i].Bit(b)))
			}
		}
		out[cyc] = p
	}
	return out
}

// Mode selects the mutation-driven generation discipline.
type Mode int

const (
	// PerMutant generates a dedicated killing segment for every target in
	// turn, in the style of constraint-based mutation test generation
	// (DeMillo & Offutt): even a mutant an earlier segment killed
	// collaterally contributes its own value-specific stimulus. This is
	// the default for generating validation data from a mutant sample.
	PerMutant Mode = iota
	// PerMutantSkip is PerMutant with mutation-adequate selection: targets
	// already killed when their turn comes are skipped, so only the
	// *hard* mutants of the target set shape the data. Operator-efficiency
	// profiling uses this mode — an operator's sampling weight should
	// reflect the marginal value of its difficult mutants.
	PerMutantSkip
)

// The candidate search has one shape for every campaign: each round
// draws candidates random segments of seqSegmentLen cycles (a single
// cycle on combinational circuits, whose cycles are independent), and a
// target is given up after maxStall rounds in which no candidate kills
// it.
const (
	candidates    = 8
	seqSegmentLen = 4
	maxStall      = 12
)

// Options tunes the mutation-driven generator. It embeds the shared
// engine surface (engine.Options): Workers sizes the mutant batch
// compilation pool (and core.Flow runs that many operator-profile jobs,
// each on a Session.Fork), Ctx cancels a running generation between
// candidate rounds, and Progress reports completed targets.
type Options struct {
	engine.Options

	// Mode selects the generation discipline (default PerMutant).
	Mode Mode
	// Seed drives all pseudo-random choices.
	Seed int64
	// MaxLen bounds the produced sequence length. Default 1024.
	MaxLen int
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxLen <= 0 {
		out.MaxLen = 1024
	}
	return out
}

// Result is the outcome of mutation-driven test generation.
type Result struct {
	// Seq is the selected validation sequence (starting with the reset
	// cycle). Every appended segment killed at least one target mutant.
	Seq sim.Sequence
	// Killed reports, per target mutant, whether the sequence kills it.
	Killed []bool
	// Rounds is the number of candidate rounds executed.
	Rounds int
	// Segments lists the sequence length after each accepted segment —
	// the round boundaries of the campaign.
	Segments []int
}

// KilledCount returns the number of killed target mutants.
func (r *Result) KilledCount() int {
	n := 0
	for _, k := range r.Killed {
		if k {
			n++
		}
	}
	return n
}

// MutationTests builds a validation sequence that kills the given target
// mutants. In PerMutant mode (default) every target receives a dedicated
// killing segment — the constraint-based discipline of the paper's
// reference [2] — even when an earlier segment already killed it
// collaterally, which makes the data value-rich per sampled mutant. In
// PerMutantSkip mode collaterally killed targets get no segment of their
// own.
//
// MutationTests is the one-shot convenience over Session: it compiles
// the targets, runs one campaign and discards the compilation. Callers
// that generate repeatedly against one population (different samples,
// seeds or disciplines) should hold a Session instead.
func MutationTests(c *hdl.Circuit, targets []*mutation.Mutant, opts *Options) (*Result, error) {
	s, err := NewSession(c, targets, opts)
	if err != nil {
		return nil, err
	}
	return s.Generate(nil, nil)
}

func vectorsDiffer(a, b sim.Vector) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return true
		}
	}
	return false
}
