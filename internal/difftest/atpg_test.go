package difftest

import (
	"fmt"
	"testing"

	"repro/internal/atpg"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/synth"
)

// atpgConfigs spans the compiled ATPG engine's knob space; each entry is
// compared against the serial reference (Workers 1: three-valued
// interpreter, single-fault reference drop-sim). Workers > 1 exercises
// the pooled drop-sim schedulers, and packPairs the lane-pack
// scheduler: 1 runs it on a single pair, 4 forces heavy pair turnover
// (every fourth target re-arms a pair), 32 the full pack, 0 the auto
// setting. The target-index commit order makes every pack width
// byte-identical — this matrix is the lock on that contract.
var atpgConfigs = []engineConfig{
	{workers: 2, packPairs: 1},
	{workers: 0, packPairs: 4},
	{workers: 2, packPairs: 32},
	{workers: 0, packPairs: 32},
	{workers: 0, packPairs: 0}, // production auto setting
}

// assertSameSeqReport compares two sequential ATPG reports field by field,
// including the generated test sets pattern for pattern.
func assertSameSeqReport(t *testing.T, label string, got, want *atpg.SeqReport) {
	t.Helper()
	if got.Detected != want.Detected || got.Untestable != want.Untestable ||
		got.Aborted != want.Aborted || got.Backtracks != want.Backtracks ||
		got.PodemCalls != want.PodemCalls || got.Total != want.Total ||
		got.Frames != want.Frames {
		t.Fatalf("%s: report %+v, reference %+v (tests elided)", label, summarizeSeq(got), summarizeSeq(want))
	}
	if len(got.Tests) != len(want.Tests) {
		t.Fatalf("%s: %d tests, reference %d", label, len(got.Tests), len(want.Tests))
	}
	for ti := range want.Tests {
		if len(got.Tests[ti]) != len(want.Tests[ti]) {
			t.Fatalf("%s: test %d has %d cycles, reference %d", label, ti, len(got.Tests[ti]), len(want.Tests[ti]))
		}
		for cyc := range want.Tests[ti] {
			for pi := range want.Tests[ti][cyc] {
				if got.Tests[ti][cyc][pi] != want.Tests[ti][cyc][pi] {
					t.Fatalf("%s: test %d cycle %d PI %d: %d, reference %d",
						label, ti, cyc, pi, got.Tests[ti][cyc][pi], want.Tests[ti][cyc][pi])
				}
			}
		}
	}
}

func summarizeSeq(r *atpg.SeqReport) string {
	return fmt.Sprintf("{Detected:%d Untestable:%d Aborted:%d Backtracks:%d PodemCalls:%d Total:%d Frames:%d Tests:%d}",
		r.Detected, r.Untestable, r.Aborted, r.Backtracks, r.PodemCalls, r.Total, r.Frames, len(r.Tests))
}

func assertSameReport(t *testing.T, label string, got, want *atpg.Report) {
	t.Helper()
	if got.Detected != want.Detected || got.Redundant != want.Redundant ||
		got.Aborted != want.Aborted || got.Backtracks != want.Backtracks ||
		got.PodemCalls != want.PodemCalls || got.Total != want.Total {
		t.Fatalf("%s: report %+v, reference %+v (vectors elided)",
			label,
			atpg.Report{Detected: got.Detected, Redundant: got.Redundant, Aborted: got.Aborted, Backtracks: got.Backtracks, PodemCalls: got.PodemCalls, Total: got.Total},
			atpg.Report{Detected: want.Detected, Redundant: want.Redundant, Aborted: want.Aborted, Backtracks: want.Backtracks, PodemCalls: want.PodemCalls, Total: want.Total})
	}
	if len(got.Vectors) != len(want.Vectors) {
		t.Fatalf("%s: %d vectors, reference %d", label, len(got.Vectors), len(want.Vectors))
	}
	for vi := range want.Vectors {
		for pi := range want.Vectors[vi] {
			if got.Vectors[vi][pi] != want.Vectors[vi][pi] {
				t.Fatalf("%s: vector %d PI %d: %d, reference %d",
					label, vi, pi, got.Vectors[vi][pi], want.Vectors[vi][pi])
			}
		}
	}
}

// strideFaults subsamples a fault list (keeps runtime bounded on the
// larger random circuits without losing site-kind coverage — collapsed
// lists interleave stem and branch faults across the whole netlist).
func strideFaults(all []faultsim.Fault, stride int) []faultsim.Fault {
	var out []faultsim.Fault
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

// fuzzBacktracks keeps the per-target search budget small: random
// XOR-heavy circuits make PODEM abort often, and an abort costs its
// whole budget, so the production default would burn minutes proving
// nothing parity doesn't already prove — the bound is shared by both
// engines, and a small one still exercises the aborted classification.
const fuzzBacktracks = 24

// TestATPGSequentialParity fuzzes the compiled sequential ATPG against
// the serial reference on random sequential circuits × unroll depths ×
// engine configurations: identical generated test sets, effort counters and
// coverage, target by target. This is the lock on the compiled port — a
// single diverging implication or drop would shift every later target.
func TestATPGSequentialParity(t *testing.T) {
	for seed := int64(0); seed < 6; seed += 2 { // even seeds: sequential shapes
		c := fuzzCircuit(t, seed)
		nl, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		faults := strideFaults(faultsim.Faults(nl), 5)
		for _, frames := range []int{1, 3} {
			ref, err := atpg.GenerateSequential(nl, frames, faults, &atpg.Options{
				MaxBacktracks: fuzzBacktracks, FillSeed: seed,
				Options: engine.Options{Workers: 1},
			})
			if err != nil {
				t.Fatalf("seed %d frames %d legacy: %v", seed, frames, err)
			}
			for _, ec := range atpgConfigs {
				label := fmt.Sprintf("seed=%d/frames=%d/%s", seed, frames, ec)
				rep, err := atpg.GenerateSequential(nl, frames, faults, &atpg.Options{
					MaxBacktracks: fuzzBacktracks, FillSeed: seed,
					PackPairs: ec.packPairs, Options: ec.options(),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameSeqReport(t, label, rep, ref)
			}
		}
	}
}

// TestATPGCombinationalParity is the combinational counterpart: compiled
// dual-rail PODEM with the compiled drop-sim session vs the serial
// interpreter with the single-fault reference drop-sim, on random
// combinational circuits, including targeted fault subsets.
func TestATPGCombinationalParity(t *testing.T) {
	for seed := int64(1); seed < 8; seed += 2 { // odd seeds: combinational shapes
		c := fuzzCircuit(t, seed)
		nl, err := synth.Synthesize(c)
		if err != nil {
			t.Fatal(err)
		}
		all := faultsim.Faults(nl)
		subsets := [][]faultsim.Fault{strideFaults(all, 3), all[:len(all)/2]}
		for si, faults := range subsets {
			ref, err := atpg.Generate(nl, faults, &atpg.Options{
				MaxBacktracks: fuzzBacktracks, FillSeed: seed,
				Options: engine.Options{Workers: 1},
			})
			if err != nil {
				t.Fatalf("seed %d legacy: %v", seed, err)
			}
			for _, ec := range atpgConfigs {
				label := fmt.Sprintf("seed=%d/subset=%d/%s", seed, si, ec)
				rep, err := atpg.Generate(nl, faults, &atpg.Options{
					MaxBacktracks: fuzzBacktracks, FillSeed: seed,
					PackPairs: ec.packPairs, Options: ec.options(),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameReport(t, label, rep, ref)
			}
		}
	}
}

// TestATPGModelReuseParity pins the compile-once contract: one Model
// running baseline and subset campaigns back to back must produce
// exactly what fresh per-call models produce (the model carries no state
// between runs), for both engines. The runs alternate on the one model
// — serial, packed, serial, packed — so any state either kind of run
// left on the model would leak into the next.
func TestATPGModelReuseParity(t *testing.T) {
	c := fuzzCircuit(t, 0)
	nl, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	model, err := atpg.NewSequentialModel(nl, frames)
	if err != nil {
		t.Fatal(err)
	}
	all := faultsim.Faults(nl)
	for i, workers := range []int{1, 0, 1, 0} {
		// MaxBacktracks capped like the other fuzz legs: the random
		// circuit's abort-heavy targets prove nothing about model reuse.
		opts := &atpg.Options{MaxBacktracks: fuzzBacktracks, FillSeed: 9,
			Options: engine.Options{Workers: workers}}
		label := fmt.Sprintf("run%d/workers=%d", i, workers)
		first, err := model.GenerateSequential(all, opts)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := atpg.GenerateSequential(nl, frames, all, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSeqReport(t, label+"/baseline", first, fresh)
		sub := all[:len(all)/3]
		again, err := model.GenerateSequential(sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		freshSub, err := atpg.GenerateSequential(nl, frames, sub, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSeqReport(t, label+"/subset", again, freshSub)
	}
	if _, err := model.Generate(nil, nil); err == nil {
		t.Fatal("combinational Generate accepted on a sequential model")
	}
}
