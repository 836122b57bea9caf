package atpg

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/netlist"
)

// packOpts builds combinational options at a given pack width.
func packOpts(pairs int) *Options {
	return &Options{FillSeed: 5, PackPairs: pairs}
}

// TestPackFewerTargetsThanPairs runs a full-width pack over target lists
// far smaller than the 32-pair capacity — the scheduler must leave the
// surplus pairs idle and still match the single-pair setting exactly,
// down to a single-target pack.
func TestPackFewerTargetsThanPairs(t *testing.T) {
	nl := buildMux(t)
	all := faultsim.Faults(nl)
	for _, n := range []int{1, 2, 3} {
		sub := all[:n]
		ref, err := Generate(nl, sub, packOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		packed, err := Generate(nl, sub, packOpts(32))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(packed, ref) {
			t.Fatalf("%d targets: packed %+v, single-pair %+v", n, packed, ref)
		}
		if packed.Total != n {
			t.Fatalf("%d targets: total = %d", n, packed.Total)
		}
	}

	// Sequential counterpart on the toggle circuit.
	seq := buildToggle(t)
	sf := faultsim.Faults(seq)[:2]
	sopts := func(pairs int) *Options {
		return &Options{FillSeed: 5, PackPairs: pairs}
	}
	sref, err := GenerateSequential(seq, 3, sf, sopts(1))
	if err != nil {
		t.Fatal(err)
	}
	spacked, err := GenerateSequential(seq, 3, sf, sopts(32))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spacked, sref) {
		t.Fatalf("sequential: packed %+v, single-pair %+v", spacked, sref)
	}
}

// TestPackAllRedundant arms a pack consisting entirely of redundant
// targets: no test is ever generated, nothing drops, and every pair
// re-arms purely off retirements. The subset is discovered by
// classifying each fault individually with the serial reference, so the
// test tracks the fault collapser.
func TestPackAllRedundant(t *testing.T) {
	// y = OR(OR(a,1), OR(b,1)): everything upstream of y is masked by the
	// constants, so most of the fault list is redundant.
	n := netlist.New("allred")
	a := n.AddInput("a")
	b := n.AddInput("b")
	c1 := n.AddGate(netlist.Const1)
	o1 := n.AddGate(netlist.Or, a, c1)
	o2 := n.AddGate(netlist.Or, b, c1)
	y := n.AddGate(netlist.Or, o1, o2)
	n.MarkOutput(y, "y")

	var redundant []faultsim.Fault
	for _, f := range faultsim.Faults(n) {
		rep, err := Generate(n, []faultsim.Fault{f}, &Options{Options: engine.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Redundant == 1 {
			redundant = append(redundant, f)
		}
	}
	if len(redundant) < 2 {
		t.Fatalf("only %d redundant faults; circuit no longer exercises the all-redundant pack", len(redundant))
	}
	ref, err := Generate(n, redundant, packOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Generate(n, redundant, packOpts(32))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(packed, ref) {
		t.Fatalf("packed %+v, single-pair %+v", packed, ref)
	}
	if packed.Redundant != packed.Total || len(packed.Vectors) != 0 {
		t.Fatalf("all-redundant pack generated tests: %+v", packed)
	}
}

// TestPackMidCancellation cancels the context from the progress hook
// after the first committed target, while the pack still holds in-flight
// speculative searches: the scheduler must notice at its per-round poll
// and surface the context error instead of finishing the pack.
func TestPackMidCancellation(t *testing.T) {
	nl := buildC17(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := &Options{FillSeed: 5, PackPairs: 4, Options: engine.Options{
		Ctx:      ctx,
		Progress: func(engine.Stats) { cancel() },
	}}
	rep, err := Generate(nl, nil, opts)
	if err == nil {
		t.Fatalf("cancelled pack completed: %+v", rep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	seq := buildToggle(t)
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	sopts := &Options{FillSeed: 5, PackPairs: 4, Options: engine.Options{
		Ctx:      sctx,
		Progress: func(engine.Stats) { scancel() },
	}}
	srep, err := GenerateSequential(seq, 3, nil, sopts)
	if err == nil {
		t.Fatalf("cancelled sequential pack completed: %+v", srep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential err = %v, want context.Canceled", err)
	}
}

// TestPackPairsValidation pins the knob contract: 0 resolves to the full
// 32-pair capacity, 1..32 pass through, everything else is rejected by
// both generators, and the serial reference path ignores the knob
// entirely.
func TestPackPairsValidation(t *testing.T) {
	if got, err := resolvePackPairs(0); err != nil || got != packMaxPairs {
		t.Errorf("resolvePackPairs(0) = %d, %v; want %d", got, err, packMaxPairs)
	}
	for _, p := range []int{1, 2, 32} {
		if got, err := resolvePackPairs(p); err != nil || got != p {
			t.Errorf("resolvePackPairs(%d) = %d, %v", p, got, err)
		}
	}
	nl := buildMux(t)
	seq := buildToggle(t)
	for _, p := range []int{-1, 33} {
		if _, err := Generate(nl, nil, &Options{PackPairs: p}); err == nil {
			t.Errorf("Generate accepted PackPairs %d", p)
		}
		if _, err := GenerateSequential(seq, 0, nil, &Options{PackPairs: p}); err == nil {
			t.Errorf("GenerateSequential accepted PackPairs %d", p)
		}
		// The serial reference never reaches the pack scheduler, so the
		// knob is ignored there.
		if _, err := Generate(nl, nil, &Options{PackPairs: p, Options: engine.Options{Workers: 1}}); err != nil {
			t.Errorf("serial path rejected PackPairs %d: %v", p, err)
		}
	}
}
