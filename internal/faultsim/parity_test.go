package faultsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// parityConfigs spans the interesting engine settings: the single-fault
// serial reference engine (Workers 1), and the compiled parallel-fault
// engine on fixed pools and on the all-cores default. The planner picks
// the lane widths: combinational sessions run W=1 batches, and
// sequential ones plan W=8 batches plus a cheapest tail (see
// TestPlanSeqChunksWidths) — b03's 567 faults run a W8 and a W1 batch,
// b06's 207 and b03's every-third-fault RunOn subset (189) a W4 batch.
var parityConfigs = []Config{cfgOf(1), cfgOf(2), cfgOf(5), cfgOf(0)}

// cfgOf abbreviates the embedded engine.Options literal in test tables.
func cfgOf(workers int) Config {
	return Config{Options: engine.Options{Workers: workers}}
}

// randPatterns builds a deterministic random test set.
func randPatterns(nPIs, n int, seed int64) []Pattern {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pattern, n)
	for i := range out {
		p := make(Pattern, nPIs)
		for j := range p {
			p[j] = uint8(rng.Intn(2))
		}
		out[i] = p
	}
	return out
}

// randomParityNetlist builds a random netlist with optional flip-flops
// and nGates combinational gates; it mirrors the generator in
// internal/netlist's compile tests so the engine parity is exercised on
// circuits no benchmark covers.
func randomParityNetlist(t *testing.T, seed int64, nFFs, nGates int) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(fmt.Sprintf("prand%d", seed))
	for i := 0; i < 4; i++ {
		n.AddInput(fmt.Sprintf("i%d", i))
	}
	for i := 0; i < nFFs; i++ {
		n.AddDFF(fmt.Sprintf("ff%d", i), uint64(rng.Intn(2)))
	}
	comb := []netlist.GateType{netlist.Buf, netlist.Not, netlist.And, netlist.Or,
		netlist.Nand, netlist.Nor, netlist.Xor, netlist.Xnor}
	for i := 0; i < nGates; i++ {
		ty := comb[rng.Intn(len(comb))]
		arity := 2 + rng.Intn(3)
		if ty == netlist.Buf || ty == netlist.Not {
			arity = 1
		}
		fanin := make([]int, arity)
		for j := range fanin {
			fanin[j] = rng.Intn(n.NumGates())
		}
		n.AddGate(ty, fanin...)
	}
	for _, ff := range n.FFs {
		n.SetDFFInput(ff, rng.Intn(n.NumGates()))
	}
	for i := 0; i < 3; i++ {
		n.MarkOutput(rng.Intn(n.NumGates()), fmt.Sprintf("o%d", i))
	}
	n.MarkOutput(n.NumGates()-1, "olast")
	if err := n.Validate(); err != nil {
		t.Fatalf("random netlist invalid: %v", err)
	}
	return n
}

// assertParity runs every configuration on the same netlist and test set
// and demands an identical FirstDetected profile, including RunOn with a
// strided fault subset.
func assertParity(t *testing.T, nl *netlist.Netlist, tests []Pattern) {
	t.Helper()
	var ref *Result
	var refOn *Result
	var subset []int
	for _, cfg := range parityConfigs {
		label := labelOf(cfg)
		s, err := cfg.New(nl, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if subset == nil {
			for i := 0; i < len(s.Faults()); i += 3 {
				subset = append(subset, i)
			}
		}
		res, err := s.Run(tests)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		resOn, err := s.RunOn(tests, subset)
		if err != nil {
			t.Fatalf("%s: RunOn: %v", label, err)
		}
		if ref == nil {
			ref, refOn = res, resOn
			continue
		}
		for i := range ref.FirstDetected {
			if res.FirstDetected[i] != ref.FirstDetected[i] {
				t.Errorf("%s: fault %d (%s) first detected at %d, reference %d",
					label, i, s.Faults()[i].Desc, res.FirstDetected[i], ref.FirstDetected[i])
			}
			if resOn.FirstDetected[i] != refOn.FirstDetected[i] {
				t.Errorf("%s: RunOn fault %d first detected at %d, reference %d",
					label, i, resOn.FirstDetected[i], refOn.FirstDetected[i])
			}
		}
	}
	// RunOn must agree with Run on included faults and stay -1 elsewhere.
	inSubset := make(map[int]bool, len(subset))
	for _, fi := range subset {
		inSubset[fi] = true
	}
	for i := range ref.FirstDetected {
		switch {
		case inSubset[i] && refOn.FirstDetected[i] != ref.FirstDetected[i]:
			t.Errorf("RunOn fault %d: %d, Run says %d", i, refOn.FirstDetected[i], ref.FirstDetected[i])
		case !inSubset[i] && refOn.FirstDetected[i] != -1:
			t.Errorf("RunOn leaked excluded fault %d: %d", i, refOn.FirstDetected[i])
		}
	}
}

// TestEngineParityBenchmarks is the differential guarantee the ISSUE
// demands, on synthesized benchmark circuits: the parallel-fault compiled
// engine must produce the exact FirstDetected profile of the single-fault
// reference for every worker count, combinational and sequential.
func TestEngineParityBenchmarks(t *testing.T) {
	for _, name := range []string{"c17", "c432", "b01", "b03", "b06"} {
		t.Run(name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(name))
			if err != nil {
				t.Fatal(err)
			}
			// 150 patterns crosses two pattern batches (combinational) and
			// leaves some faults undetected (sequential), so both the
			// detection and the exhaustion paths are compared.
			assertParity(t, nl, randPatterns(len(nl.PIs), 150, 7))
		})
	}
}

// TestEngineParityRandomNetlists runs the same differential check on
// random structural netlists, combinational and sequential.
func TestEngineParityRandomNetlists(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nFFs := int(seed) % 3 * 2 // 0 (combinational), 2, 4
		t.Run(fmt.Sprintf("seed=%d/ffs=%d", seed, nFFs), func(t *testing.T) {
			nl := randomParityNetlist(t, seed, nFFs, 25)
			assertParity(t, nl, randPatterns(len(nl.PIs), 100, seed+40))
		})
	}
}

// TestEngineParityManyFaults forces multiple parallel-fault batches: a
// sequential circuit whose collapsed fault list exceeds 64 must split
// into several lane batches and still match the reference exactly.
func TestEngineParityManyFaults(t *testing.T) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(nl, nil)
	if len(s.Faults()) <= 128 {
		t.Fatalf("want > 128 faults to cross two batches, got %d", len(s.Faults()))
	}
	assertParity(t, nl, randPatterns(len(nl.PIs), 48, 3))
}

// TestRunOnRejectsBadIndex pins index validation: out-of-range and
// duplicate indices (a duplicate would land one fault in two parallel
// batches) are both errors.
func TestRunOnRejectsBadIndex(t *testing.T) {
	nl := buildMux(t)
	s, _ := New(nl, nil)
	if _, err := s.RunOn(exhaustivePatterns(3), []int{0, 999}); err == nil {
		t.Error("out-of-range fault index accepted")
	}
	if _, err := s.RunOn(exhaustivePatterns(3), []int{3, 1, 3}); err == nil {
		t.Error("duplicate fault index accepted")
	}
}
