package faultsim

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/internal/randcirc"
	"repro/internal/synth"
)

// The two designs of the repository benchmark's large-netlist workload
// (bench/workloads.go): 6797 gates and 198 flip-flops with 26883
// collapsed faults, and a 3439-gate combinational design with 12973.
var (
	seqLargeDesign  = randcirc.Config{Seed: 3, Inputs: 12, Outputs: 12, Regs: 16, Wires: 32, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 32}
	combLargeDesign = randcirc.Config{Seed: 4, Inputs: 16, Outputs: 16, Regs: -1, Wires: 64, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 48}
)

func largeNetlist(t testing.TB, cfg randcirc.Config) *netlist.Netlist {
	t.Helper()
	c, err := randcirc.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// fmtDesc is the fmt-based description format Faults must reproduce
// byte for byte.
func fmtDesc(nl *netlist.Netlist, site netlist.FaultSite) string {
	g := nl.Gates[site.Gate]
	label := g.Name
	if label == "" {
		label = fmt.Sprintf("n%d", g.ID)
	}
	if site.Pin < 0 {
		return fmt.Sprintf("%s/out s-a-%d", label, site.Stuck)
	}
	return fmt.Sprintf("%s/in%d s-a-%d", label, site.Pin, site.Stuck)
}

// TestFaultDescs pins every description against the fmt-based format on
// every in-repo circuit and both large designs.
func TestFaultDescs(t *testing.T) {
	nls := map[string]*netlist.Netlist{
		"seqLarge":  largeNetlist(t, seqLargeDesign),
		"combLarge": largeNetlist(t, combLargeDesign),
	}
	for _, name := range circuits.Names() {
		nl, err := synth.Synthesize(circuits.MustLoad(name))
		if err != nil {
			t.Fatal(err)
		}
		nls[name] = nl
	}
	for name, nl := range nls {
		for i, f := range Faults(nl) {
			if want := fmtDesc(nl, f.Site); f.Desc != want {
				t.Fatalf("%s: fault %d (%+v) described %q, want %q", name, i, f.Site, f.Desc, want)
			}
		}
	}
}

// TestFaultsAllocations bounds the allocations of one Faults call on the
// large sequential design: the list and its descriptions are sized by a
// counting pass, so the call makes a handful of allocations, not one or
// two per fault.
func TestFaultsAllocations(t *testing.T) {
	nl := largeNetlist(t, seqLargeDesign)
	if allocs := testing.AllocsPerRun(3, func() { Faults(nl) }); allocs > 32 {
		t.Errorf("Faults allocates %.0f objects on %d gates, want at most 32", allocs, len(nl.Gates))
	}
}
