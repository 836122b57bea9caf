package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// refFrontier is the per-search scalar D-frontier scan the round's word
// pass replaced, kept as its oracle: the first gate in levelized order
// whose output is X in either of c's planes, with a D on some input and
// an X good-plane input, or -1. With fixup set, a pin carrying one of
// c's branch-fault sites reads the stuck value on the faulty plane, as
// the search has always done; without it the scan reads the net feeding
// the pin.
func refFrontier(e *search, c *cursor, fixup bool) int {
	for _, id := range e.order {
		g := e.nl.Gates[id]
		if c.good(id) != xx && c.faulty(id) != xx {
			continue
		}
		hasD := false
		for j, f := range g.Fanin {
			gvf, fvf := c.good(f), c.faulty(f)
			if st, ok := c.siteAt[id]; fixup && ok && j == st.Pin {
				fvf = tri(st.Stuck)
			}
			if gvf != xx && fvf != xx && gvf != fvf {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		for _, f := range g.Fanin {
			if c.good(f) == xx {
				return id
			}
		}
	}
	return -1
}

// frontierTargets draws a random target's sites on the model: half the
// draws from the branch faults, the rest from the whole collapsed list,
// each fault spread over every time frame on unrolled models.
func frontierTargets(m *Model, rng *rand.Rand) func() []netlist.FaultSite {
	faults := faultsim.Faults(m.nl)
	var branch []faultsim.Fault
	for _, f := range faults {
		if f.Site.Pin >= 0 {
			branch = append(branch, f)
		}
	}
	return func() []netlist.FaultSite {
		for {
			f := faults[rng.Intn(len(faults))]
			if len(branch) > 0 && rng.Intn(2) == 0 {
				f = branch[rng.Intn(len(branch))]
			}
			if m.frames == 0 {
				return []netlist.FaultSite{f.Site}
			}
			if sites := m.um.SitesInFrames(m.nl, f.Site); len(sites) > 0 {
				return sites
			}
		}
	}
}

// randomCube fills a cursor's assignment with random three-valued PIs.
func randomCube(c *cursor, rng *rand.Rand) {
	for i := range c.assign {
		c.assign[i] = [...]tri{lo, hi, xx}[rng.Intn(3)]
	}
}

// TestFrontierPassMatchesScan checks the round's D-frontier pass against
// the scalar scan for every search that consults it, on the paper's
// combinational circuits and on unrolled sequential models, under random
// targets (branch-fault and multi-frame sites included) and random
// three-valued assignments, on both backends: the twin's load with 32
// armed pairs and the interpreter's own lanes. Serial and packed runs
// share the pass, so their parity tests cannot see an error in it; this
// can. Each
// circuit must also produce cases where the branch-site fix-up changes
// the answer, so the check cannot pass without it.
func TestFrontierPassMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames int // 0: combinational model
	}{
		{"c17", 0}, {"c432", 0}, {"c499", 0}, {"b03", 4}, {"b06", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := synth.Synthesize(circuits.MustLoad(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			var m *Model
			if tc.frames == 0 {
				m, err = NewModel(nl)
			} else {
				m, err = NewSequentialModel(nl, tc.frames)
			}
			if err != nil {
				t.Fatal(err)
			}
			pl, curs, tw := m.newRun(packMaxPairs)
			rng := rand.New(rand.NewSource(1))
			target := frontierTargets(m, rng)
			checked, found, sensitive := 0, 0, 0
			check := func(label string, c *cursor) {
				if m.eng.detected(c) {
					return
				}
				if activated, _, _ := m.eng.activation(c); !activated {
					return
				}
				want := refFrontier(m.eng, c, true)
				if c.front != want {
					t.Fatalf("%s: pair %d (sites %v): pass picked gate %d, scan gate %d",
						label, c.lane/2, c.sites, c.front, want)
				}
				checked++
				if want >= 0 {
					found++
				}
				if refFrontier(m.eng, c, false) != want {
					sensitive++
				}
			}
			for trial := 0; trial < 60; trial++ {
				tw.m.ClearFaults()
				var live uint64
				for k, c := range curs {
					sites := target()
					c.arm(m.eng.nl, sites)
					tw.armPair(k, sites)
					randomCube(c, rng)
					tw.gather(c.assign, k)
					live |= c.bit
				}
				tw.m.Eval(tw.pis)
				tw.load(pl)
				m.eng.frontier(pl, live)
				for _, c := range curs {
					check("twin", c)
				}
				// The interpreter fills only cursor 0's lanes; the pass
				// must read them the same way.
				m.eng.imply(curs[0])
				m.eng.frontier(pl, curs[0].bit)
				check("interpreter", curs[0])
			}
			if checked == 0 || found == 0 {
				t.Fatalf("%d searches checked, %d with a frontier gate: draws exercise nothing", checked, found)
			}
			if sensitive == 0 {
				t.Fatalf("no draw depends on the branch-site fix-up (%d checked)", checked)
			}
			t.Logf("%d searches checked, %d with a frontier gate, %d depend on the branch fix-up",
				checked, found, sensitive)
		})
	}
}
