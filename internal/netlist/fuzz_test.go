package netlist

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lane"
)

// benchC17 is `mutsample synth c17`: the combinational seed.
const benchC17 = `# c17
# c17: 5 PI, 2 PO, 0 FF, 12 gates, depth 6
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i6)
INPUT(i7)
OUTPUT(o22)
OUTPUT(o23)
n0 = CONST0()
n1 = CONST1()
n7 = AND(i1, i3)
n8 = NOT(n7)
n9 = AND(i3, i6)
n10 = NOT(n9)
n11 = AND(i2, n10)
n12 = NOT(n11)
n13 = AND(i7, n10)
n14 = NOT(n13)
n15 = AND(n8, n12)
n16 = NOT(n15)
n17 = AND(n12, n14)
n18 = NOT(n17)
o22 = BUF(n16)
o23 = BUF(n18)
`

// benchTwoFFs is the sequential seed: two flip-flops, one powering on
// at 1, each read before its D net is defined.
const benchTwoFFs = `INPUT(x)
INPUT(en)
OUTPUT(q1)
OUTPUT(y)
q0 = DFF(d0)
q1 = DFF(d1)
# @init q1 1
d0 = XOR(x, q1)
d1 = AND(q0, en)
y = NAND(q0, q1, x)
`

// Two definitions of one net, which ReadBench must reject on line 4.
const (
	benchGateThenDFF = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\nb = DFF(a)\n"
	benchGateTwice   = "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\nb = AND(a, a)\n"
)

// FuzzReadBench feeds arbitrary text to ReadBench, which must never
// panic. Every netlist it accepts must compile, and one W=1 pass with up
// to 64 of its fault sites injected one per lane, in reverse order, must
// match a single-fault Evaluator pass in every lane.
func FuzzReadBench(f *testing.F) {
	for _, src := range []string{benchC17, benchTwoFFs, benchGateThenDFF, benchGateTwice} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		nl, err := ReadBench(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		prog, err := Compile(nl)
		if err != nil {
			t.Fatalf("accepted netlist does not compile: %v", err)
		}
		ev, err := NewEvaluator(nl)
		if err != nil {
			t.Fatalf("accepted netlist has no evaluator: %v", err)
		}
		// Spread the lanes over the whole site list.
		all := allSites(nl)
		var sites []FaultSite
		for i := 0; i < len(all); i += (len(all) + 63) / 64 {
			sites = append(sites, all[i])
		}
		m := NewMachine[lane.W1](prog)
		for ln := len(sites) - 1; ln >= 0; ln-- {
			m.InjectFault(sites[ln], lane.Bit[lane.W1](ln))
		}
		pis := randWords(rand.New(rand.NewSource(int64(len(src)))), len(nl.PIs))
		got := m.Eval(w1(pis))
		for ln, site := range sites {
			want := ev.EvalWith(pis, site, ^uint64(0))
			for po := range want {
				if g, w := got[po][0]>>uint(ln)&1, want[po]>>uint(ln)&1; g != w {
					t.Fatalf("lane %d site %+v PO %d: machine %d, evaluator %d", ln, site, po, g, w)
				}
			}
		}
	})
}
