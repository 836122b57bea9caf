// Command mutsample runs the mutation-sampling experiments from the shell.
//
// Usage:
//
//	mutsample list                         circuit inventory
//	mutsample synth   <circuit>            dump synthesized netlist (.bench)
//	mutsample mutants <circuit> [-op OP]   mutant population summary
//	mutsample table1  [circuits...]        E1: operator efficiency (Table 1)
//	mutsample table2  [circuits...]        E2: sampling comparison (Table 2)
//	mutsample topoff  [circuits...]        E3: ATPG top-off (combinational)
//	mutsample seqtopoff [circuits...]      E4: sequential ATPG top-off
//	mutsample sweep   <circuit>            A1: sampling-rate sweep
//	mutsample testability <circuit>        SCOAP report
//	mutsample faultsim <circuit>           pseudo-random coverage curve
//	mutsample campaign <circuit>           one campaign job, local or remote
//
// Experiment flags (before positional arguments):
//
//	-seed N        master seed (default 1)
//	-horizon N     pseudo-random reference length (default 2048)
//	-equiv N       equivalence campaign budget (default 1024)
//	-frac F        sampling fraction (default 0.10)
//	-repeats N     repetitions averaged per measurement (default 5)
//	-workers N     worker count for mutant scoring, fault simulation and
//	               the flow's concurrent sections (operator-profile jobs,
//	               scoring beside test generation); 0 = all cores,
//	               1 = serial reference engines, every section inline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/mutation"
	"repro/internal/netlist"
	"repro/internal/scoap"
	"repro/internal/synth"
	"repro/internal/tpg"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "synth":
		err = cmdSynth(args)
	case "mutants":
		err = cmdMutants(args)
	case "table1":
		err = cmdTable1(args)
	case "table2":
		err = cmdTable2(args)
	case "topoff":
		err = cmdTopoff(args)
	case "seqtopoff":
		err = cmdSeqTopoff(args)
	case "testability":
		err = cmdTestability(args)
	case "faultsim":
		err = cmdFaultSim(args)
	case "sweep":
		err = cmdSweep(args)
	case "campaign":
		err = cmdCampaign(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mutsample: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mutsample %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `mutsample — mutation sampling for structural test data (DATE'05 reproduction)

commands:
  list                       circuit inventory with netlist statistics
  synth   <circuit>          dump the synthesized gate-level netlist (.bench)
  mutants <circuit> [-op OP] mutant population summary (and per-op filter)
  table1  [circuits...]      E1: per-operator fault coverage efficiency
  table2  [circuits...]      E2: test-oriented vs random sampling at -frac
  topoff  [circuits...]      E3: ATPG effort with/without validation pre-test
  seqtopoff [circuits...]    E4: sequential (time-frame) ATPG top-off
  sweep   <circuit>          A1: sampling-rate sweep (5/10/20/40%)
  testability <circuit>      SCOAP controllability/observability report
  faultsim <circuit>         fault-simulate pseudo-random data, print curve
  campaign <circuit>         run one campaign job (locally or via -server)

experiment flags: -seed N  -horizon N  -equiv N  -frac F  -workers N
`)
}

// experimentFlags installs the shared flags on a FlagSet and returns a
// closure producing the core.Config.
func experimentFlags(fs *flag.FlagSet) func() core.Config {
	seed := fs.Int64("seed", 1, "master seed")
	horizon := fs.Int("horizon", 2048, "pseudo-random reference length")
	equiv := fs.Int("equiv", 1024, "equivalence campaign budget")
	frac := fs.Float64("frac", 0.10, "mutant sampling fraction")
	repeats := fs.Int("repeats", 0, "repetitions averaged per measurement (default 5)")
	workers := fs.Int("workers", 0, "worker count for mutant scoring, fault simulation, operator-profile jobs and scoring beside test generation (0 = all cores, 1 = serial reference, inline)")
	return func() core.Config {
		return core.Config{
			Seed:        *seed,
			RandHorizon: *horizon,
			EquivBudget: *equiv,
			SampleFrac:  *frac,
			Repeats:     *repeats,
			Options:     engine.Options{Workers: *workers},
		}
	}
}

func resolveCircuits(names []string, defaults []string) ([]string, error) {
	if len(names) == 0 {
		return defaults, nil
	}
	for _, n := range names {
		if _, ok := circuits.Source(n); !ok {
			return nil, fmt.Errorf("unknown circuit %q (have %s)", n, strings.Join(circuits.Names(), ", "))
		}
	}
	return names, nil
}

func cmdList() error {
	fmt.Printf("%-8s %5s %5s %5s %7s %7s %9s\n", "circuit", "PIs", "POs", "FFs", "gates", "depth", "mutants")
	for _, name := range circuits.Names() {
		c, err := circuits.Load(name)
		if err != nil {
			return err
		}
		nl, err := synth.Synthesize(c)
		if err != nil {
			return err
		}
		st := nl.Stats()
		nm := len(mutation.Generate(c))
		fmt.Printf("%-8s %5d %5d %5d %7d %7d %9d\n",
			name, st.PIs, st.POs, st.FFs, st.Gates, st.Depth, nm)
	}
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample synth <circuit>")
	}
	c, err := circuits.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return netlist.WriteBench(w, nl)
}

func cmdMutants(args []string) error {
	fs := flag.NewFlagSet("mutants", flag.ExitOnError)
	opFilter := fs.String("op", "", "restrict to one operator (e.g. CR)")
	show := fs.Int("show", 0, "print the first N mutant diffs")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample mutants <circuit>")
	}
	c, err := circuits.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	var ops []mutation.Operator
	if *opFilter != "" {
		op, err := mutation.ParseOperator(*opFilter)
		if err != nil {
			return err
		}
		ops = append(ops, op)
	}
	ms := mutation.Generate(c, ops...)
	counts := mutation.CountByOperator(ms)
	fmt.Printf("%s: %d mutants\n", c.Name, len(ms))
	for _, op := range mutation.AllOperators() {
		if counts[op] > 0 {
			fmt.Printf("  %-5s %5d\n", op, counts[op])
		}
	}
	for i, m := range ms {
		if i >= *show {
			break
		}
		fmt.Printf("#%d [%s] %s\n", m.ID, m.Op, m.Desc)
		printDiff(hdl.Format(c), hdl.Format(m.Circuit))
	}
	return nil
}

func printDiff(orig, mut string) {
	ol := strings.Split(orig, "\n")
	ml := strings.Split(mut, "\n")
	for i := 0; i < len(ol) || i < len(ml); i++ {
		var a, b string
		if i < len(ol) {
			a = ol[i]
		}
		if i < len(ml) {
			b = ml[i]
		}
		if a != b {
			if a != "" {
				fmt.Printf("  - %s\n", strings.TrimSpace(a))
			}
			if b != "" {
				fmt.Printf("  + %s\n", strings.TrimSpace(b))
			}
		}
	}
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	cfgOf := experimentFlags(fs)
	fs.Parse(args)
	names, err := resolveCircuits(fs.Args(), circuits.PaperBenchmarks())
	if err != nil {
		return err
	}
	var rows []core.Table1Row
	for _, name := range names {
		f, err := core.NewFlow(circuits.MustLoad(name), cfgOf())
		if err != nil {
			return err
		}
		profiles, err := f.ProfileOperators()
		if err != nil {
			return err
		}
		rows = append(rows, core.Table1Row{Circuit: name, Profiles: profiles})
	}
	fmt.Print(core.FormatTable1(rows))
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	cfgOf := experimentFlags(fs)
	verbose := fs.Bool("v", false, "print sample allocations and weights")
	fs.Parse(args)
	names, err := resolveCircuits(fs.Args(), circuits.PaperBenchmarks())
	if err != nil {
		return err
	}
	var cmps []*core.SamplingComparison
	for _, name := range names {
		f, err := core.NewFlow(circuits.MustLoad(name), cfgOf())
		if err != nil {
			return err
		}
		cmp, err := f.CompareSampling()
		if err != nil {
			return err
		}
		cmps = append(cmps, cmp)
		if *verbose {
			fmt.Printf("%s weights and allocation:\n", name)
			for _, p := range cmp.Profiles {
				fmt.Printf("  %-5s mutants %4d  NLFCE %+9.1f  weight %8.1f  drawn %d (random drew %d)\n",
					p.Op, p.Mutants, p.Eff.NLFCE, cmp.Weights[p.Op],
					cmp.TestOriented.Alloc[p.Op], cmp.Random.Alloc[p.Op])
			}
		}
	}
	fmt.Print(core.FormatTable2(cmps))
	return nil
}

func cmdTopoff(args []string) error {
	fs := flag.NewFlagSet("topoff", flag.ExitOnError)
	cfgOf := experimentFlags(fs)
	fs.Parse(args)
	names, err := resolveCircuits(fs.Args(), []string{"c17", "c432", "c499", "c880"})
	if err != nil {
		return err
	}
	var results []*core.TopoffResult
	for _, name := range names {
		f, err := core.NewFlow(circuits.MustLoad(name), cfgOf())
		if err != nil {
			return err
		}
		r, err := f.ATPGTopoff()
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(core.FormatTopoff(results))
	return nil
}

func cmdSeqTopoff(args []string) error {
	fs := flag.NewFlagSet("seqtopoff", flag.ExitOnError)
	cfgOf := experimentFlags(fs)
	frames := fs.Int("frames", 8, "time-frame expansion depth")
	fs.Parse(args)
	names, err := resolveCircuits(fs.Args(), []string{"b01", "b02", "b06"})
	if err != nil {
		return err
	}
	var results []*core.SeqTopoffResult
	for _, name := range names {
		f, err := core.NewFlow(circuits.MustLoad(name), cfgOf())
		if err != nil {
			return err
		}
		r, err := f.SequentialATPGTopoff(*frames)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(core.FormatSeqTopoff(results))
	return nil
}

func cmdTestability(args []string) error {
	fs := flag.NewFlagSet("testability", flag.ExitOnError)
	topN := fs.Int("top", 10, "number of hardest nets to list")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample testability <circuit>")
	}
	c, err := circuits.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		return err
	}
	m, err := scoap.Analyze(nl)
	if err != nil {
		return err
	}
	sum := m.Summarize(nl, *topN)
	fmt.Printf("%s SCOAP: %v\n", c.Name, sum)
	fmt.Printf("hardest nets (CC0+CC1+CO):\n")
	for _, id := range sum.HardestNets {
		g := nl.Gates[id]
		label := g.Name
		if label == "" {
			label = fmt.Sprintf("n%d", id)
		}
		fmt.Printf("  %-14s %-6s cc0=%-5d cc1=%-5d co=%-5d\n",
			label, g.Type, m.CC0[id], m.CC1[id], m.CO[id])
	}
	return nil
}

func cmdFaultSim(args []string) error {
	fs := flag.NewFlagSet("faultsim", flag.ExitOnError)
	n := fs.Int("n", 256, "number of pseudo-random patterns")
	seed := fs.Int64("seed", 1, "stimulus seed")
	curveEvery := fs.Int("curve", 32, "print coverage every N patterns (0 = final only)")
	workers := fs.Int("workers", 0, "fault-simulation pool size (0 = all cores, 1 = serial reference)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample faultsim <circuit>")
	}
	c, err := circuits.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		return err
	}
	sim, err := faultsim.Config{Options: engine.Options{Workers: *workers}}.New(nl, nil)
	if err != nil {
		return err
	}
	res, err := sim.Run(tpg.ToPatterns(c, tpg.RawRandomSequence(c, *n, *seed)))
	if err != nil {
		return err
	}
	curve := res.Curve()
	if *curveEvery > 0 {
		for i := *curveEvery - 1; i < len(curve); i += *curveEvery {
			fmt.Printf("  after %4d: %6.2f%%\n", i+1, 100*curve[i])
		}
	}
	fmt.Printf("%s: %d collapsed faults, %d detected (%.2f%%) with %d pseudo-random patterns\n",
		c.Name, len(res.Faults), res.DetectedCount(), 100*res.Coverage(), *n)
	und := res.Undetected()
	if len(und) > 0 && len(und) <= 20 {
		fmt.Println("undetected:")
		for _, f := range und {
			fmt.Printf("  %s\n", f.Desc)
		}
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	cfgOf := experimentFlags(fs)
	fracsArg := fs.String("fracs", "0.05,0.10,0.20,0.40", "comma-separated sampling fractions")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mutsample sweep <circuit>")
	}
	name := fs.Arg(0)
	if _, ok := circuits.Source(name); !ok {
		return fmt.Errorf("unknown circuit %q", name)
	}
	var fracs []float64
	for _, s := range strings.Split(*fracsArg, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
			return fmt.Errorf("bad fraction %q", s)
		}
		fracs = append(fracs, v)
	}
	fmt.Printf("A1: sampling-rate sweep on %s\n", name)
	fmt.Printf("%6s | %-28s | %-28s\n", "", "test-oriented", "random")
	fmt.Printf("%6s | %7s %8s %6s %4s | %7s %8s %6s %4s\n",
		"frac", "MS%", "NLFCE", "len", "n", "MS%", "NLFCE", "len", "n")
	for _, frac := range fracs {
		cfg := cfgOf()
		cfg.SampleFrac = frac
		f, err := core.NewFlow(circuits.MustLoad(name), cfg)
		if err != nil {
			return err
		}
		cmp, err := f.CompareSampling()
		if err != nil {
			return err
		}
		fmt.Printf("%6.2f | %7.2f %+8.0f %6d %4d | %7.2f %+8.0f %6d %4d\n",
			frac,
			cmp.TestOriented.MSPct, cmp.TestOriented.Eff.NLFCE, cmp.TestOriented.SeqLen, cmp.TestOriented.SampleSize,
			cmp.Random.MSPct, cmp.Random.Eff.NLFCE, cmp.Random.SeqLen, cmp.Random.SampleSize)
	}
	return nil
}
