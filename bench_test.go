// Benchmark harness: one benchmark per table of the paper's evaluation
// plus the motivation experiment and the engine/discipline ablations.
// Each table benchmark prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers alongside the timing profile (README.md
// documents the entry points; scripts/bench.sh records a machine-readable
// summary). The assertions here only guard that the experiments complete
// and stay self-consistent.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faultsim"
	"repro/internal/hdl"
	"repro/internal/lane"
	"repro/internal/mutation"
	"repro/internal/mutscore"
	"repro/internal/netlist"
	"repro/internal/randcirc"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/tpg"
)

var printOnce sync.Map

// printRows emits a table exactly once per key across all benchmark
// iterations and repetitions.
func printRows(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

func benchConfig() core.Config {
	return core.Config{Seed: 1, SampleFrac: 0.10, RandHorizon: 2048, EquivBudget: 1024, Repeats: 5}
}

// --- E1: Table 1 — operator fault coverage efficiency ------------------------

func benchmarkTable1(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		flow, err := core.NewFlow(circuits.MustLoad(name), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		profiles, err := flow.ProfileOperators()
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) == 0 {
			b.Fatal("no operator profiles")
		}
		printRows("table1/"+name,
			core.FormatTable1([]core.Table1Row{{Circuit: name, Profiles: profiles}}))
	}
}

func BenchmarkTable1B01(b *testing.B)  { benchmarkTable1(b, "b01") }
func BenchmarkTable1B03(b *testing.B)  { benchmarkTable1(b, "b03") }
func BenchmarkTable1C432(b *testing.B) { benchmarkTable1(b, "c432") }
func BenchmarkTable1C499(b *testing.B) { benchmarkTable1(b, "c499") }

// --- E2: Table 2 — test-oriented vs random sampling --------------------------

func benchmarkTable2(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		flow, err := core.NewFlow(circuits.MustLoad(name), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := flow.CompareSampling()
		if err != nil {
			b.Fatal(err)
		}
		if cmp.TestOriented.SampleSize != cmp.Random.SampleSize {
			b.Fatal("strategies drew different sample sizes")
		}
		printRows("table2/"+name, core.FormatTable2([]*core.SamplingComparison{cmp}))
	}
}

func BenchmarkTable2B01(b *testing.B)  { benchmarkTable2(b, "b01") }
func BenchmarkTable2B03(b *testing.B)  { benchmarkTable2(b, "b03") }
func BenchmarkTable2C432(b *testing.B) { benchmarkTable2(b, "c432") }
func BenchmarkTable2C499(b *testing.B) { benchmarkTable2(b, "c499") }

// BenchmarkTable2B03OneCore is Table2B03 on one core: GOMAXPROCS is
// pinned to 1, so Workers: 0 resolves to one worker and the flow runs
// every section inline, as at Workers: 1 but on the compiled engines.
// Its ratio over Table2B03, read within one run, is what the flow's
// concurrent sections buy on the host's cores.
func BenchmarkTable2B03OneCore(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkTable2(b, "b03")
}

// --- E3: ATPG top-off (the paper's §1 motivation) -----------------------------

func benchmarkTopoff(b *testing.B, name string, cfg core.Config) {
	for i := 0; i < b.N; i++ {
		flow, err := core.NewFlow(circuits.MustLoad(name), cfg)
		if err != nil {
			b.Fatal(err)
		}
		r, err := flow.ATPGTopoff()
		if err != nil {
			b.Fatal(err)
		}
		if r.Topoff.PodemCalls > r.Baseline.PodemCalls {
			b.Fatalf("top-off took more PODEM calls (%d) than scratch (%d)",
				r.Topoff.PodemCalls, r.Baseline.PodemCalls)
		}
		printRows("topoff/"+name, core.FormatTopoff([]*core.TopoffResult{r}))
	}
}

func BenchmarkTopoffC17(b *testing.B)  { benchmarkTopoff(b, "c17", benchConfig()) }
func BenchmarkTopoffC432(b *testing.B) { benchmarkTopoff(b, "c432", benchConfig()) }
func BenchmarkTopoffC499(b *testing.B) { benchmarkTopoff(b, "c499", benchConfig()) }
func BenchmarkTopoffC880(b *testing.B) { benchmarkTopoff(b, "c880", benchConfig()) }

// BenchmarkTopoffC432OneCore is TopoffC432 on one core: GOMAXPROCS is
// pinned to 1, so the flow runs the baseline ATPG inline before the
// pre-test and top-off instead of beside them. Its ratio over
// TopoffC432, read within one run, is what that overlap buys.
func BenchmarkTopoffC432OneCore(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkTopoff(b, "c432", benchConfig())
}

// --- E4: sequential ATPG top-off (extension) ----------------------------------

func BenchmarkSeqTopoffB06(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flow, err := core.NewFlow(circuits.MustLoad("b06"), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		r, err := flow.SequentialATPGTopoff(6)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Topoff.Tests) > len(r.Baseline.Tests) {
			b.Fatalf("top-off regressed: %d vs %d tests", len(r.Topoff.Tests), len(r.Baseline.Tests))
		}
		printRows("seqtopoff/b06", core.FormatSeqTopoff([]*core.SeqTopoffResult{r}))
	}
}

// --- A4: TG-discipline ablation -------------------------------------------------

// BenchmarkTGDisciplines contrasts the two generation disciplines on one
// operator class: dedicated per-mutant (value-rich, longer) and mutation-
// adequate per-mutant (hard mutants only).
func BenchmarkTGDisciplines(b *testing.B) {
	c := circuits.MustLoad("b01")
	class := mutation.Generate(c, mutation.CR)
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var out string
		for _, d := range []struct {
			label string
			mode  tpg.Mode
		}{
			{"per-mutant", tpg.PerMutant},
			{"adequate", tpg.PerMutantSkip},
		} {
			tg, err := tpg.MutationTests(c, class, &tpg.Options{Mode: d.mode, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			res, err := fs.Run(tpg.ToPatterns(c, tg.Seq))
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("A4 b01/CR %-11s len %4d kills %3d/%d FC %.2f%%\n",
				d.label, len(tg.Seq), tg.KilledCount(), len(class), 100*res.Coverage())
		}
		printRows("tgmodes/b01", out)
	}
}

// --- TG: session-based generation (b03) -----------------------------------------

// BenchmarkMutationTests is the session-based TG path on a deterministic
// 120-mutant b03 sample: the sample is compiled once into a tpg.Session,
// and every iteration runs a full generation campaign over it with
// nothing recompiled between campaigns.
func BenchmarkMutationTests(b *testing.B) {
	c := circuits.MustLoad("b03")
	sample := sampling.Random(mutation.Generate(c), 120, 9)
	s, err := tpg.NewSession(c, sample, &tpg.Options{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	cycles := 0
	for i := 0; i < b.N; i++ {
		res, err := s.Generate(nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Segments) == 0 {
			b.Fatal("campaign accepted no segment")
		}
		cycles += len(res.Seq)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "tgcycles/s")
}

// --- A1: sampling-rate sweep ---------------------------------------------------

func BenchmarkSweepB01(b *testing.B) {
	for _, frac := range []float64{0.05, 0.10, 0.20, 0.40} {
		b.Run(fmt.Sprintf("frac=%.2f", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.SampleFrac = frac
				flow, err := core.NewFlow(circuits.MustLoad("b01"), cfg)
				if err != nil {
					b.Fatal(err)
				}
				cmp, err := flow.CompareSampling()
				if err != nil {
					b.Fatal(err)
				}
				printRows(fmt.Sprintf("sweep/b01/%.2f", frac),
					fmt.Sprintf("A1 b01 frac %.2f: test-oriented MS %.2f%% NLFCE %+.0f | random MS %.2f%% NLFCE %+.0f\n",
						frac, cmp.TestOriented.MSPct, cmp.TestOriented.Eff.NLFCE,
						cmp.Random.MSPct, cmp.Random.Eff.NLFCE))
			}
		})
	}
}

// --- A2: weight-source ablation -------------------------------------------------

// BenchmarkWeightSources compares three ways to weight the test-oriented
// sample: the paper's NLFCE profile, a mutation-score profile (kill ratio
// per class — a "validation-oriented" alternative), and uniform weights
// (which reduce to the random strategy's expected composition).
func BenchmarkWeightSources(b *testing.B) {
	name := "b01"
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		flow, err := core.NewFlow(circuits.MustLoad(name), cfg)
		if err != nil {
			b.Fatal(err)
		}
		profiles, err := flow.ProfileOperators()
		if err != nil {
			b.Fatal(err)
		}
		n := sampling.SampleSize(len(flow.Mutants), cfg.SampleFrac)

		nlfce := core.DeriveWeights(profiles, 0.05)
		msW := make(sampling.Weights)
		for _, p := range profiles {
			msW[p.Op] = float64(p.Killed) / float64(p.Probed)
		}
		uniform := make(sampling.Weights)
		for _, p := range profiles {
			uniform[p.Op] = 1
		}

		full, err := tpg.NewSession(flow.Circuit, flow.Mutants, nil)
		if err != nil {
			b.Fatal(err)
		}
		var out string
		for _, src := range []struct {
			label string
			w     sampling.Weights
		}{{"nlfce", nlfce}, {"ms", msW}, {"uniform", uniform}} {
			sample := sampling.Weighted(flow.Mutants, n, src.w, cfg.Seed+10)
			tg, err := tpg.MutationTests(flow.Circuit, sample, &tpg.Options{Seed: cfg.Seed + 5})
			if err != nil {
				b.Fatal(err)
			}
			scorer := mutscore.Config{}.NewScorer(full)
			killed, err := scorer.Kills(tg.Seq)
			if err != nil {
				b.Fatal(err)
			}
			equiv, err := flow.Equivalent()
			if err != nil {
				b.Fatal(err)
			}
			fres, err := flow.FaultSim(tg.Seq)
			if err != nil {
				b.Fatal(err)
			}
			out += fmt.Sprintf("A2 %s weights=%-8s MS %.2f%%  FC %.2f%%  len %d\n",
				name, src.label, 100*mutscore.Score(killed, equiv),
				100*fres.Coverage(), len(tg.Seq))
		}
		printRows("weights/"+name, out)
	}
}

// --- A3: equivalence-budget sensitivity ------------------------------------------

func BenchmarkEquivalenceBudget(b *testing.B) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c)
	ts, err := tpg.NewSession(c, ms, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []int{128, 512, 2048} {
		b.Run(fmt.Sprintf("budget=%d", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scorer := mutscore.Config{}.NewScorer(ts)
				eq, err := scorer.EstimateEquivalence(&mutscore.EquivalenceOptions{Budget: budget, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, e := range eq {
					if e {
						n++
					}
				}
				printRows(fmt.Sprintf("equiv/%d", budget),
					fmt.Sprintf("A3 b01 budget %4d: %d/%d probably equivalent\n", budget, n, len(ms)))
			}
		})
	}
}

// --- microbenchmarks: the inner loops -------------------------------------------

func BenchmarkBehavioralSim(b *testing.B) {
	c := circuits.MustLoad("b03")
	s, err := sim.New(c)
	if err != nil {
		b.Fatal(err)
	}
	seq := tpg.RandomSequence(c, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seq)*b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkBehavioralSimCompiled is BenchmarkBehavioralSim on the
// compiled engine; the ratio between the two is the per-cycle win of flat
// instruction streams over AST walking.
func BenchmarkBehavioralSimCompiled(b *testing.B) {
	c := circuits.MustLoad("b03")
	p, err := sim.Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	m := p.NewMachine()
	seq := tpg.RandomSequence(c, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seq)*b.N)/b.Elapsed().Seconds(), "cycles/s")
}

func BenchmarkSynthesize(b *testing.B) {
	c := circuits.MustLoad("c880")
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMutantGeneration(b *testing.B) {
	c := circuits.MustLoad("b03")
	for i := 0; i < b.N; i++ {
		if got := mutation.Generate(c); len(got) == 0 {
			b.Fatal("no mutants")
		}
	}
}

// combLargeDesign is the combinational design of the repository
// benchmark's large-netlist workload (bench/workloads.go,
// largeDesigns[1]): 3.4k gates.
var combLargeDesign = randcirc.Config{Seed: 4, Inputs: 16, Outputs: 16, Regs: -1, Wires: 64, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 48}

// BenchmarkMutantGenerationLarge times mutant generation on both designs
// of the large-netlist workload, one operator class per Generate call as
// the workload does: 9732 mutants an iteration. Each mutant is a path
// copy of its design that shares every node its edit does not touch.
func BenchmarkMutantGenerationLarge(b *testing.B) {
	var cs []*hdl.Circuit
	for _, cfg := range []randcirc.Config{seqLargeDesign, combLargeDesign} {
		c, err := randcirc.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cs = append(cs, c)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = 0
		for _, c := range cs {
			for _, op := range mutation.AllOperators() {
				n += len(mutation.Generate(c, op))
			}
		}
	}
	b.ReportMetric(float64(n), "mutants")
}

// benchmarkFaultSimCombinational times combinational fault simulation of
// c880 at a fixed engine setting (Workers semantics per faultsim.Config).
func benchmarkFaultSimCombinational(b *testing.B, workers int) {
	c := circuits.MustLoad("c880")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.Config{Options: engine.Options{Workers: workers}}.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 256, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Run(pats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats)*len(fs.Faults())*b.N)/b.Elapsed().Seconds(), "faultpatterns/s")
}

// BenchmarkFaultSimCombinational is the production setting: compiled
// engine, all cores.
func BenchmarkFaultSimCombinational(b *testing.B) { benchmarkFaultSimCombinational(b, 0) }

// BenchmarkFaultSimCombinationalReference is the serial single-fault
// Evaluator path kept for differential testing.
func BenchmarkFaultSimCombinationalReference(b *testing.B) { benchmarkFaultSimCombinational(b, 1) }

// BenchmarkFaultSimCombinationalLanesW1 is the production setting on one
// core: c880 under a 256-pattern set in the 64-pattern (W=1) batches the
// simulator always runs on a combinational circuit. The name is kept
// from the lane-width ablation the row belonged to because the strict CI
// gate and the committed BENCH_*.json baselines key on it.
func BenchmarkFaultSimCombinationalLanesW1(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchmarkFaultSimCombinational(b, 0)
}

// benchmarkFaultSimSequential times sequential (parallel-fault) fault
// simulation of b03. singleCore pins GOMAXPROCS to 1 so the recorded
// ratio against the reference engine isolates the algorithmic win of
// packing 64 fault machines per pass from the worker-pool multiplier.
func benchmarkFaultSimSequential(b *testing.B, workers int, singleCore bool) {
	if singleCore {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	c := circuits.MustLoad("b03")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.Config{Options: engine.Options{Workers: workers}}.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 256, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Run(pats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats)*len(fs.Faults())*b.N)/b.Elapsed().Seconds(), "faultcycles/s")
}

// BenchmarkFaultSimSequential is the production setting: parallel-fault
// compiled engine on the full worker pool at the default lane width.
func BenchmarkFaultSimSequential(b *testing.B) { benchmarkFaultSimSequential(b, 0, false) }

// BenchmarkFaultSimSequentialPacked1Core is the parallel-fault engine on
// one core at the default lane width — its ratio over the Reference
// benchmark isolates the algorithmic win from the worker-pool multiplier.
func BenchmarkFaultSimSequentialPacked1Core(b *testing.B) { benchmarkFaultSimSequential(b, 0, true) }

// BenchmarkFaultSimSequentialReference is the serial single-fault
// Evaluator path: one whole-sequence replay per fault.
func BenchmarkFaultSimSequentialReference(b *testing.B) { benchmarkFaultSimSequential(b, 1, true) }

// benchmarkFaultSimSeqLongHorizon is the masked-execution ablation: a
// long-horizon b03 drop-sim campaign (2048 cycles appended in 64-cycle
// windows on one core, starting from a W8 batch and a W1 tail) where
// most faults are detected early,
// so the tail windows run almost entirely on retired lanes. With
// re-planning on, the scheduler compacts survivors onto narrower
// machines between windows; StaticPlan pins the initial W8 plan and
// keeps evaluating the dead words — the ratio between the two rows is
// the win from not simulating them. Results are bit-identical either
// way (pinned in internal/difftest).
func benchmarkFaultSimSeqLongHorizon(b *testing.B, static bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := circuits.MustLoad("b03")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.Config{StaticPlan: static}.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 2048, 17))
	const window = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Reset()
		for lo := 0; lo < len(pats); lo += window {
			if _, err := fs.Append(pats[lo : lo+window]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(pats)*len(fs.Faults())*b.N)/b.Elapsed().Seconds(), "faultcycles/s")
}

// BenchmarkFaultSimSeqLongHorizon is the production scheduler: survivors
// are re-packed onto narrower machines as lanes retire.
func BenchmarkFaultSimSeqLongHorizon(b *testing.B) { benchmarkFaultSimSeqLongHorizon(b, false) }

// BenchmarkFaultSimSeqLongHorizonStatic pins the initial plan for the
// whole campaign — dead lanes keep getting evaluated.
func BenchmarkFaultSimSeqLongHorizonStatic(b *testing.B) { benchmarkFaultSimSeqLongHorizon(b, true) }

// seqLargeDesign is the sequential design of the repository benchmark's
// large-netlist workload (bench/workloads.go, largeDesigns[0]): 6797
// gates, 198 flip-flops and 26883 collapsed faults, with most faults
// undetected by random stimulus.
var seqLargeDesign = randcirc.Config{Seed: 3, Inputs: 12, Outputs: 12, Regs: 16, Wires: 32, MaxWidth: 16, MaxDepth: 6, ExtraStmts: 32}

// BenchmarkFaultSimSeqLarge times sequential fault simulation of the
// large design at the production setting: 256 raw-random cycles in
// 64-cycle Appends, from a Reset each iteration. Only the 11224 faults
// whose site reaches a primary output get lanes; the other 15659 stay
// on the frontier unsimulated. The batches inject a few percent of the
// design's gates and disturb a few percent per cycle, so they run the
// event-driven Machine.Step; the reported metrics are the share of
// batch-cycles that stepped and the instructions each step evaluated
// (faultsim.PathStats). faultcycles/s counts every listed fault.
func BenchmarkFaultSimSeqLarge(b *testing.B) {
	c, err := randcirc.Generate(seqLargeDesign)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 256, 1))
	const window = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Reset()
		for lo := 0; lo < len(pats); lo += window {
			if _, err := fs.Append(pats[lo : lo+window]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(pats)*len(fs.Faults())*b.N)/b.Elapsed().Seconds(), "faultcycles/s")
	st := fs.PathStats()
	if cycles := st.FullCycles + st.EventCycles; cycles > 0 {
		b.ReportMetric(100*float64(st.EventCycles)/float64(cycles), "%stepped")
	}
	if st.EventCycles > 0 {
		b.ReportMetric(float64(st.EventEvals)/float64(st.EventCycles), "evals/step")
	}
}

// BenchmarkFaultSimCombLarge times combinational fault simulation of
// the large-netlist workload's 3.4k-gate design at the production
// setting: one Run of 2048 raw-random patterns per iteration. Only the
// 2680 of its 12973 faults whose site reaches a primary output are
// simulated; faultpatterns/s counts every listed fault.
func BenchmarkFaultSimCombLarge(b *testing.B) {
	c, err := randcirc.Generate(combLargeDesign)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	fs, err := faultsim.New(nl, nil)
	if err != nil {
		b.Fatal(err)
	}
	pats := tpg.ToPatterns(c, tpg.RawRandomSequence(c, 2048, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Run(pats); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(pats)*len(fs.Faults())*b.N)/b.Elapsed().Seconds(), "faultpatterns/s")
}

// BenchmarkPODEM is combinational ATPG on c432. MaxBacktracks is capped
// well below the 4096 default: c432's redundant faults burn the whole
// budget before the verdict, so an uncapped run times abort churn
// instead of search-and-drop throughput.
func BenchmarkPODEM(b *testing.B) {
	c := circuits.MustLoad("c432")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := atpg.Generate(nl, nil, &atpg.Options{MaxBacktracks: 256, FillSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Detected == 0 {
			b.Fatal("ATPG detected nothing")
		}
	}
}

// benchmarkSeqATPG is the compiled-ATPG ablation family: full sequential
// ATPG on b03 (model compile + PODEM over the unrolled model + drop-sim)
// at a fixed engine setting. Workers 1 is the serial reference — the
// three-valued interpreter under the serial driver, dropping through
// faultsim's single-fault reference engine; Workers 0 runs the pack
// scheduler on the dual-rail twin with the compiled reset-per-test
// drop-sim session, on one lane pair at PackPairs 1 and on up to 32
// concurrent searches per machine pass at PackPairs 0. All settings
// produce identical reports (pinned in atpg and internal/difftest); the
// packed-vs-single-pair ratio is what filling the lanes buys. A round
// costs one machine pass, one rail-word load and one D-frontier pass
// whatever the pack width, plus each search's own decision, so the
// single pair pays all of it for one search per round and the full pack
// shares it among 32: ~9x on b03 (BENCH_frontierpass).
// MaxBacktracks is capped like the parity tests so aborted targets don't
// dominate the measurement with search effort every engine shares
// anyway.
func benchmarkSeqATPG(b *testing.B, workers, packPairs int) {
	nl, err := synth.Synthesize(circuits.MustLoad("b03"))
	if err != nil {
		b.Fatal(err)
	}
	opts := &atpg.Options{MaxBacktracks: 96, FillSeed: 3}
	opts.Workers = workers
	opts.PackPairs = packPairs
	targets := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := atpg.GenerateSequential(nl, 4, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Detected == 0 {
			b.Fatal("sequential ATPG detected nothing")
		}
		targets = rep.Total
	}
	b.ReportMetric(float64(targets*b.N)/b.Elapsed().Seconds(), "targets/s")
}

// BenchmarkSeqATPGPacked is the packed compiled engine (full 32-pair
// capacity) on b03 — the production path.
func BenchmarkSeqATPGPacked(b *testing.B) { benchmarkSeqATPG(b, 0, 0) }

// BenchmarkSeqATPGCompiled is the pack scheduler pinned to a single lane
// pair on b03 — the CI-gated ablation twin of BenchmarkSeqATPGPacked.
func BenchmarkSeqATPGCompiled(b *testing.B) { benchmarkSeqATPG(b, 0, 1) }

// BenchmarkSeqATPGLegacy is the serial reference on b03 (interpreter,
// serial driver, single-fault reference drop-sim), kept as the
// differential baseline.
func BenchmarkSeqATPGLegacy(b *testing.B) { benchmarkSeqATPG(b, 1, 0) }

func BenchmarkMutationScore(b *testing.B) {
	c := circuits.MustLoad("b01")
	ms := mutation.Generate(c)
	seq := tpg.RandomSequence(c, 256, 1)
	ts, err := tpg.NewSession(c, ms, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer := mutscore.Config{}.NewScorer(ts)
		if _, err := scorer.Kills(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ms)*len(seq)*b.N)/b.Elapsed().Seconds(), "mutantcycles/s")
}

// benchmarkMutationScoreEngine times one-shot scoring at a fixed worker
// setting: a fresh Scorer per iteration on one session compiled before
// the timer, so both engines time scoring alone (the pooled engine's
// includes arming its machines, which a flow's later calls reuse).
func benchmarkMutationScoreEngine(b *testing.B, workers int) {
	c := circuits.MustLoad("b03")
	ms := mutation.Generate(c)
	seq := tpg.RandomSequence(c, 256, 1)
	ts, err := tpg.NewSession(c, ms, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mutscore.Config{Options: engine.Options{Workers: workers}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer := cfg.NewScorer(ts)
		if _, err := scorer.Kills(seq); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ms)*len(seq)*b.N)/b.Elapsed().Seconds(), "mutantcycles/s")
}

// BenchmarkMutationScoreSerial is the legacy path: one AST-interpreter
// run per mutant, strictly sequential.
func BenchmarkMutationScoreSerial(b *testing.B) { benchmarkMutationScoreEngine(b, 1) }

// BenchmarkMutationScorePooled is the mutant-parallel compiled engine at
// the production setting (all cores).
func BenchmarkMutationScorePooled(b *testing.B) { benchmarkMutationScoreEngine(b, 0) }

func BenchmarkNetlistEval64Lanes(b *testing.B) {
	c := circuits.MustLoad("c880")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := netlist.NewEvaluator(nl)
	if err != nil {
		b.Fatal(err)
	}
	pis := make([]uint64, len(nl.PIs))
	for i := range pis {
		pis[i] = 0xAAAA5555CCCC3333
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(pis); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "patterns/s")
}

// benchmarkNetlistEvalCompiled is BenchmarkNetlistEval64Lanes on the
// compiled Machine at lane width W; against the Evaluator it measures the
// flat-instruction-stream win, and across widths the per-gate decode
// amortization (patterns/s scales with lanes per pass when the W=4/8
// pass costs less than 4/8 W=1 passes).
func benchmarkNetlistEvalCompiled[W lane.Word](b *testing.B) {
	c := circuits.MustLoad("c880")
	nl, err := synth.Synthesize(c)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := netlist.Compile(nl)
	if err != nil {
		b.Fatal(err)
	}
	m := netlist.NewMachine[W](prog)
	pis := make([]W, len(nl.PIs))
	for i := range pis {
		pis[i] = lane.Broadcast[W](0xAAAA5555CCCC3333)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Eval(pis)
	}
	b.ReportMetric(float64(lane.Count[W]()*b.N)/b.Elapsed().Seconds(), "patterns/s")
}

func BenchmarkNetlistEvalCompiled(b *testing.B)   { benchmarkNetlistEvalCompiled[lane.W1](b) }
func BenchmarkNetlistEvalCompiledW4(b *testing.B) { benchmarkNetlistEvalCompiled[lane.W4](b) }
func BenchmarkNetlistEvalCompiledW8(b *testing.B) { benchmarkNetlistEvalCompiled[lane.W8](b) }
